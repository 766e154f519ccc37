"""How fast the machine ran during a run, and times scaled to one fixed speed.

On the shared 2-vCPU VM the benchmark was built on, a fixed pure-Python loop
takes either about its fastest time or about 1.5 times that, in phases that
last from a fraction of a second to minutes, and the program slows with it.
The share of slow time in a run then moved its times by up to 25 % between
seeds.  The gauge times a fixed loop (about 1 ms) between units of work, at
most every :data:`PERIOD_S`, and :meth:`Gauge.scaled` converts a measured
interval into seconds at the loop's nominal speed: each stretch between two
samples is multiplied by :data:`NOMINAL_MS` over the median loop time of the
samples around it.  The samples' own time is left out of every interval.
"""

from __future__ import annotations

import bisect
import statistics
from contextlib import nullcontext
from typing import List, Optional

from perfbench.tracer import Tracer, clock

#: Iterations of the gauge's loop.
LOOP = 20_000
#: About the loop's time in the fast phase of a 2-vCPU Xeon VM; scaled times are at this speed.
NOMINAL_MS = 1.0
#: Shortest interval between two samples taken at unit boundaries.
PERIOD_S = 0.05
#: Samples on each side of a stretch whose median sets its speed.
WINDOW = 2


def _loop() -> None:
    sum(i * i for i in range(LOOP))


class Gauge:
    """Loop samples as (start, end); :meth:`scaled` reads them."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._factors: Optional[List[float]] = None

    def sample(self, force: bool = False) -> None:
        """Time the loop once, unless ``force`` is false and the last sample is younger
        than PERIOD_S."""
        if not force and self.ends and clock() - self.ends[-1] < PERIOD_S:
            return
        with self.tracer.span("bench.gauge") if self.tracer is not None else nullcontext():
            start = clock()
            _loop()
            end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self._factors = None

    def loop_ms(self) -> List[float]:
        return [1e3 * (end - start) for start, end in zip(self.starts, self.ends)]

    def _stretch_factors(self) -> List[float]:
        """Factor of stretch k, the time between sample k - 1 and sample k."""
        if self._factors is None:
            loop_ms = self.loop_ms()
            self._factors = [
                NOMINAL_MS / statistics.median(loop_ms[max(0, k - WINDOW): k + WINDOW])
                for k in range(len(loop_ms) + 1)
            ]
        return self._factors

    def scaled(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would have taken at the nominal speed."""
        if not self.starts:
            raise RuntimeError("the gauge has no samples")
        factors = self._stretch_factors()
        total = 0.0
        k = bisect.bisect_right(self.ends, start)
        while True:
            low = self.ends[k - 1] if k > 0 else start
            high = self.starts[k] if k < len(self.starts) else end
            total += max(0.0, min(end, high) - max(start, low)) * factors[k]
            if k == len(self.starts) or high >= end:
                return total
            k += 1
