"""Outside-in span tracer over the program's public calls.

The traced run wraps the calls listed in :data:`LAYER_CALLS` on the class or
module namespace that defines them, keeps one span per call in memory and puts
the originals back when the traced section ends.  A span records its name,
start, end, parent span and the frame (or decision) it belongs to.  A span's
self time is its duration minus the time its direct children cover, so every
instant of the traced section belongs to exactly one span.

Per-user scalar calls (one voice source, one MAC state machine, ...) are not
wrapped one by one: the simulator's per-frame loops over them are, so the cost
of tracing stays one span per layer per frame.
"""

from __future__ import annotations

import collections
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

clock = time.perf_counter
#: The span around a traced section; spans outside it (the traced set-up)
#: count only towards ``simulation.construct_s``.
ROOT_SPAN = "bench"


class Patches:
    """Replaces attributes of classes or modules and restores them in reverse order.

    A target that the program no longer has is skipped and named in
    ``missing``, so a later version that renames a call loses that row (it
    reads 0) instead of failing every run.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(current)``.

        For a class the attribute is replaced on the class in its MRO that
        defines it, so an inherited method is wrapped once for every subclass.
        """
        label = f"{owner.__name__}.{attr}"
        if isinstance(owner, type):
            owner = next((k for k in owner.__mro__ if attr in vars(k)), None)
        if owner is None or attr not in vars(owner):
            self.missing.append(label)
            return
        original = vars(owner)[attr]
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, original))

    def targets(self) -> List[Tuple[object, str, object]]:
        """The replaced attributes as (owner, attribute, original) triples."""
        return list(self._undo)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans plus counters, keyed by the frame or decision id ``unit``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.units: List[int] = []
        self.unit = 0
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter; calls outside the traced section are not counted."""
        if self._stack and self.names[self._stack[0]] == ROOT_SPAN:
            self.counts[name] += amount

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str, after=None, on_error=None) -> Callable:
        """``fn`` timed as span ``name``; ``after(tracer, args, result)`` adds counts."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, root: str = ROOT_SPAN) -> Dict[str, float]:
        """Self time in seconds per span name, over the spans under a ``root`` span."""
        covered = [0.0] * len(self.names)
        top = list(range(len(self.names)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
                top[i] = top[parent]
        totals: Dict[str, float] = collections.defaultdict(float)
        for i, name in enumerate(self.names):
            if self.names[top[i]] == root:
                totals[name] += self.ends[i] - self.starts[i] - covered[i]
        return totals

    def inclusive(self, name: str) -> Tuple[int, float]:
        """Number of spans called ``name`` and their summed duration in seconds."""
        spans = [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]
        return len(spans), sum(spans)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "unit"],
                                  "counts": dict(self.counts)}) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.units):
                name, start, end, parent, unit = row
                out.write(json.dumps([name, start - origin, end - origin, parent, unit]) + "\n")


# -- what the traced run wraps --------------------------------------------------------


def _pc_counts(prefix: str):
    def after(tracer: Tracer, args, result) -> None:
        tracer.count(f"{prefix}_iters", result.iterations)
        if result.iterations >= args[0].iterations:
            tracer.count("cdma.pc_capped")

    return after


def _decision_counts(tracer: Tracer, args, result) -> None:
    _, grants = result
    tracer.count("mac.decisions")
    tracer.count("mac.pending", len(args[2]))
    tracer.count("mac.granted", len(grants))


def _solver_counts(tracer: Tracer, args, result) -> None:
    tracer.count("opt.bnb_nodes", result.nodes_explored)


def _lp_fallbacks(tracer: Tracer, exc: BaseException) -> None:
    """The simplex ran out of pivots: ``solve_near_optimal`` then returns greedy silently."""
    if type(exc).__name__ == "SimplexIterationLimitError":
        tracer.count("opt.fallbacks")


_SOLVERS = ("solve_greedy", "solve_near_optimal", "solve_branch_and_bound", "solve_exhaustive")

#: (module, class or None for a module-level name, attribute, span name, after, on_error).
#: Functions imported by name are wrapped in the namespace of the module that
#: calls them: the pilot functions in ``repro.cdma.network``, the solvers in
#: ``repro.mac.schedulers.jaba_sd`` and in F6's ``repro.experiments.solver_ablation``.
#: ``solve_near_optimal`` imports ``solve_lp_relaxation`` from ``repro.opt.lp``
#: on every call and catches its pivot-limit error, so the LP is wrapped there
#: to count the fallbacks.
LAYER_CALLS = [
    ("repro.geometry.hexgrid", "HexagonalCellLayout", "distances_to_all_batch",
     "geometry.distances", None, None),
    ("repro.channel.pathloss", "LogDistancePathLoss", "gain", "channel.pathloss", None, None),
    ("repro.cdma.linkgain", "LinkGainMap", "advance", "cdma.linkgain", None, None),
    ("repro.cdma.linkgain", "LinkGainMap", "local_mean_gain", "cdma.linkgain", None, None),
    ("repro.geometry.mobility", "MobilityBatch", "advance", "geometry.mobility", None, None),
    ("repro.geometry.mobility", "RandomDirectionFleet", "advance", "geometry.mobility",
     None, None),
    ("repro.cdma.handoff", "SoftHandoffController", "update", "cdma.handoff", None, None),
    ("repro.cdma.network", None, "forward_pilot_ec_io", "cdma.pilot", None, None),
    ("repro.cdma.network", None, "reverse_pilot_ec_io", "cdma.pilot", None, None),
    ("repro.cdma.powercontrol", "ReverseLinkPowerControl", "solve", "cdma.pc_reverse",
     _pc_counts("cdma.pc_reverse"), None),
    ("repro.cdma.powercontrol", "ForwardLinkPowerControl", "solve", "cdma.pc_forward",
     _pc_counts("cdma.pc_forward"), None),
    ("repro.cdma.network", "CdmaNetwork", "snapshot", "cdma.snapshot", None, None),
    ("repro.simulation.dynamic", "DynamicSystemSimulator", "_update_voice_activity",
     "traffic.sources", None, None),
    ("repro.simulation.dynamic", "DynamicSystemSimulator", "_pull_arrivals",
     "traffic.sources", None, None),
    ("repro.simulation.dynamic", "DynamicSystemSimulator", "_update_mac_states",
     "mac.states", None, None),
    ("repro.simulation.dynamic", "DynamicSystemSimulator", "run", "simulation", None, None),
    ("repro.simulation.dynamic", "DynamicSystemSimulator", "__init__",
     "simulation.construct", None, None),
    ("repro.mac.measurement", "ForwardLinkMeasurement", "build", "mac.measurement",
     None, None),
    ("repro.mac.measurement", "ReverseLinkMeasurement", "build", "mac.measurement",
     None, None),
    ("repro.mac.admission", "BurstAdmissionController", "decide", "mac.admission",
     _decision_counts, None),
    *[("repro.mac.schedulers.jaba_sd", None, solver, "opt.solve", _solver_counts, None)
      for solver in _SOLVERS],
    *[("repro.experiments.solver_ablation", None, solver, "opt.solve", _solver_counts, None)
      for solver in _SOLVERS[:3]],
    ("repro.opt.lp", None, "solve_lp_relaxation", "opt.solve", None, _lp_fallbacks),
    ("repro.experiments.campaign", "Campaign", "run", "experiments.campaign", None, None),
    ("repro.experiments.campaign", None, "_execute_task", "experiments.replication",
     None, None),
]


def _scheduler_classes() -> List[type]:
    """Every scheduler class that defines its own ``assign``."""
    from repro.mac.schedulers import BurstScheduler

    found, pending = [], list(BurstScheduler.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "assign" in vars(cls) and cls not in found:
            found.append(cls)
    return found


def _owner(module_name: str, class_name):
    """The module or class that holds a call, or None when the program no longer has it."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return owner if class_name is None else getattr(owner, class_name, None)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every call of :data:`LAYER_CALLS` and every scheduler's ``assign``.

    Calls the program no longer has are named in ``patches.missing``.
    """
    targets = []
    for module_name, class_name, attr, span, after, on_error in LAYER_CALLS:
        owner = _owner(module_name, class_name)
        if owner is None:
            patches.missing.append(".".join(filter(None, (module_name, class_name, attr))))
            continue
        targets.append((owner, attr, span, after, on_error))
    targets += [(cls, "assign", "mac.scheduler", None, None) for cls in _scheduler_classes()]
    for owner, attr, span, after, on_error in targets:
        patches.replace(
            owner, attr, lambda fn, s=span, a=after, e=on_error: tracer.wrap(fn, s, a, e)
        )
    wrapped = [(owner, attr) for owner, attr, _ in patches.targets()]
    if len(set(wrapped)) != len(wrapped):
        raise RuntimeError("a call is wrapped twice")


# -- per-layer metrics ----------------------------------------------------------------

#: Span name -> per-layer metric receiving its self time (ms per unit of work).
SELF_TIME_METRICS = {
    "geometry.distances": "geometry.distances_ms",
    "channel.pathloss": "channel.pathloss_ms",
    "cdma.linkgain": "cdma.linkgain_ms",
    "geometry.mobility": "geometry.mobility_ms",
    "cdma.handoff": "cdma.handoff_ms",
    "cdma.pilot": "cdma.pilot_ms",
    "cdma.pc_reverse": "cdma.pc_reverse_ms",
    "cdma.pc_forward": "cdma.pc_forward_ms",
    "cdma.snapshot": "cdma.snapshot_self_ms",
    "traffic.sources": "traffic.sources_ms",
    "mac.states": "mac.states_ms",
    "simulation": "simulation.self_ms",
    "mac.measurement": "mac.measurement_ms",
    "mac.admission": "mac.admission_self_ms",
    "mac.scheduler": "mac.scheduler_self_ms",
    "opt.solve": "opt.solve_ms",
    "experiments.campaign": "experiments.campaign_self_s",  # s per report, not per unit
}
#: Self time of every other span (benchmark loop and checks, experiment and
#: replication glue, simulator construction) lands here.
OTHER_METRIC = "trace.other_ms"
EXPERIMENT_IDS = ("F1", "F2F3", "T1", "F4", "F5", "F6", "T3")


def self_time_partition(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per per-layer metric; the values sum to the traced section."""
    out: Dict[str, float] = collections.defaultdict(float)
    for name, seconds in tracer.self_times().items():
        out[SELF_TIME_METRICS.get(name, OTHER_METRIC)] += seconds
    return out


def layer_metrics(
    tracer: Tracer, units: int, traced_wall_s: float, untraced_wall_s: float, cpu_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``units`` is the number of frames (decisions on admission-heavy) of the
    traced run; the ``experiments.*_s`` rows are totals of its one report.
    """
    per_unit = 1.0 / max(units, 1)
    partition = self_time_partition(tracer)
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in list(SELF_TIME_METRICS.values()) + [OTHER_METRIC]:
        if name.endswith("_ms"):
            metrics[name] = (1e3 * partition.get(name, 0.0) * per_unit, "ms")
    counts = tracer.counts
    for name in ("cdma.pc_reverse_iters", "cdma.pc_forward_iters", "cdma.pc_capped",
                 "opt.bnb_nodes", "opt.fallbacks"):
        metrics[name] = (counts.get(name, 0.0) * per_unit, "count")
    pending = counts.get("mac.pending", 0.0)
    metrics["mac.queue_len"] = (pending / max(counts.get("mac.decisions", 0.0), 1.0), "count")
    metrics["mac.grant_ratio"] = (counts.get("mac.granted", 0.0) / max(pending, 1.0), "1")
    built, build_s = tracer.inclusive("simulation.construct")
    metrics["simulation.construct_s"] = (build_s / max(built, 1), "s")
    for experiment in EXPERIMENT_IDS:
        metrics[f"experiments.{experiment}_s"] = (
            tracer.inclusive(f"experiments.{experiment}")[1], "s"
        )
    metrics["experiments.campaign_self_s"] = (
        partition.get("experiments.campaign_self_s", 0.0), "s"
    )
    metrics["trace.overhead"] = (traced_wall_s / untraced_wall_s - 1.0, "1")
    metrics["cpu_s"] = (cpu_s, "s")
    return metrics
