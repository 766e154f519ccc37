"""Deterministic fault injection for campaign chaos testing.

The fault-tolerance claims of :class:`~repro.experiments.executors.
ResilientExecutor` are only worth something if they can be *proven*: a
campaign run under injected worker crashes, runner exceptions and delays must
complete and aggregate bit-identically to the fault-free run.  This module
provides the seeded chaos half of that proof.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries addressed by
``(point_index, replication)`` coordinates — the same coordinates that
address seed-tree leaves, so a fault plan is exactly as deterministic as the
campaign itself.  The plan is applied inside the worker, *before* the runner
executes (``Campaign.run(fault_plan=...)`` wires it through the task
payload), which keeps the injection independent of any ``ScenarioConfig`` or
runner internals: a triggered fault either prevents the replication from
producing metrics (exception, crash) or merely delays it — it can never
alter the metrics a successful attempt returns.

Fault kinds
-----------
``"exception"``
    Raise :class:`InjectedFaultError` in the worker (a runner bug).
``"crash"``
    ``os._exit(86)`` — the worker process dies without unwinding (segfault /
    OOM-kill stand-in).  Only meaningful under a process-isolating executor;
    under :class:`~repro.experiments.executors.SerialExecutor` it would take
    the calling process down with it.
``"delay"``
    Sleep ``delay_s`` before running normally (straggler / hung-task
    stand-in; combine with a task timeout to exercise the kill-and-re-issue
    path).

Attempt accounting
------------------
Each spec triggers on the first ``times`` executions of its coordinate
(``times=-1``: every execution), so a retried task runs clean once the
budget is consumed — the usual chaos shape.  Counting executions across
*processes* needs shared state: pass ``token_dir`` (any shared directory;
tests use ``tmp_path``) and the plan claims one ``O_CREAT | O_EXCL`` token
file per triggered fault, which is atomic on POSIX and races safely between
speculative duplicates.  Without ``token_dir`` the count is kept in-process,
which is only sufficient for the serial executor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["InjectedFaultError", "FaultSpec", "FaultPlan"]

FAULT_KINDS = ("exception", "crash", "delay")

#: Exit code of an injected worker crash (distinctive in executor reports).
CRASH_EXIT_CODE = 86


class InjectedFaultError(RuntimeError):
    """Raised by an ``"exception"`` fault standing in for a runner bug."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault at a ``(point_index, replication)`` coordinate.

    Parameters
    ----------
    point_index / replication:
        Task coordinate the fault is bound to.
    kind:
        ``"exception"``, ``"crash"`` or ``"delay"`` (see module docstring).
    delay_s:
        Sleep length for ``"delay"`` faults.
    times:
        Number of executions of the coordinate that trigger the fault
        (``-1``: every execution, which makes an ``"exception"`` fault a
        poisoned task under any retry budget).
    """

    point_index: int
    replication: int
    kind: str
    delay_s: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.point_index < 0 or self.replication < 0:
            raise ValueError("point_index and replication must be non-negative")
        if self.kind == "delay" and self.delay_s <= 0.0:
            raise ValueError("delay faults need a positive delay_s")
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be positive or -1 (every execution)")


class FaultPlan:
    """A deterministic set of faults applied by coordinate inside workers.

    The plan is shipped to workers inside the task payload (it must stay
    picklable).  ``token_dir`` enables cross-process attempt accounting; see
    the module docstring for the semantics without it.
    """

    def __init__(
        self, faults: Sequence[FaultSpec], token_dir: Optional[str] = None
    ) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.token_dir = None if token_dir is None else str(token_dir)
        self._local_counts: Dict[int, int] = {}

    def _consume(self, spec_index: int, spec: FaultSpec) -> bool:
        """Claim one trigger of ``spec``; ``False`` once its budget is spent."""
        if spec.times < 0:
            return True
        if self.token_dir is None:
            used = self._local_counts.get(spec_index, 0)
            if used >= spec.times:
                return False
            self._local_counts[spec_index] = used + 1
            return True
        os.makedirs(self.token_dir, exist_ok=True)
        prefix = f"fault{spec_index}-"
        while True:
            used = sum(
                1 for name in os.listdir(self.token_dir) if name.startswith(prefix)
            )
            if used >= spec.times:
                return False
            token = os.path.join(self.token_dir, f"{prefix}{used}")
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue  # lost a race (speculative duplicate); re-count

    def apply(self, point_index: int, replication: int) -> None:
        """Trigger every armed fault bound to ``(point_index, replication)``.

        Called by the campaign's task wrapper in the executing process before
        the runner; raising or exiting here fails the attempt exactly like a
        runner bug or worker crash would.
        """
        for spec_index, spec in enumerate(self.faults):
            if spec.point_index != point_index or spec.replication != replication:
                continue
            if not self._consume(spec_index, spec):
                continue
            if spec.kind == "delay":
                time.sleep(spec.delay_s)
            elif spec.kind == "exception":
                raise InjectedFaultError(
                    f"injected runner exception at point {point_index}, "
                    f"replication {replication}"
                )
            else:  # crash
                os._exit(CRASH_EXIT_CODE)

    def __repr__(self) -> str:
        return (
            f"FaultPlan({len(self.faults)} faults, "
            f"token_dir={self.token_dir!r})"
        )

