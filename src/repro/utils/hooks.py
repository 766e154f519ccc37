"""Kernel hooks: the observability protocol of the simulation stack.

A :class:`SimHooks` instance is a passive observer that the hot layers of the
stack call into at well-defined points:

* the **frame pipeline** (:class:`repro.simulation.dynamic.
  DynamicSystemSimulator` and :meth:`repro.cdma.network.CdmaNetwork.advance`)
  reports per-stage enter/exit (with wall-clock stage timings), one ``frame``
  summary per scheduling frame and the run start/end;
* the **admission path** reports every scheduling decision (queue depth,
  grants, solver objective and optimality);
* the **campaign executors** (:mod:`repro.experiments.executors`) report task
  issue, completion, retry and quarantine, and the campaign engine reports
  the replications it serves from another campaign's results.

The base class is a complete no-op, so installing ``SimHooks()`` observes
nothing and costs one method call per dispatch point.  The hot paths guard
every dispatch with ``if hooks is not None`` and default to ``hooks=None``,
so the *default* configuration pays a single attribute load and branch — no
method call, no allocation (bench-gated by ``benchmarks/
check_bench_regression.py``, budget ≤2 %).

Hook methods must never raise and must not mutate simulation state: the
layers call them mid-update and do not protect themselves against observer
exceptions (an observer failure is a bug worth crashing on in tests, and the
recorder sinks are written to be non-raising in production).

See :mod:`repro.utils.recorder` for the hooks→structured-events bridge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["SimHooks", "CompositeHooks", "StageTimingHooks", "resolve_hooks"]


class SimHooks:
    """No-op base class of the simulation observability protocol.

    Subclass and override only the methods you care about; every method has
    an empty default body.  All ``time_s`` arguments are *simulation* time,
    all ``elapsed_s``/``duration_s``/``delay_s`` arguments are wall-clock
    durations.
    """

    # -- frame pipeline ----------------------------------------------------
    def run_start(self, time_s: float, **info) -> None:
        """A dynamic run started (``info``: frames, scheduler, ...)."""

    def run_end(self, time_s: float, **info) -> None:
        """A dynamic run finished."""

    def stage_enter(self, stage: str, time_s: float) -> None:
        """A named pipeline stage is about to run at sim time ``time_s``."""

    def stage_exit(self, stage: str, time_s: float, elapsed_s: float) -> None:
        """The stage finished after ``elapsed_s`` wall-clock seconds."""

    def frame(
        self, frame_index: int, time_s: float, pending_requests: int, active_bursts: int
    ) -> None:
        """Per-frame summary, emitted once per scheduling frame."""

    # -- admission path ----------------------------------------------------
    def admission(
        self,
        time_s: float,
        link: str,
        num_pending: int,
        num_granted: int,
        objective_value: float,
        optimal: bool,
    ) -> None:
        """One burst-admission decision on ``link`` (solver stats included)."""

    # -- campaign executors ------------------------------------------------
    def task_issued(self, key: str, attempt: int) -> None:
        """Task ``key`` (``point/replication``) was dispatched to a worker."""

    def task_completed(self, key: str, attempts: int, duration_s: float) -> None:
        """Task ``key`` completed successfully after ``attempts`` executions."""

    def task_retry(self, key: str, attempt: int, delay_s: float, reason: str) -> None:
        """Attempt ``attempt`` of task ``key`` failed; a retry is scheduled."""

    def task_quarantined(self, key: str, attempts: int, reason: str) -> None:
        """Task ``key`` exhausted its retries and was quarantined."""

    def task_shared(self, key: str, source: str) -> None:
        """Task ``key`` was served from the replications of campaign ``source``."""

    # -- swarm lifecycle (distributed executor) ----------------------------
    def worker_joined(self, worker_id: str) -> None:
        """Worker ``worker_id`` sent its first heartbeat (spawned or external)."""

    def worker_left(self, worker_id: str, reason: str) -> None:
        """Worker ``worker_id`` left the swarm (crash, shutdown, ...)."""

    def lease_granted(self, worker_id: str, attempt: str, num_tasks: int) -> None:
        """A lease of ``num_tasks`` tasks was issued to ``worker_id``."""

    def lease_expired(self, worker_id: str, attempt: str, reason: str) -> None:
        """Lease ``attempt`` was reclaimed; its tasks will be re-issued."""

    def work_stolen(self, key: str, from_worker: str, to_worker: str) -> None:
        """Task ``key`` was speculatively re-leased from a slow worker."""


class CompositeHooks(SimHooks):
    """Fan one dispatch point out to several :class:`SimHooks` instances.

    Children are called in registration order; the composite flattens nested
    composites so dispatch depth stays constant.
    """

    def __init__(self, children: Iterable[SimHooks]) -> None:
        flat: List[SimHooks] = []
        for child in children:
            if isinstance(child, CompositeHooks):
                flat.extend(child.children)
            else:
                flat.append(child)
        self.children: List[SimHooks] = flat

    # One explicit forwarder per protocol method: a __getattr__-based
    # forwarder would allocate a closure per dispatch, which the dispatch-
    # count tests (and the overhead budget) forbid.
    def run_start(self, time_s, **info):
        for child in self.children:
            child.run_start(time_s, **info)

    def run_end(self, time_s, **info):
        for child in self.children:
            child.run_end(time_s, **info)

    def stage_enter(self, stage, time_s):
        for child in self.children:
            child.stage_enter(stage, time_s)

    def stage_exit(self, stage, time_s, elapsed_s):
        for child in self.children:
            child.stage_exit(stage, time_s, elapsed_s)

    def frame(self, frame_index, time_s, pending_requests, active_bursts):
        for child in self.children:
            child.frame(frame_index, time_s, pending_requests, active_bursts)

    def admission(self, time_s, link, num_pending, num_granted, objective_value, optimal):
        for child in self.children:
            child.admission(
                time_s, link, num_pending, num_granted, objective_value, optimal
            )

    def task_issued(self, key, attempt):
        for child in self.children:
            child.task_issued(key, attempt)

    def task_completed(self, key, attempts, duration_s):
        for child in self.children:
            child.task_completed(key, attempts, duration_s)

    def task_retry(self, key, attempt, delay_s, reason):
        for child in self.children:
            child.task_retry(key, attempt, delay_s, reason)

    def task_quarantined(self, key, attempts, reason):
        for child in self.children:
            child.task_quarantined(key, attempts, reason)

    def task_shared(self, key, source):
        for child in self.children:
            child.task_shared(key, source)

    def worker_joined(self, worker_id):
        for child in self.children:
            child.worker_joined(worker_id)

    def worker_left(self, worker_id, reason):
        for child in self.children:
            child.worker_left(worker_id, reason)

    def lease_granted(self, worker_id, attempt, num_tasks):
        for child in self.children:
            child.lease_granted(worker_id, attempt, num_tasks)

    def lease_expired(self, worker_id, attempt, reason):
        for child in self.children:
            child.lease_expired(worker_id, attempt, reason)

    def work_stolen(self, key, from_worker, to_worker):
        for child in self.children:
            child.work_stolen(key, from_worker, to_worker)


class StageTimingHooks(SimHooks):
    """Accumulate per-stage wall time.

    :attr:`totals` maps stage name to accumulated wall-clock seconds over
    the run (for a dynamic run the keys are ``{"voice", "arrivals",
    "data_activity", "mac", "mobility"}``).
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.frames: int = 0

    def stage_exit(self, stage: str, time_s: float, elapsed_s: float) -> None:
        self.totals[stage] = self.totals.get(stage, 0.0) + elapsed_s

    def frame(self, frame_index, time_s, pending_requests, active_bursts) -> None:
        self.frames += 1

    def per_frame_ms(self) -> Dict[str, float]:
        """Mean per-frame stage cost in milliseconds (empty before a run)."""
        if self.frames == 0:
            return {}
        return {
            name: 1000.0 * total / self.frames for name, total in self.totals.items()
        }


def resolve_hooks(*candidates: Optional[SimHooks]) -> Optional[SimHooks]:
    """Combine optional hooks into one dispatch target (``None`` if all are).

    A single non-``None`` candidate is returned as-is (no composite
    indirection on the common path); several are wrapped in a
    :class:`CompositeHooks`.
    """
    present = [hooks for hooks in candidates if hooks is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return CompositeHooks(present)
