"""Kernel hooks: the observability protocol of the simulation stack.

A :class:`SimHooks` instance is a passive observer with one method,
``record(kind, time_s=None, **fields)``, which the hot layers of the stack
call at well-defined points.  ``kind`` names the event and ``fields`` carry
its data; :data:`repro.utils.recorder.EVENT_SCHEMA` is the one list of the
kinds and of the fields each one carries:

* the **frame pipeline** (:class:`repro.simulation.dynamic.
  DynamicSystemSimulator`, the only layer that records stages) records
  ``run_start``/``run_end``, a ``stage_enter``/``stage_exit`` pair (with the
  stage's wall-clock ``elapsed_s``) around each of the nine stages of every
  frame, and one ``frame`` per scheduling frame;
* the **admission path** records every scheduling decision (``admission``:
  queue depth, grants, solver objective and optimality);
* the **campaign executors** (:mod:`repro.experiments.executors`) record
  task issue, completion, retry and quarantine, and the campaign engine
  records the replications it serves from another campaign's results
  (``task_shared``).

``time_s`` is *simulation* time; the executor events have none and pass
``None``.  The ``elapsed_s``/``duration_s``/``delay_s`` fields are
wall-clock durations.

The base class is a no-op, so installing ``SimHooks()`` observes nothing
and costs one method call per dispatch point (plus a clock read on each
side of a stage).  The hot paths default to ``hooks=None`` and guard every
dispatch with ``if hooks is not None``: the *default* frame loop pays one
helper call and one branch per stage and reads no clock, and the other
dispatch points pay one attribute load and branch.  What a no-op observer
adds to a frame is bench-gated (``benchmarks/bench_fleet.py`` through
``benchmarks/check_bench_regression.py``, budget ≤2 %).

:class:`repro.utils.recorder.EventRecorder` is itself a :class:`SimHooks`:
passing ``hooks=EventRecorder(sink)`` turns every dispatch into one
schema-versioned event.  Observers must never raise and must not mutate
simulation state: the layers call them mid-update and do not protect
themselves against observer exceptions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["SimHooks", "CompositeHooks", "StageTimingHooks", "resolve_hooks"]


class SimHooks:
    """No-op base class of the simulation observability protocol.

    Subclass and override :meth:`record`, picking out the kinds you care
    about.
    """

    def record(self, kind: str, time_s: Optional[float] = None, **fields) -> None:
        """Observe one event of ``kind`` at sim time ``time_s``."""


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

    def record(self, kind: str, time_s: Optional[float] = None, **fields) -> None:
        for child in self.children:
            child.record(kind, time_s, **fields)


class StageTimingHooks(SimHooks):
    """Accumulate per-stage wall time.

    :attr:`totals` maps stage name to accumulated wall-clock seconds over
    the run.  For a dynamic run the keys are the nine stages of
    :class:`~repro.simulation.dynamic.DynamicSystemSimulator`: ``voice``,
    ``arrivals``, ``bursts``, ``data_activity``, ``snapshot``,
    ``admission``, ``metrics``, ``mac`` and ``network``.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.frames: int = 0

    def record(self, kind: str, time_s: Optional[float] = None, **fields) -> None:
        if kind == "stage_exit":
            stage = fields["stage"]
            self.totals[stage] = self.totals.get(stage, 0.0) + fields["elapsed_s"]
        elif kind == "frame":
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
