"""Hook-protocol and dispatch-count battery.

Certifies the two sides of the observability contract:

* **hot path untouched** — with the default ``hooks=None`` the dynamic
  simulator never calls a hook method, never touches the recorder, and
  never enters the instrumented stage wrapper (the fast path stays
  allocation-free);
* **full visibility when installed** — a hooked run emits an exact,
  deterministic number of events per frame, and every executor reports
  issue / retry / quarantine / completion.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.executors import (
    ResilientExecutor,
    SerialExecutor,
    TaskSpec,
)
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.swarm import SwarmExecutor
from repro.mac import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from repro.utils.hooks import (
    CompositeHooks,
    SimHooks,
    StageTimingHooks,
    resolve_hooks,
)
from repro.utils.recorder import EVENT_SCHEMA, EventRecorder, MemorySink

STAGES = ("voice", "arrivals", "data_activity", "mac", "mobility")


def _two_frame_scenario(**overrides) -> ScenarioConfig:
    """Two 20 ms frames, no warmup — the smallest scenario with admissions."""
    defaults = dict(
        duration_s=0.04,
        warmup_s=0.0,
        traffic=TrafficConfig(
            # Short reading times: the second frame already holds requests.
            mean_reading_time_s=0.1,
            packet_call_min_bits=24_000,
            packet_call_max_bits=200_000,
        ),
    )
    defaults.update(overrides)
    return ScenarioConfig.fast_test(**defaults)


class _CountingHooks(SimHooks):
    """Counts every hook invocation by event kind."""

    def __init__(self):
        self.calls = {}
        self.stages = []

    def record(self, kind, time_s=None, **fields):
        self.calls[kind] = self.calls.get(kind, 0) + 1
        if kind == "stage_enter":
            self.stages.append(fields["stage"])


# ---------------------------------------------------------------------------
# Protocol plumbing
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_base_hooks_are_noops(self):
        hooks = SimHooks()
        for kind, fields in EVENT_SCHEMA.items():
            assert hooks.record(kind, 0.0, **dict.fromkeys(fields, 0)) is None
        assert hooks.record("task_issued", key="0/0", attempt=1) is None

    def test_composite_fans_out_in_order(self):
        first, second = _CountingHooks(), _CountingHooks()
        composite = CompositeHooks([first, second])
        composite.record("frame", 0.0, frame_index=0, pending_requests=1, active_bursts=2)
        composite.record("stage_enter", 0.0, stage="mac")
        for hooks in (first, second):
            assert hooks.calls == {"frame": 1, "stage_enter": 1}
            assert hooks.stages == ["mac"]

    def test_composite_flattens_nested_composites(self):
        a, b, c = _CountingHooks(), _CountingHooks(), _CountingHooks()
        nested = CompositeHooks([CompositeHooks([a, b]), c])
        assert list(nested.children) == [a, b, c]

    def test_resolve_hooks(self):
        only = SimHooks()
        assert resolve_hooks(None, None) is None
        assert resolve_hooks(None, only, None) is only
        both = resolve_hooks(only, SimHooks())
        assert isinstance(both, CompositeHooks)
        assert len(both.children) == 2

    def test_stage_timing_hooks_accumulate(self):
        hooks = StageTimingHooks()
        hooks.record("stage_enter", 0.0, stage="voice")
        hooks.record("stage_exit", 0.0, stage="voice", elapsed_s=0.25)
        hooks.record("stage_exit", 0.02, stage="voice", elapsed_s=0.75)
        hooks.record("stage_exit", 0.02, stage="mac", elapsed_s=0.5)
        hooks.record("frame", 0.0, frame_index=0, pending_requests=0, active_bursts=0)
        hooks.record("frame", 0.02, frame_index=1, pending_requests=0, active_bursts=0)
        hooks.record("admission", 0.02, link="forward", num_pending=1, num_granted=1,
                     objective_value=0.0, optimal=True)
        assert hooks.totals == {"voice": 1.0, "mac": 0.5}
        assert hooks.frames == 2
        per_frame = hooks.per_frame_ms()
        assert per_frame["voice"] == pytest.approx(500.0)
        assert per_frame["mac"] == pytest.approx(250.0)


# ---------------------------------------------------------------------------
# Dynamic simulator: hot path stays hook-free by default
# ---------------------------------------------------------------------------
class TestDefaultPathIsHookFree:
    def test_no_hook_or_recorder_dispatch(self, monkeypatch):
        calls = {"hooks": 0, "record": 0, "staged": 0}

        def forbid(bucket):
            def _touch(*args, **kwargs):
                calls[bucket] += 1
                raise AssertionError(f"{bucket} touched on the default path")
            return _touch

        # Any SimHooks dispatch or recorder call on the default path is a bug.
        for name in [n for n in dir(SimHooks) if not n.startswith("_")]:
            monkeypatch.setattr(SimHooks, name, forbid("hooks"))
        monkeypatch.setattr(EventRecorder, "record", forbid("record"))
        monkeypatch.setattr(
            DynamicSystemSimulator, "_hooked_stage", forbid("staged")
        )

        sim = DynamicSystemSimulator(_two_frame_scenario(), JabaSdScheduler("J1"))
        assert sim.hooks is None
        result = sim.run()
        assert calls == {"hooks": 0, "record": 0, "staged": 0}
        assert result.duration_s > 0.0


# ---------------------------------------------------------------------------
# Dynamic simulator: exact event counts when hooks are installed
# ---------------------------------------------------------------------------
class TestInstalledHookCounts:
    def test_two_frame_run_emits_exact_counts(self):
        sink = MemorySink()
        hooks = EventRecorder(sink)
        scenario = _two_frame_scenario()
        sim = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"), hooks=hooks)
        sim.run()

        counts = sink.by_kind()
        frames = 2
        assert counts["run_start"] == 1
        assert counts["run_end"] == 1
        assert counts["frame"] == frames
        # Five pipeline stages per frame: voice, arrivals, data_activity,
        # mac and (inside CdmaNetwork.advance) mobility.
        assert counts["stage_enter"] == len(STAGES) * frames
        assert counts["stage_exit"] == len(STAGES) * frames
        # warmup_s=0 means every admission decision is also a metrics grant
        # decision, so the metrics counter cross-checks the event count.
        assert counts["admission"] == sim.metrics.grant_decisions == 2

    def test_stage_names_cover_the_pipeline_in_order(self):
        hooks = _CountingHooks()
        sim = DynamicSystemSimulator(
            _two_frame_scenario(), JabaSdScheduler("J1"), hooks=hooks
        )
        sim.run()
        assert hooks.stages[: len(STAGES)] == list(STAGES)
        assert set(hooks.stages) == set(STAGES)

    def test_run_start_carries_run_metadata(self):
        sink = MemorySink()
        sim = DynamicSystemSimulator(
            _two_frame_scenario(),
            JabaSdScheduler("J1"),
            hooks=EventRecorder(sink),
        )
        sim.run()
        start = next(e for e in sink.events if e["kind"] == "run_start")
        assert start["frames"] == 2
        assert "J1" in start["scheduler"]
        assert "batched_fleet" not in start


# ---------------------------------------------------------------------------
# Executor task hooks
# ---------------------------------------------------------------------------
def _hook_execute(payload):
    plan, point_index, replication, value = payload
    plan.apply(point_index, replication)
    return {"v": float(value)}


class _KeyedTaskHooks(SimHooks):
    def __init__(self):
        self.issued = []
        self.quarantined = []

    def record(self, kind, time_s=None, **fields):
        if kind == "task_issued":
            self.issued.append(fields["key"])
        elif kind == "task_quarantined":
            self.quarantined.append((fields["key"], fields["attempts"]))


class TestExecutorHooks:
    def test_serial_executor_reports_issue_and_completion(self):
        executor = SerialExecutor()
        hooks = _CountingHooks()
        executor.hooks = hooks
        tasks = [
            TaskSpec(point_index=0, replication=rep,
                     payload=(FaultPlan([]), 0, rep, rep))
            for rep in range(3)
        ]
        outcomes = list(executor.run(_hook_execute, tasks))
        assert len(outcomes) == 3
        assert hooks.calls["task_issued"] == 3
        assert hooks.calls["task_completed"] == 3

    def test_resilient_executor_reports_retry_and_quarantine(self, tmp_path):
        # Replication 0 fails once then succeeds (one retry); replication 1
        # fails forever (quarantined after max_retries).
        plan = FaultPlan(
            [
                FaultSpec(0, 0, "exception", times=1),
                FaultSpec(0, 1, "exception", times=10),
            ],
            token_dir=tmp_path,
        )
        executor = ResilientExecutor(workers=2, max_retries=2,
                                     backoff_base_s=0.01)
        hooks = _CountingHooks()
        executor.hooks = hooks
        tasks = [
            TaskSpec(point_index=0, replication=rep,
                     payload=(plan, 0, rep, rep))
            for rep in range(2)
        ]
        outcomes = {o.task.replication: o for o in
                    executor.run(_hook_execute, tasks)}
        assert outcomes[0].metrics == {"v": 0.0}
        assert outcomes[1].metrics is None
        # rep 0: attempts 1 (fails) + 2 (succeeds); rep 1: attempts 1..3.
        assert hooks.calls["task_issued"] == 5
        assert hooks.calls["task_completed"] == 1
        assert hooks.calls["task_retry"] == 3
        assert hooks.calls["task_quarantined"] == 1

    @pytest.mark.parametrize(
        "make_executor",
        [
            lambda: ResilientExecutor(workers=2, max_retries=2, backoff_base_s=0.01),
            lambda: SwarmExecutor(workers=2, max_retries=2, backoff_base_s=0.01,
                                  batch_size=1, poll_interval_s=0.005),
        ],
        ids=["resilient", "swarm"],
    )
    def test_quarantine_counts_executions(self, tmp_path, make_executor):
        plan = FaultPlan([FaultSpec(0, 1, "exception", times=-1)],
                         token_dir=tmp_path)
        executor = make_executor()
        hooks = _KeyedTaskHooks()
        executor.hooks = hooks
        tasks = [
            TaskSpec(point_index=0, replication=rep,
                     payload=(plan, 0, rep, rep))
            for rep in range(2)
        ]
        outcomes = {o.task.replication: o for o in
                    executor.run(_hook_execute, tasks)}
        assert outcomes[1].metrics is None
        executions = hooks.issued.count("0/1")
        assert executions == 3  # max_retries + 1
        assert hooks.quarantined == [("0/1", executions)]
        assert outcomes[1].attempts == executions


# ---------------------------------------------------------------------------
# Overhead sanity (the hard gate lives in benchmarks/check_bench_regression)
# ---------------------------------------------------------------------------
class TestOverheadSanity:
    def test_noop_hooks_do_not_blow_up_runtime(self):
        scenario = ScenarioConfig.fast_test(duration_s=0.2, warmup_s=0.0)

        def run_once(hooks):
            sim = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"),
                                         hooks=hooks)
            start = time.perf_counter()
            sim.run()
            return time.perf_counter() - start

        run_once(None)  # warm caches
        baseline = min(run_once(None) for _ in range(3))
        hooked = min(run_once(SimHooks()) for _ in range(3))
        # Generous CI-safe sanity bound; the 2% budget is bench-gated.
        assert hooked < baseline * 3.0 + 0.05
