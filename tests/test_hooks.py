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
from repro.utils.recorder import EventRecorder, MemorySink, RecorderHooks

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
    """Counts every hook invocation by method name."""

    def __init__(self):
        self.calls = {}
        self.stages = []

    def _bump(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def run_start(self, time_s, **info):
        self._bump("run_start")

    def run_end(self, time_s, **info):
        self._bump("run_end")

    def stage_enter(self, stage, time_s):
        self._bump("stage_enter")
        self.stages.append(stage)

    def stage_exit(self, stage, time_s, elapsed_s):
        self._bump("stage_exit")

    def frame(self, frame_index, time_s, pending_requests, active_bursts):
        self._bump("frame")

    def admission(self, time_s, link, num_pending, num_granted,
                  objective_value, optimal):
        self._bump("admission")

    def task_issued(self, key, attempt):
        self._bump("task_issued")

    def task_completed(self, key, attempts, duration_s):
        self._bump("task_completed")

    def task_retry(self, key, attempt, delay_s, reason):
        self._bump("task_retry")

    def task_quarantined(self, key, attempts, reason):
        self._bump("task_quarantined")


# ---------------------------------------------------------------------------
# Protocol plumbing
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_base_hooks_are_noops(self):
        hooks = SimHooks()
        hooks.run_start(0.0, frames=1)
        hooks.run_end(0.0)
        hooks.stage_enter("voice", 0.0)
        hooks.stage_exit("voice", 0.0, 1e-4)
        hooks.frame(0, 0.0, 0, 0)
        hooks.admission(0.0, "forward", 1, 1, 0.0, True)
        hooks.task_issued("0/0", 1)
        hooks.task_completed("0/0", 1, 0.1)
        hooks.task_retry("0/0", 1, 0.5, "x")
        hooks.task_quarantined("0/0", 2, "x")

    def test_composite_fans_out_in_order(self):
        first, second = _CountingHooks(), _CountingHooks()
        composite = CompositeHooks([first, second])
        composite.frame(0, 0.0, 1, 2)
        composite.stage_enter("mac", 0.0)
        for hooks in (first, second):
            assert hooks.calls == {"frame": 1, "stage_enter": 1}

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
        hooks.stage_enter("voice", 0.0)
        hooks.stage_exit("voice", 0.0, 0.25)
        hooks.stage_exit("voice", 0.02, 0.75)
        hooks.stage_exit("mac", 0.02, 0.5)
        hooks.frame(0, 0.0, 0, 0)
        hooks.frame(1, 0.02, 0, 0)
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

        # Any SimHooks method or recorder call on the default path is a bug.
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
        hooks = RecorderHooks(EventRecorder(sink))
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
            hooks=RecorderHooks(EventRecorder(sink)),
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

    def task_issued(self, key, attempt):
        self.issued.append(key)

    def task_quarantined(self, key, attempts, reason):
        self.quarantined.append((key, attempts))


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
