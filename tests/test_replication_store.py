"""One replication, many campaigns: the process-wide replication store.

A replication is a pure function of its runner, its point and its seed-tree
coordinates, so a campaign is served the replications another campaign of
the same process computed.  Every test starts from an empty store
(``tests/conftest.py``).
"""

import json

import pytest

from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import (
    Campaign,
    clear_shared_replications,
    rng_for_leaf,
)
from repro.experiments.capacity import run_capacity
from repro.experiments.delay_vs_load import (
    build_delay_campaign,
    run_admission_statistics,
    run_delay_vs_load,
)
from repro.experiments.executors import ResilientExecutor
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.objectives_tradeoff import (
    build_objectives_campaign,
    run_objectives_tradeoff,
)
from repro.simulation.scenario import ScenarioConfig
from repro.utils.hooks import CompositeHooks, SimHooks
from repro.utils.recorder import (
    EventRecorder,
    MemorySink,
    read_jsonl,
    validate_event,
)

SCHEDULERS = {"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"}
ALL_FOUR = ["0/0", "0/1", "1/0", "1/1"]


def tiny_scenario():
    return ScenarioConfig.fast_test(duration_s=1.0, warmup_s=0.25, seed=5)


_EXECUTED = []
_REAL_EXECUTE = campaign_module._execute_task


def _counting_execute(payload):
    _EXECUTED.append((payload[3], payload[4]))
    return _REAL_EXECUTE(payload)


@pytest.fixture
def executed(monkeypatch):
    """``(point, replication)`` coordinates the serial executor really ran."""
    _EXECUTED.clear()
    monkeypatch.setattr(campaign_module, "_execute_task", _counting_execute)
    return _EXECUTED


def table(result):
    # repr keeps NaN cells comparable.
    return result.experiment_id, result.title, repr(result.records), result.notes


def alone(run):
    """The table ``run()`` gives when computed by itself, on an empty store."""
    clear_shared_replications()
    return table(run())


def _toy_runner(params, seed):
    """Cheap replication that honours antithetic leaves."""
    draws = rng_for_leaf(seed).random(64)
    return {"mean": float(draws.mean()) + float(params["offset"])}


def _factory():
    return None


def toy(name, replications=2, **kwargs):
    return Campaign(
        name,
        _toy_runner,
        [{"offset": 0.0}, {"offset": 1.0}],
        replications=replications,
        root_seed=9,
        **kwargs,
    )


def replications(result):
    return [sorted(point.replications.items()) for point in result.points]


class _SharingHooks(SimHooks):
    def __init__(self):
        self.shared = []
        self.issued = []

    def record(self, kind, time_s=None, **fields):
        if kind == "task_shared":
            self.shared.append((fields["key"], fields["source"]))
        elif kind == "task_issued":
            self.issued.append(fields["key"])


class TestCrossExperimentHits:
    def test_capacity_after_delay_executes_nothing(self, executed):
        scenario = tiny_scenario()

        def capacity():
            return run_capacity(
                loads=[2, 3], scenario=scenario, scheduler_factories=SCHEDULERS
            )

        run_delay_vs_load(
            loads=[2, 3], scenario=scenario, scheduler_factories=SCHEDULERS,
            num_seeds=2,
        )
        executed.clear()
        shared = table(capacity())
        assert executed == []
        assert shared == alone(capacity)

    def test_admission_statistics_after_delay_executes_nothing(self, executed):
        scenario = tiny_scenario()

        def admission():
            return run_admission_statistics(
                load=3, scenario=scenario, scheduler_factories=SCHEDULERS,
                num_seeds=2,
            )

        run_delay_vs_load(
            loads=[2, 3], scenario=scenario, scheduler_factories=SCHEDULERS,
            num_seeds=2,
        )
        executed.clear()
        shared = table(admission())
        assert executed == []
        assert shared == alone(admission)

    def test_lambda_zero_point_is_the_delay_j1_point(self):
        scenario = tiny_scenario()
        f5 = build_objectives_campaign(
            penalty_scales=[0.0, 2.0], load=3, scenario=scenario
        )
        f2f3 = build_delay_campaign(
            loads=[3], scenario=scenario, scheduler_factories=SCHEDULERS
        )
        assert f2f3.points[0]["scheduler"] == "JABA-SD(J1)"
        assert f5.points[0] == f2f3.points[0]
        assert (f5.root_seed, f5.seed_groups[0]) == (
            f2f3.root_seed,
            f2f3.seed_groups[0],
        )
        # lambda > 0 keeps its MAC override.
        mac = f5.points[1]["scenario"].system.mac
        assert (mac.delay_penalty_scale, mac.delay_forgetting_factor) == (2.0, 0.2)

    def test_objectives_after_delay_executes_only_positive_lambdas(self, executed):
        scenario = tiny_scenario()

        def objectives():
            return run_objectives_tradeoff(
                penalty_scales=[0.0, 1.0, 2.0], load=3, scenario=scenario,
                num_seeds=2,
            )

        run_delay_vs_load(
            loads=[3], scenario=scenario, scheduler_factories=SCHEDULERS,
            num_seeds=2,
        )
        executed.clear()
        shared = table(objectives())
        assert sorted(executed) == [(1, 0), (1, 1), (2, 0), (2, 1)]
        assert shared == alone(objectives)


class TestReportShapedGrids:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_table_equals_its_standalone_run(self, workers):
        # The full report's shape at tiny durations: T2 is F2/F3's column at
        # one load, T1 adds one heavier load, F5's lambda = 0 is F2/F3's J1.
        scenario = tiny_scenario()
        common = dict(scenario=scenario, num_seeds=2, workers=workers)
        experiments = [
            lambda: run_delay_vs_load(
                loads=[2, 3], scheduler_factories=SCHEDULERS, **common
            ),
            lambda: run_admission_statistics(
                load=3, scheduler_factories=SCHEDULERS, **common
            ),
            lambda: run_capacity(
                loads=[2, 3, 4], scheduler_factories=SCHEDULERS, **common
            ),
            lambda: run_objectives_tradeoff(
                penalty_scales=[0.0, 1.0], load=3, **common
            ),
        ]
        shared = [table(run()) for run in experiments]
        assert shared == [alone(run) for run in experiments]


class TestOwnNameRule:
    def test_rerun_of_same_campaign_recomputes(self, executed):
        first = toy("a").run()
        executed.clear()
        again = toy("a").run()
        assert again.shared_replications == 0
        assert len(executed) == 4
        assert replications(again) == replications(first)

    def test_differently_named_campaign_is_served_everything(self, executed):
        first = toy("a").run()
        executed.clear()
        hooks, progress = _SharingHooks(), []
        served = toy("b").run(
            hooks=hooks, progress=lambda done, total: progress.append((done, total))
        )
        assert executed == []
        assert served.shared_replications == 4
        assert served.reused_replications == 0
        assert hooks.issued == []
        assert sorted(hooks.shared) == [(key, "a") for key in ALL_FOUR]
        assert progress == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert replications(served) == replications(first)
        # An entry keeps its producer: "a" is still never served its own.
        assert toy("a").run().shared_replications == 0
        assert len(executed) == 4

    def test_served_metrics_are_copies(self):
        first = toy("a").run()
        first.points[0].replications[0]["mean"] = -1.0
        served = toy("b").run()
        served.points[0].replications[1]["mean"] = -2.0
        third = toy("c").run()
        assert third.points[0].replications[0]["mean"] != -1.0
        assert third.points[0].replications[1]["mean"] != -2.0


class TestNeverShared:
    def test_plain_and_antithetic_share_no_odd_replication(self, executed):
        for first, second in (({}, {"antithetic": True}), ({"antithetic": True}, {})):
            clear_shared_replications()
            a = toy("a", **first).run()
            executed.clear()
            b = toy("b", **second).run()
            # Even replications run on the plain leaf in both designs; the
            # odd ones are mirrored in one design only.
            assert sorted(executed) == [(0, 1), (1, 1)]
            assert b.shared_replications == 2
            for point_a, point_b in zip(a.points, b.points):
                assert point_b.replications[0] == point_a.replications[0]
                assert point_b.replications[1] != point_a.replications[1]

    def test_other_seed_tree_coordinates_are_not_served(self, executed):
        toy("a").run()
        executed.clear()
        other_root = Campaign(
            "b", _toy_runner, [{"offset": 0.0}, {"offset": 1.0}],
            replications=2, root_seed=10,
        ).run()
        swapped_groups = toy("c", seed_groups=[1, 0]).run()
        assert other_root.shared_replications == 0
        assert swapped_groups.shared_replications == 0
        assert len(executed) == 8

    def test_point_with_callable_is_never_stored_or_served(self, executed):
        points = [{"offset": 0.0, "scheduler_spec": _factory}]
        Campaign("a", _toy_runner, points, replications=2, root_seed=9).run()
        executed.clear()
        served = Campaign("b", _toy_runner, points, replications=2, root_seed=9).run()
        assert served.shared_replications == 0
        assert len(executed) == 2
        assert not campaign_module._SHARED

    def test_runner_not_importable_by_name_is_never_shared(self):
        # Closures of one factory share a qualified name.
        def make(value):
            def runner(params, seed):
                return {"value": value}

            return runner

        Campaign("a", make(1.0), [{"offset": 0.0}]).run()
        other = Campaign("b", make(2.0), [{"offset": 0.0}]).run()
        assert other.shared_replications == 0
        assert other.points[0].replications[0] == {"value": 2.0}

    def test_quarantined_replication_is_not_stored(self, tmp_path):
        plan = FaultPlan([FaultSpec(0, 1, "exception", times=-1)], token_dir=tmp_path)
        executor = ResilientExecutor(workers=1, max_retries=0, backoff_base_s=0.01)
        poisoned = toy("a").run(executor=executor, fault_plan=plan)
        assert poisoned.failed_replications == 1
        hooks = _SharingHooks()
        clean = toy("b").run(hooks=hooks)
        assert sorted(key for key, _ in hooks.shared) == ["0/0", "1/0", "1/1"]
        assert hooks.issued == ["0/1"]
        assert clean.failed_replications == 0

    def test_failed_run_publishes_nothing(self, executed, monkeypatch):
        def crash_second(payload):
            if payload[3:5] == (1, 0):
                raise RuntimeError("simulated crash")
            return _REAL_EXECUTE(payload)

        monkeypatch.setattr(campaign_module, "_execute_task", crash_second)
        with pytest.raises(RuntimeError, match="simulated crash"):
            toy("a").run()
        assert not campaign_module._SHARED


def _wal_keys(path):
    keys = []
    with open(path, "rb") as handle:
        for line in handle:
            record = json.loads(line.split(b" ", 1)[1])
            if "key" in record:
                keys.append(record["key"])
    return sorted(keys)


class TestCheckpointsAndStopping:
    def test_hits_land_in_the_wal(self, tmp_path):
        toy("a").run()
        path = str(tmp_path / "ckpt.json")
        seen = []
        toy("b").run(
            checkpoint_path=path,
            progress=lambda done, total: seen.append(_wal_keys(path + ".wal")),
        )
        assert seen[0] == ["0/0"]
        assert seen[-1] == ALL_FOUR
        resumed = toy("b").run(checkpoint_path=path)
        assert (resumed.reused_replications, resumed.shared_replications) == (4, 0)

    def test_killed_and_resumed_capacity_is_bit_identical(
        self, tmp_path, executed, monkeypatch
    ):
        scenario = tiny_scenario()
        path = str(tmp_path / "t1.json")

        def capacity(checkpoint_path=None):
            return run_capacity(
                loads=[2, 3, 4], scenario=scenario, scheduler_factories=SCHEDULERS,
                checkpoint_path=checkpoint_path,
            )

        run_delay_vs_load(
            loads=[2, 3], scenario=scenario, scheduler_factories=SCHEDULERS
        )

        def crash(payload):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(campaign_module, "_execute_task", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            capacity(path)
        with open(path) as handle:
            # The four served load-2/3 replications survived the crash.
            assert sorted(json.load(handle)["completed"]) == ["0/0", "1/0", "2/0", "3/0"]
        monkeypatch.setattr(campaign_module, "_execute_task", _counting_execute)
        executed.clear()
        resumed = table(capacity(path))
        assert sorted(executed) == [(4, 0), (5, 0)]
        assert resumed == alone(capacity)

    def test_sequential_stopping_walks_the_same_waves_with_hits(self, executed):
        def sequential():
            return toy(
                "b", ci_target=0.02, ci_metric="mean", max_replications=8
            ).run()

        toy("a").run()  # the first wave of "b"
        executed.clear()
        served = sequential()
        assert served.shared_replications == 4
        assert executed and all(rep >= 2 for _, rep in executed)
        clear_shared_replications()
        fresh = sequential()
        assert served.waves > 1
        assert (served.waves, served.realised_replications) == (
            fresh.waves,
            fresh.realised_replications,
        )
        assert replications(served) == replications(fresh)


class TestTracing:
    def test_hits_write_no_replication_trace(self, tmp_path):
        toy("a").run()
        trace_dir = tmp_path / "traces"
        toy("b", replications=3).run(trace_dir=str(trace_dir))
        # Replications 0-1 were served; only replication 2 ran and traced.
        assert sorted(path.name for path in trace_dir.glob("point*_rep*.jsonl")) == [
            "point000_rep002.jsonl",
            "point001_rep002.jsonl",
        ]
        events = read_jsonl(str(trace_dir / "campaign.jsonl"))
        assert all(validate_event(event) == [] for event in events)
        shared = [event for event in events if event["kind"] == "task_shared"]
        assert sorted(event["key"] for event in shared) == ALL_FOUR
        assert {event["source"] for event in shared} == {"a"}
        issued = [event["key"] for event in events if event["kind"] == "task_issued"]
        assert sorted(issued) == ["0/2", "1/2"]
        assert events[-1]["kind"] == "campaign_end"
        assert events[-1]["shared"] == 4

    def test_hook_bridge_forwards_task_shared(self):
        sink, counter = MemorySink(), _SharingHooks()
        hooks = CompositeHooks([EventRecorder(sink), counter])
        hooks.record("task_shared", key="0/1", source="F2F3-delay-vs-load")
        assert counter.shared == [("0/1", "F2F3-delay-vs-load")]
        (event,) = sink.events
        assert validate_event(event) == []
        assert (event["kind"], event["key"], event["source"]) == (
            "task_shared",
            "0/1",
            "F2F3-delay-vs-load",
        )
        SimHooks().record("task_shared", key="0/1", source="x")  # the base hook is a no-op
