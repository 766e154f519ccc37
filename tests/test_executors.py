"""Resilient executor and attempt ledger: retry/backoff, respawn, speculation, chaos determinism."""

import multiprocessing as mp
import signal
import time

import numpy as np
import pytest

from repro.experiments.campaign import Campaign
from repro.experiments.executors import (
    MAX_REISSUES,
    STRAGGLER_FLOOR_S,
    AttemptLedger,
    ExecutorStats,
    ResilientExecutor,
    SerialExecutor,
    TaskSpec,
    retry_backoff_delay,
)
from repro.experiments.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.utils.hooks import SimHooks


def _toy_runner(params, seed):
    rng = np.random.default_rng(seed)
    draws = rng.random(128)
    return {
        "mean_draw": float(draws.mean()) + float(params["offset"]),
        "max_draw": float(draws.max()),
    }


def toy_campaign(replications=3, root_seed=123):
    points = [{"offset": 0.0}, {"offset": 10.0}, {"offset": 20.0}]
    return Campaign(
        "toy", _toy_runner, points, replications=replications, root_seed=root_seed
    )


def _replications(outcome):
    return [sorted(point.replications.items()) for point in outcome.points]


def _fault_execute(payload):
    """Executor-level trampoline: apply a fault plan, then return metrics."""
    plan, point_index, replication, value = payload
    plan.apply(point_index, replication)
    return {"v": float(value)}


def _slow_fault_execute(payload):
    """Like :func:`_fault_execute` but each task takes a beat to finish."""
    plan, point_index, replication, value = payload
    plan.apply(point_index, replication)
    time.sleep(0.2)
    return {"v": float(value)}


class TestRetryDelay:
    def test_deterministic(self):
        for task_index in range(5):
            for retry in range(1, 5):
                assert retry_backoff_delay(
                    task_index, retry, base_s=0.25, seed=7
                ) == retry_backoff_delay(task_index, retry, base_s=0.25, seed=7)

    def test_seed_and_task_change_the_jitter(self):
        base = retry_backoff_delay(0, 1, base_s=0.25, seed=0)
        assert base != retry_backoff_delay(0, 1, base_s=0.25, seed=1)
        assert base != retry_backoff_delay(1, 1, base_s=0.25, seed=0)

    def test_retry_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            retry_backoff_delay(0, 0, base_s=0.25, seed=0)


class TestValidation:
    def test_executor_parameters(self):
        with pytest.raises(ValueError):
            ResilientExecutor(workers=0)
        with pytest.raises(ValueError):
            ResilientExecutor(workers=1, task_timeout_s=0.0)
        with pytest.raises(ValueError):
            ResilientExecutor(workers=1, max_retries=-1)
        with pytest.raises(ValueError):
            ResilientExecutor(workers=1, straggler_factor=1.0)

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(0, 0, "meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec(-1, 0, "exception")
        with pytest.raises(ValueError):
            FaultSpec(0, 0, "delay", delay_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec(0, 0, "exception", times=0)

    def test_task_key(self):
        assert TaskSpec(point_index=3, replication=7, payload=None).key == "3/7"

    def test_campaign_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            toy_campaign().run(executor="quantum")
        with pytest.raises(ValueError, match="executor"):
            toy_campaign().run(executor="pool")


class _LedgerHooks(SimHooks):
    def __init__(self):
        self.completed = []

    def record(self, kind, time_s=None, **fields):
        if kind == "task_completed":
            self.completed.append((fields["key"], fields["attempts"]))


def make_ledger(num_tasks=1, max_retries=2, straggler_factor=4.0, hooks=None):
    tasks = [TaskSpec(point_index=0, replication=rep, payload=None) for rep in range(num_tasks)]
    return AttemptLedger(
        tasks,
        max_retries=max_retries,
        backoff_base_s=0.5,
        backoff_seed=0,
        straggler_factor=straggler_factor,
        stats=ExecutorStats(),
        hooks=hooks,
    )


class TestAttemptLedger:
    """The ledger driven by hand: no processes, no transport."""

    def test_retry_after_backoff_then_quarantine(self):
        ledger = make_ledger(max_retries=1)
        assert ledger.take_ripe(time.monotonic(), 4) == [0]
        ledger.issued(0)
        ledger.failed(0, "first failure")
        assert ledger.stats.retries == 1
        now = time.monotonic()
        assert ledger.take_ripe(now, 4) == []  # backing off 0.5-0.625 s
        assert 0.0 < ledger.sleep_s(now, 10.0) <= 0.5 * 1.25
        assert ledger.take_ripe(now + 1.0, 4) == [0]
        ledger.issued(0)
        ledger.failed(0, "second failure")
        [outcome] = ledger.drain()
        assert outcome.metrics is None
        assert outcome.error == "second failure"
        assert outcome.attempts == 2
        assert ledger.stats.quarantined == 1
        assert ledger.unfinished == 0

    def test_quarantine_waits_for_a_running_copy(self):
        for last_copy_succeeds in (False, True):
            ledger = make_ledger(max_retries=0)
            ledger.take_ripe(time.monotonic(), 1)
            ledger.issued(0)
            ledger.issued(0)  # a straggler copy
            ledger.failed(0, "first copy failed")
            assert ledger.drain() == [] and ledger.unfinished == 1
            if last_copy_succeeds:
                ledger.succeeded(0, {"v": 1.0}, 0.1)
                [outcome] = ledger.drain()
                assert outcome.metrics == {"v": 1.0}
                assert ledger.stats.quarantined == 0
            else:
                ledger.lost(0, "copy lost")
                [outcome] = ledger.drain()
                assert outcome.metrics is None and outcome.error == "copy lost"
                assert ledger.stats.quarantined == 1

    def test_lost_attempts_spare_the_retry_budget_until_max_reissues(self):
        ledger = make_ledger(max_retries=0)
        for _ in range(MAX_REISSUES + 1):
            assert ledger.drain() == []
            assert ledger.take_ripe(time.monotonic(), 1) == [0]  # at once
            ledger.issued(0)
            ledger.lost(0, "lease expired")
        assert ledger.stats.retries == 0
        [outcome] = ledger.drain()
        assert outcome.metrics is None
        assert f"lost {MAX_REISSUES} times" in outcome.error
        assert outcome.attempts == MAX_REISSUES + 1
        assert ledger.stats.quarantined == 1

    def test_first_completion_wins(self):
        hooks = _LedgerHooks()
        ledger = make_ledger(hooks=hooks)
        ledger.take_ripe(time.monotonic(), 1)
        ledger.issued(0)
        ledger.issued(0)
        ledger.succeeded(0, {"v": 1.0}, 0.1)
        ledger.succeeded(0, {"v": 1.0}, 0.2)  # the copy: discarded
        ledger.failed(0, "late failure", live=False)  # a written-off attempt
        ledger.stale_report()  # an earlier run's attempt
        [outcome] = ledger.drain()
        assert outcome.metrics == {"v": 1.0} and outcome.duration_s == 0.1
        assert hooks.completed == [("0/0", 1)]
        assert ledger.stats.duplicates_discarded == 3
        assert ledger.stats.retries == 0

    def test_stragglers_need_completions_no_ripe_work_and_the_floor(self):
        ledger = make_ledger(num_tasks=6, straggler_factor=2.0)
        now = time.monotonic()
        for index in ledger.take_ripe(now, 5):
            ledger.issued(index)
        ledger.succeeded(0, {}, 0.001)
        ledger.succeeded(1, {}, 0.001)
        running = [(now, 3), (now - 1.0, 4), (now - 2.0, 2)]
        assert ledger.pick_stragglers(running, 3, now) == []  # 2 completions
        ledger.succeeded(2, {}, 0.001)  # mean 1 ms: 2 x mean is 2 ms
        running = [(now, 3), (now - 1.0, 4)]
        assert ledger.pick_stragglers(running, 3, now + 0.04) == []  # task 5 is ripe
        assert ledger.take_ripe(now, 1) == [5]
        ledger.issued(5)
        running.append((now - 2.0, 5))
        # Task 3 ran 40 ms: past 2 x the mean, inside the 50 ms floor.
        assert 0.04 < STRAGGLER_FLOOR_S
        assert ledger.pick_stragglers(running, 1, now + 0.04) == [5]  # oldest
        assert ledger.pick_stragglers(running, 3, now + 0.04) == [4]  # one copy each
        assert ledger.pick_stragglers(running, 3, now + 0.06) == [3]
        assert ledger.pick_stragglers(running, 3, now + 10.0) == []

    def test_sleep_ignores_ripe_entries(self):
        ledger = make_ledger(num_tasks=2)
        now = time.monotonic()
        assert ledger.sleep_s(now, 0.01) == 0.01  # ripe work waits for a worker
        for index in ledger.take_ripe(now, 2):
            ledger.issued(index)
        ledger.failed(0, "boom")  # retry in 0.5-0.625 s
        ledger.lost(1, "lease expired")  # ripe at once
        now = time.monotonic()
        assert ledger.sleep_s(now, 0.01) == 0.01
        assert 0.3 < ledger.sleep_s(now, 10.0) <= 0.5 * 1.25


class TestFaultPlan:
    def test_exception_fault_budget(self):
        plan = FaultPlan([FaultSpec(0, 0, "exception", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                plan.apply(0, 0)
        plan.apply(0, 0)  # budget spent: runs clean
        plan.apply(1, 0)  # other coordinates never fire

    def test_token_dir_accounting(self, tmp_path):
        plan = FaultPlan([FaultSpec(0, 0, "exception", times=1)], token_dir=tmp_path)
        with pytest.raises(InjectedFaultError):
            plan.apply(0, 0)
        # A second plan instance (another process in real runs) sees the
        # consumed token and does not fire again.
        again = FaultPlan([FaultSpec(0, 0, "exception", times=1)], token_dir=tmp_path)
        again.apply(0, 0)


class TestRetryAccounting:
    def test_retries_until_fault_budget_spent(self, tmp_path):
        # The fault fires twice; with max_retries=3 the third attempt succeeds.
        plan = FaultPlan([FaultSpec(0, 0, "exception", times=2)], token_dir=tmp_path)
        executor = ResilientExecutor(workers=2, max_retries=3, backoff_base_s=0.01)
        tasks = [
            TaskSpec(point_index=0, replication=rep, payload=(plan, 0, rep, rep))
            for rep in range(4)
        ]
        outcomes = {o.task.replication: o for o in executor.run(_fault_execute, tasks)}
        assert all(outcomes[rep].metrics == {"v": float(rep)} for rep in range(4))
        assert outcomes[0].attempts == 3
        assert all(outcomes[rep].attempts == 1 for rep in range(1, 4))
        assert executor.stats.retries == 2
        assert executor.stats.quarantined == 0

    def test_poisoned_task_quarantined_campaign_degrades(self, tmp_path):
        clean = toy_campaign().run()
        plan = FaultPlan(
            [FaultSpec(1, 2, "exception", times=-1)], token_dir=tmp_path
        )
        executor = ResilientExecutor(workers=2, max_retries=1, backoff_base_s=0.01)
        outcome = toy_campaign().run(executor=executor, fault_plan=plan)

        # Only the poisoned replication is missing; everything else matches
        # the fault-free serial run bit for bit.
        assert outcome.failed_replications == 1
        assert list(outcome.points[1].failures) == [2]
        assert "InjectedFaultError" in outcome.points[1].failures[2]
        assert [p.index for p in outcome.degraded_points()] == [1]
        assert outcome.executor_stats["quarantined"] == 1
        assert outcome.executor_stats["retries"] == 1  # max_retries=1 spent
        summary = outcome.points[1].summary()
        assert summary["mean_draw"].failed == 1
        assert summary["mean_draw"].count == 2
        for point, reference in zip(outcome.points, clean.points):
            for rep, metrics in point.replications.items():
                assert metrics == reference.replications[rep]


class TestWorkerCrashRespawn:
    def test_crash_loses_only_the_inflight_task(self, tmp_path):
        clean = toy_campaign().run()
        plan = FaultPlan([FaultSpec(0, 1, "crash")], token_dir=tmp_path)
        # Disable speculation: a speculative copy could consume the crash
        # token and die unobserved after the original attempt wins the race.
        executor = ResilientExecutor(
            workers=2,
            max_retries=2,
            backoff_base_s=0.01,
            straggler_factor=None,
        )
        outcome = toy_campaign().run(executor=executor, fault_plan=plan)
        assert outcome.failed_replications == 0
        assert _replications(outcome) == _replications(clean)
        stats = outcome.executor_stats
        assert stats["worker_crashes"] >= 1
        assert stats["retries"] >= 1

    def test_respawn_restores_fleet_strength(self, tmp_path):
        # Slow tasks keep plenty of work unfinished when the crash is reaped,
        # so the executor must bring the fleet back to full strength.
        plan = FaultPlan([FaultSpec(0, 1, "crash")], token_dir=tmp_path)
        executor = ResilientExecutor(
            workers=2,
            max_retries=2,
            backoff_base_s=0.01,
            straggler_factor=None,
        )
        tasks = [
            TaskSpec(point_index=0, replication=rep, payload=(plan, 0, rep, rep))
            for rep in range(6)
        ]
        outcomes = list(executor.run(_slow_fault_execute, tasks))
        assert len(outcomes) == 6
        assert all(o.metrics is not None for o in outcomes)
        assert executor.stats.worker_crashes >= 1
        assert executor.stats.workers_respawned >= 1
        assert executor.stats.retries >= 1


class TestStragglerReissue:
    def test_speculative_duplicate_first_result_wins(self, tmp_path):
        # One replication sleeps far past the mean completion time; with no
        # timeout configured only speculation can rescue it, and the token
        # budget (times=1) makes the duplicate run clean and win.
        clean = toy_campaign().run()
        plan = FaultPlan(
            [FaultSpec(0, 0, "delay", delay_s=15.0)], token_dir=tmp_path
        )
        executor = ResilientExecutor(
            workers=2,
            max_retries=0,
            straggler_factor=2.0,
            poll_interval_s=0.01,
        )
        started = time.perf_counter()
        outcome = toy_campaign().run(executor=executor, fault_plan=plan)
        elapsed = time.perf_counter() - started
        assert outcome.failed_replications == 0
        assert _replications(outcome) == _replications(clean)
        assert outcome.executor_stats["speculative_reissues"] >= 1
        # The campaign never waited out the 15 s sleep: the duplicate won.
        assert elapsed < 10.0


class TestChaosDeterminism:
    """Aggregates under injected chaos are bit-identical to fault-free runs."""

    def test_crash_exception_and_timeout_chaos(self, tmp_path):
        clean = toy_campaign().run()
        plan = FaultPlan(
            [
                FaultSpec(0, 0, "crash"),
                FaultSpec(1, 1, "exception", times=2),
                FaultSpec(2, 2, "delay", delay_s=30.0),
            ],
            token_dir=tmp_path,
        )
        executor = ResilientExecutor(
            workers=2,
            task_timeout_s=3.0,
            max_retries=3,
            backoff_base_s=0.02,
            straggler_factor=None,  # force the timeout path
        )
        outcome = toy_campaign().run(executor=executor, fault_plan=plan)
        assert outcome.failed_replications == 0
        assert outcome.completed_replications == clean.completed_replications
        assert _replications(outcome) == _replications(clean)
        assert outcome.executor_name == "resilient"
        stats = outcome.executor_stats
        assert stats["worker_crashes"] >= 1
        assert stats["timeouts"] >= 1
        assert stats["retries"] >= 3

    def test_fault_free_backends_agree(self):
        serial = toy_campaign().run(executor=SerialExecutor())
        default = toy_campaign().run(workers=2)
        resilient = toy_campaign().run(
            executor=ResilientExecutor(workers=2), workers=2
        )
        assert _replications(serial) == _replications(default)
        assert _replications(serial) == _replications(resilient)
        assert serial.executor_name == "serial"
        assert default.executor_name == "resilient"
        assert resilient.executor_name == "resilient"

    def test_serial_executor_propagates_injected_faults(self):
        plan = FaultPlan([FaultSpec(0, 0, "exception")])
        with pytest.raises(InjectedFaultError):
            toy_campaign().run(fault_plan=plan)


def _signal_probe_runner(params, seed):
    """Reports whether the executing process has the default SIGINT/SIGTERM action."""
    return {
        "sigterm_default": float(signal.getsignal(signal.SIGTERM) == signal.SIG_DFL),
        "sigint_default": float(signal.getsignal(signal.SIGINT) == signal.SIG_DFL),
    }


def _probe_campaign_in_child(executor_name, conn):
    """Run the probe campaign in the main thread of a fresh process.

    ``Campaign.run`` installs its SIGINT/SIGTERM handler only on the main
    thread, so the campaign runs as a spawned child's main program (and forks
    its workers from there); the test process only waits on it, with
    timeouts.
    """
    outcome = Campaign(
        "signals", _signal_probe_runner, [{}], replications=4, root_seed=3
    ).run(executor=executor_name, workers=2)
    conn.send([sorted(point.replications.items()) for point in outcome.points])
    conn.close()


class TestForkedWorkerSignals:
    """Workers must not inherit ``Campaign.run``'s Python signal handler.

    A worker that still has it and receives a SIGTERM just before blocking
    on a lock hangs forever.
    """

    @pytest.mark.parametrize("executor_name", ["resilient", "swarm"])
    def test_workers_have_default_signal_actions(self, executor_name):
        ctx = mp.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_probe_campaign_in_child, args=(executor_name, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60.0), f"{executor_name} campaign did not finish"
            replications = receiver.recv()
        finally:
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join(timeout=10.0)
        assert child.exitcode == 0
        metrics = [m for point in replications for _, m in point]
        assert len(metrics) == 4
        assert all(m == {"sigterm_default": 1.0, "sigint_default": 1.0} for m in metrics)
