"""Swarm executor: lease protocol, chaos invariants, transport semantics.

The invariant under test everywhere: **for any worker topology, join/leave
schedule or fault pattern, the swarm aggregates bit-identically to the
serial executor** — at-least-once delivery plus first-wins dedupe is safe
because every replication is a pure function of its seed-tree coordinates.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments.campaign import Campaign
from repro.experiments.executors import (
    BACKOFF_JITTER,
    BACKOFF_MAX_S,
    ResilientExecutor,
    retry_backoff_delay,
)
from repro.experiments.faults import (
    FaultPlan,
    FaultSpec,
    MessageFaultPlan,
    MessageFaults,
)
from repro.experiments.swarm import FileMailbox, SwarmExecutor, drain_mailbox
from repro.utils.hooks import SimHooks
from repro.utils.recorder import EventRecorder, MemorySink


def _toy_runner(params, seed):
    rng = np.random.default_rng(seed)
    draws = rng.random(128)
    return {
        "mean_draw": float(draws.mean()) + float(params["offset"]),
        "max_draw": float(draws.max()),
    }


def toy_campaign(points=3, replications=3, root_seed=123):
    grid = [{"offset": 10.0 * index} for index in range(points)]
    return Campaign("toy", _toy_runner, grid, replications=replications,
                    root_seed=root_seed)


def serial_reference(campaign):
    return [p.replications for p in campaign.run(executor="serial").points]


def swarm_executor(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_timeout_s", 5.0)
    kwargs.setdefault("poll_interval_s", 0.005)
    return SwarmExecutor(**kwargs)


class TestMessageFaultPlan:
    def test_fate_is_a_pure_function_of_identity(self):
        plan = MessageFaultPlan(seed=3, leases=MessageFaults(drop=0.5, delay=0.5))
        first = [plan.fate("lease:w0", f"lease-a{i}", i) for i in range(50)]
        second = [plan.fate("lease:w9", f"lease-a{i}", 99 - i) for i in range(50)]
        assert first == second  # channel suffix and seq don't matter
        assert any(f.dropped for f in first) and not all(f.dropped for f in first)

    def test_unconfigured_channels_are_clean(self):
        plan = MessageFaultPlan(seed=3, leases=MessageFaults(drop=1.0))
        assert not plan.fate("result:w0", "result-a0-0", 0).dropped
        assert plan.fate("lease:w0", "lease-a0", 0).dropped

    def test_stall_window_drops_by_sequence(self):
        plan = MessageFaultPlan(
            seed=0, heartbeats=MessageFaults(stall_after=2, stall_for=3)
        )
        fates = [plan.fate("heartbeat:w0", f"hb-{i}", i) for i in range(8)]
        assert [f.dropped for f in fates] == [
            False, False, True, True, True, False, False, False,
        ]

    def test_mix_validation(self):
        with pytest.raises(ValueError, match="probability"):
            MessageFaults(drop=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            MessageFaults(delay_s=-1.0)
        with pytest.raises(ValueError, match="together"):
            MessageFaults(stall_after=3)
        with pytest.raises(ValueError, match="together"):
            MessageFaults(stall_for=3)


class TestFileMailbox:
    def test_messages_drain_in_send_order(self, tmp_path):
        box = FileMailbox(str(tmp_path), sender="w0", channel="result:w0")
        for index in range(5):
            box.send({"n": index}, message_id=f"m{index}")
        assert [m["n"] for m in drain_mailbox(str(tmp_path))] == [0, 1, 2, 3, 4]
        assert drain_mailbox(str(tmp_path)) == []  # consumed exactly once

    def test_duplicate_fate_delivers_twice(self, tmp_path):
        plan = MessageFaultPlan(seed=1, results=MessageFaults(duplicate=1.0))
        box = FileMailbox(str(tmp_path), "w0", "result:w0", faults=plan)
        box.send({"n": 0}, message_id="m0")
        assert [m["n"] for m in drain_mailbox(str(tmp_path))] == [0, 0]

    def test_drop_fate_never_delivers(self, tmp_path):
        plan = MessageFaultPlan(seed=1, results=MessageFaults(drop=1.0))
        box = FileMailbox(str(tmp_path), "w0", "result:w0", faults=plan)
        box.send({"n": 0}, message_id="m0")
        assert drain_mailbox(str(tmp_path)) == []

    def test_delay_fate_holds_until_ripe(self, tmp_path):
        plan = MessageFaultPlan(
            seed=1, results=MessageFaults(delay=1.0, delay_s=0.2)
        )
        box = FileMailbox(str(tmp_path), "w0", "result:w0", faults=plan)
        box.send({"n": 0}, message_id="m0")
        assert drain_mailbox(str(tmp_path)) == []
        time.sleep(0.25)
        assert [m["n"] for m in drain_mailbox(str(tmp_path))] == [0]

    def test_reorder_fate_swaps_with_next_message(self, tmp_path):
        plan = MessageFaultPlan(seed=1, results=MessageFaults(reorder=1.0))
        box = FileMailbox(str(tmp_path), "w0", "result:w0", faults=plan)
        box.send({"n": 0}, message_id="m0")  # held (reordered)
        assert drain_mailbox(str(tmp_path)) == []
        box.faults = None  # second message delivers normally
        box.send({"n": 1}, message_id="m1")
        assert [m["n"] for m in drain_mailbox(str(tmp_path))] == [1, 0]

    def test_flush_releases_a_held_message(self, tmp_path):
        plan = MessageFaultPlan(seed=1, results=MessageFaults(reorder=1.0))
        box = FileMailbox(str(tmp_path), "w0", "result:w0", faults=plan)
        box.send({"n": 0}, message_id="m0")
        box.flush()
        assert [m["n"] for m in drain_mailbox(str(tmp_path))] == [0]

    def test_corrupt_message_discarded(self, tmp_path):
        box = FileMailbox(str(tmp_path), "w0", "result:w0")
        box.send({"n": 0}, message_id="m0")
        with open(tmp_path / "00000001-w0.msg", "wb") as handle:
            handle.write(b"\x80garbage")
        assert [m["n"] for m in drain_mailbox(str(tmp_path))] == [0]


class TestSwarmParity:
    def test_bit_identical_to_serial(self):
        campaign = toy_campaign()
        reference = serial_reference(campaign)
        result = campaign.run(executor=swarm_executor(workers=3))
        assert [p.replications for p in result.points] == reference
        assert result.executor_name == "swarm"
        assert result.executor_stats["leases_issued"] > 0
        assert result.executor_stats["quarantined"] == 0

    def test_single_worker_swarm(self):
        campaign = toy_campaign(points=2, replications=2)
        result = campaign.run(executor=swarm_executor(workers=1))
        assert [p.replications for p in result.points] == serial_reference(campaign)

    def test_duplicated_messages_dedupe(self):
        # Every lease and every result is delivered twice: at-least-once in
        # its purest form.  First completion wins; aggregates are unchanged.
        campaign = toy_campaign()
        plan = MessageFaultPlan(
            seed=5,
            leases=MessageFaults(duplicate=1.0),
            results=MessageFaults(duplicate=1.0),
        )
        result = campaign.run(executor=swarm_executor(message_faults=plan))
        assert [p.replications for p in result.points] == serial_reference(campaign)
        assert result.executor_stats["duplicates_discarded"] >= 1
        assert result.executor_stats["quarantined"] == 0

    def test_dropped_leases_recovered_by_expiry(self):
        # Half of all lease messages vanish; expiry re-issues under fresh
        # attempt ids (which re-roll their fate), so the campaign completes
        # without burning any retry budget.
        campaign = toy_campaign(points=2, replications=3)
        plan = MessageFaultPlan(seed=11, leases=MessageFaults(drop=0.5))
        result = campaign.run(
            executor=swarm_executor(
                lease_timeout_s=0.4, message_faults=plan, batch_size=1
            )
        )
        assert [p.replications for p in result.points] == serial_reference(campaign)
        assert result.executor_stats["leases_expired"] >= 1
        assert result.executor_stats["quarantined"] == 0

    def test_sigkilled_worker_respawned_and_bit_identical(self, tmp_path):
        campaign = toy_campaign()
        plan = FaultPlan(
            [FaultSpec(point_index=0, replication=0, kind="sigkill")],
            token_dir=str(tmp_path / "tokens"),
        )
        result = campaign.run(
            executor=swarm_executor(batch_size=1), fault_plan=plan
        )
        assert [p.replications for p in result.points] == serial_reference(campaign)
        stats = result.executor_stats
        assert stats["worker_crashes"] >= 1
        assert stats["leases_expired"] >= 1  # the crash reclaimed its lease
        assert stats["workers_respawned"] >= 1
        assert stats["quarantined"] == 0

    def test_hung_straggler_is_stolen(self, tmp_path):
        # One replication sleeps 10 s while its worker keeps heartbeating —
        # lease expiry never fires; work stealing is what rescues the tail.
        campaign = toy_campaign(points=2, replications=3)
        plan = FaultPlan(
            [FaultSpec(point_index=1, replication=2, kind="delay", delay_s=10.0)],
            token_dir=str(tmp_path / "tokens"),
        )
        started = time.monotonic()
        result = campaign.run(
            executor=swarm_executor(
                workers=2,
                lease_timeout_s=5.0,
                steal_factor=2.0,
                batch_size=1,
            ),
            fault_plan=plan,
        )
        elapsed = time.monotonic() - started
        assert [p.replications for p in result.points] == serial_reference(campaign)
        assert result.executor_stats["work_stolen"] >= 1
        assert elapsed < 8.0, "the stolen copy should finish long before 10 s"

    def test_heartbeat_stall_expires_lease_and_late_result_dedupes(self):
        # The worker stays alive but its heartbeats stop mid-run: the
        # coordinator must declare the lease dead, re-issue, and absorb
        # whatever the stalled worker eventually reports.
        campaign = toy_campaign(points=2, replications=2)
        plan = MessageFaultPlan(
            seed=2, heartbeats=MessageFaults(stall_after=1, stall_for=1000)
        )
        result = campaign.run(
            executor=swarm_executor(
                workers=2,
                lease_timeout_s=0.5,
                heartbeat_interval_s=0.1,
                message_faults=plan,
                batch_size=1,
            )
        )
        assert [p.replications for p in result.points] == serial_reference(campaign)
        assert result.executor_stats["quarantined"] == 0

    def test_coordinator_sleeps_a_full_tick_while_workers_are_busy(
        self, monkeypatch
    ):
        # A fault-free run never has a retry pending, so ripe work that waits
        # for a busy worker must not shorten the coordinator's sleep.
        campaign = toy_campaign(points=2, replications=4)
        reference = serial_reference(campaign)
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        executor = swarm_executor(workers=2, batch_size=1)
        result = campaign.run(executor=executor)
        monkeypatch.undo()
        assert [p.replications for p in result.points] == reference
        assert sleeps, "the coordinator never waited"
        assert min(sleeps) >= executor.poll_interval_s

    def test_runner_exception_retries_then_quarantines(self, tmp_path):
        campaign = toy_campaign(points=1, replications=2)
        plan = FaultPlan(
            [
                FaultSpec(
                    point_index=0, replication=1, kind="exception", times=-1
                )
            ],
            token_dir=str(tmp_path / "tokens"),
        )
        result = campaign.run(
            executor=swarm_executor(max_retries=1, batch_size=1), fault_plan=plan
        )
        stats = result.executor_stats
        assert stats["retries"] == 1
        assert stats["quarantined"] == 1
        assert result.points[0].failures.keys() == {1}
        assert 0 in result.points[0].replications  # the healthy sibling ran


class TestExternalWorker:
    def test_cli_worker_joins_and_completes_the_campaign(self, tmp_path):
        # workers=0: the coordinator spawns nothing; an externally launched
        # `python -m repro.experiments.worker` process does all the work
        # (the multi-machine topology, compressed onto one host).
        swarm_dir = str(tmp_path / "swarm")
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                "--swarm-dir",
                swarm_dir,
                "--worker-id",
                "remote0",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            campaign = toy_campaign(points=2, replications=2)
            result = campaign.run(
                executor=swarm_executor(
                    workers=0, swarm_dir=swarm_dir, lease_timeout_s=10.0
                )
            )
            assert [p.replications for p in result.points] == serial_reference(
                campaign
            )
            assert result.executor_stats["leases_issued"] >= 1
            # The stop file tells the external worker to exit cleanly.
            proc.wait(timeout=15)
            assert proc.returncode == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()


_KILLED_COORDINATOR_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.experiments.campaign import Campaign
from repro.experiments.swarm import SwarmExecutor


def runner(params, seed):
    return {{"draw": float(np.random.default_rng(seed).random())}}


def die_after(done, total):
    if done >= 3:
        os._exit(3)  # no unwinding: the executor never tears down


campaign = Campaign("toy", runner, [{{"offset": 0.0}}] * 3, replications=3)
campaign.run(
    executor=SwarmExecutor(workers=2, swarm_dir={swarm_dir!r}, poll_interval_s=0.005),
    progress=die_after,
)
"""


class TestKilledCoordinator:
    @pytest.mark.parametrize("explicit", [False, True], ids=["private", "explicit"])
    def test_orphans_remove_only_a_private_swarm_directory(self, tmp_path, explicit):
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        swarm_dir = str(tmp_path / "explicit-swarm") if explicit else None
        script = tmp_path / "killed_coordinator.py"
        script.write_text(_KILLED_COORDINATOR_SCRIPT.format(src=src, swarm_dir=swarm_dir))
        # The forked workers inherit the stderr pipe: reading it to EOF waits
        # until the orphans have noticed the dead coordinator and exited.
        proc = subprocess.run(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "TMPDIR": str(tmp_path)},
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert not list(tmp_path.glob("repro-swarm-*"))
        if explicit:
            assert os.path.exists(os.path.join(swarm_dir, "job.pkl"))


class TestLifecycleTelemetry:
    def test_worker_and_lease_events_recorded(self, tmp_path):
        sink = MemorySink()
        campaign = toy_campaign(points=2, replications=2)
        plan = FaultPlan(
            [FaultSpec(point_index=0, replication=0, kind="sigkill")],
            token_dir=str(tmp_path / "tokens"),
        )
        campaign.run(
            executor=swarm_executor(batch_size=1),
            fault_plan=plan,
            hooks=EventRecorder(sink),
        )
        kinds = sink.by_kind()
        assert kinds.get("worker_joined", 0) >= 2
        assert kinds.get("lease_granted", 0) >= 4
        assert kinds.get("worker_left", 0) >= 1  # the sigkilled worker
        assert kinds.get("lease_expired", 0) >= 1
        assert kinds.get("task_completed", 0) == 4

    def test_base_hooks_accept_swarm_lifecycle_calls(self):
        hooks = SimHooks()
        hooks.record("worker_joined", worker_id="w0")
        hooks.record("worker_left", worker_id="w0", reason="bye")
        hooks.record("lease_granted", worker_id="w0", attempt="a0", num_tasks=3)
        hooks.record("lease_expired", worker_id="w0", attempt="a0", reason="timeout")
        hooks.record("work_stolen", key="0/1", from_worker="w0", to_worker="w1")


class TestSeededBackoff:
    def test_campaign_root_seed_fills_in_backoff_seed(self):
        campaign = toy_campaign(root_seed=77)
        executor = ResilientExecutor(workers=1)
        assert executor.backoff_seed is None
        campaign._resolve_executor(executor, workers=1)
        assert executor.backoff_seed == 77

    def test_explicit_backoff_seed_is_kept(self):
        campaign = toy_campaign(root_seed=77)
        executor = SwarmExecutor(workers=1, backoff_seed=5)
        campaign._resolve_executor(executor, workers=1)
        assert executor.backoff_seed == 5

    def test_jitter_depends_on_seed_task_and_retry(self):
        kwargs = dict(base_s=0.25)
        base = retry_backoff_delay(3, 1, seed=1, **kwargs)
        assert base != retry_backoff_delay(3, 1, seed=2, **kwargs)
        assert base != retry_backoff_delay(4, 1, seed=1, **kwargs)
        assert base == retry_backoff_delay(3, 1, seed=1, **kwargs)
        with pytest.raises(ValueError, match="1-based"):
            retry_backoff_delay(0, 0, seed=0, **kwargs)

    def test_exponential_growth_within_jitter_bounds(self):
        for retry in range(1, 6):
            nominal = 0.5 * 2.0 ** (retry - 1)
            delay = retry_backoff_delay(3, retry, base_s=0.5, seed=0)
            assert nominal <= delay <= nominal * (1.0 + BACKOFF_JITTER)

    def test_backoff_cap(self):
        for task_index in range(5):
            delay = retry_backoff_delay(task_index, 10, base_s=1.0, seed=0)
            assert BACKOFF_MAX_S <= delay <= BACKOFF_MAX_S * (1.0 + BACKOFF_JITTER)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"workers": 0},  # needs swarm_dir
            {"lease_timeout_s": 0.0},
            {"heartbeat_interval_s": 0.0},
            {"batch_size": 0},
            {"max_retries": -1},
            {"steal_factor": 0.5},
            {"steal_factor": 1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SwarmExecutor(**kwargs)

    def test_empty_task_list_is_a_noop(self):
        executor = SwarmExecutor(workers=1)
        assert list(executor.run(lambda payload: {}, [])) == []
