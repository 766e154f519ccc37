"""CI chaos smoke: injected faults must not change campaign aggregates.

Runs the smoke-scale F4 coverage grid under escalating failure regimes and
checks every one of them against the fault-free ``SerialExecutor`` run:

1. fault-free under ``SerialExecutor`` (the reference aggregates);
2. under ``ResilientExecutor`` with a :class:`FaultPlan` injecting one worker
   crash (``os._exit``) and one long delay that trips the task timeout;
3. under ``SwarmExecutor`` (4 worker processes, lease protocol over the
   file-queue transport) with two worker SIGKILLs, a 15 s hung straggler and
   deterministic message chaos (dropped + duplicated leases and results) —
   crashes must be respawned, expired leases re-issued, the straggler
   rescued by work stealing, and every duplicate completion deduped;
4. a swarm coordinator killed mid-campaign (``os._exit``, no unwinding —
   durability is the fsync'd write-ahead journal alone) and resumed from the
   WAL without recomputing the finished replications; its orphaned workers
   must exit and remove its private swarm directory.

The determinism contract of the campaign seed tree (a replication's metrics
are a pure function of its ``(point, replication)`` coordinates) means every
chaotic run must complete with **bit-identical** aggregates and zero
quarantined replications; any divergence or residual failure fails CI.

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.experiments.coverage import build_coverage_campaign  # noqa: E402
from repro.experiments.executors import ResilientExecutor  # noqa: E402
from repro.experiments.faults import (  # noqa: E402
    FaultPlan,
    FaultSpec,
    MessageFaultPlan,
    MessageFaults,
)
from repro.experiments.swarm import SwarmExecutor  # noqa: E402


def build_campaign():
    return build_coverage_campaign(
        loads=[2, 3],
        num_drops=1,
        config=SystemConfig.small_test_system(),
        scheduler_factories={"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"},
        num_replications=2,
        seed=17,
    )


def run_resilient_chaos(expected, reference, failures: List[str]) -> None:
    with tempfile.TemporaryDirectory() as token_dir:
        plan = FaultPlan(
            [
                # One worker dies without unwinding on its first attempt...
                FaultSpec(point_index=0, replication=0, kind="crash"),
                # ...and one replication hangs past the task timeout once.
                FaultSpec(point_index=3, replication=1, kind="delay", delay_s=30.0),
            ],
            token_dir=token_dir,
        )
        executor = ResilientExecutor(
            workers=2,
            task_timeout_s=5.0,
            max_retries=3,
            backoff_base_s=0.1,
            # Speculative re-issue could beat the timeout to the delayed task;
            # disable it so this smoke deterministically exercises the
            # kill-and-re-issue path.
            straggler_factor=None,
        )
        chaotic = build_campaign().run(executor=executor, fault_plan=plan)

    observed = [sorted(point.replications.items()) for point in chaotic.points]
    stats = chaotic.executor_stats
    print(f"resilient executor stats: {stats}")

    if chaotic.failed_replications:
        failures.append(
            f"resilient: {chaotic.failed_replications} replication(s) were "
            f"quarantined: {[point.failures for point in chaotic.degraded_points()]}"
        )
    if chaotic.completed_replications != reference.completed_replications:
        failures.append(
            f"resilient: chaotic run completed {chaotic.completed_replications} "
            f"of {reference.completed_replications} replications"
        )
    if observed != expected:
        failures.append(
            "resilient: chaotic aggregates diverge from the fault-free serial run"
        )
    if stats.get("worker_crashes", 0) < 1:
        failures.append("resilient: the injected crash never fired (plan inert?)")
    if stats.get("timeouts", 0) < 1:
        failures.append("resilient: the injected delay never tripped the timeout")


def run_swarm_chaos(expected, reference, failures: List[str]) -> None:
    """Step 3: the full distributed failure menu against a 4-worker swarm."""
    with tempfile.TemporaryDirectory() as token_dir:
        plan = FaultPlan(
            [
                # Two workers are SIGKILL'd mid-task (no unwinding, no exit
                # message — only lease expiry can notice)...
                FaultSpec(point_index=0, replication=0, kind="sigkill"),
                FaultSpec(point_index=2, replication=1, kind="sigkill"),
                # ...and one replication hangs far past the campaign tail
                # while its worker keeps heartbeating: expiry never fires,
                # work stealing is what rescues it.
                FaultSpec(point_index=3, replication=1, kind="delay", delay_s=15.0),
            ],
            token_dir=token_dir,
        )
        message_plan = MessageFaultPlan(
            seed=13,
            leases=MessageFaults(drop=0.2, duplicate=0.2),
            results=MessageFaults(drop=0.1, duplicate=0.3),
        )
        executor = SwarmExecutor(
            workers=4,
            lease_timeout_s=2.0,
            batch_size=1,
            steal_factor=2.0,
            poll_interval_s=0.005,
            message_faults=message_plan,
        )
        chaotic = build_campaign().run(executor=executor, fault_plan=plan)

    observed = [sorted(point.replications.items()) for point in chaotic.points]
    stats = chaotic.executor_stats
    print(f"swarm executor stats: {stats}")

    if chaotic.failed_replications:
        failures.append(
            f"swarm: {chaotic.failed_replications} replication(s) were "
            f"quarantined: {[point.failures for point in chaotic.degraded_points()]}"
        )
    if chaotic.completed_replications != reference.completed_replications:
        failures.append(
            f"swarm: chaotic run completed {chaotic.completed_replications} "
            f"of {reference.completed_replications} replications"
        )
    if observed != expected:
        failures.append(
            "swarm: chaotic aggregates diverge from the fault-free serial run"
        )
    if stats.get("worker_crashes", 0) < 2:
        failures.append("swarm: the injected SIGKILLs never fired (plan inert?)")
    # Both kills must be detected; at least one triggers a respawn (a kill
    # near the tail is legitimately not replaced — the fleet is only kept at
    # min(workers, unfinished) strength).
    if stats.get("workers_respawned", 0) < 1:
        failures.append("swarm: no killed worker was ever respawned")
    if stats.get("leases_expired", 0) < 1:
        failures.append("swarm: no lease was ever reclaimed")
    if stats.get("work_stolen", 0) < 1:
        failures.append("swarm: the hung straggler was never stolen")


def run_coordinator_kill_resume(expected, failures: List[str]) -> None:
    """Step 4: SIGKILL the swarm coordinator mid-campaign, resume via WAL."""
    with tempfile.TemporaryDirectory() as scratch:
        ckpt = os.path.join(scratch, "chaos.ckpt.json")
        # The child's forked workers inherit its stderr pipe, so reading it to
        # EOF waits until the orphans have noticed the dead coordinator and
        # exited.  TMPDIR puts the child's private swarm directory in scratch.
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--killed-child", ckpt],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "TMPDIR": scratch},
            timeout=300,
        )
        if child.returncode != 3:
            failures.append(
                "coordinator-kill: child exited "
                f"{child.returncode}, expected 3: {child.stderr[-500:]}"
            )
            return
        orphaned = sorted(Path(scratch).glob("repro-swarm-*"))
        if orphaned:
            failures.append(
                "coordinator-kill: the orphaned workers left the private swarm "
                f"directory {orphaned[0].name} behind"
            )
        if os.path.exists(ckpt) or not os.path.exists(ckpt + ".wal"):
            failures.append(
                "coordinator-kill: expected WAL-only durability after the kill "
                "(no compacted JSON, a surviving .wal)"
            )
            return
        resumed = build_campaign().run(
            executor=SwarmExecutor(workers=2, poll_interval_s=0.005),
            checkpoint_path=ckpt,
        )
        observed = [sorted(point.replications.items()) for point in resumed.points]
        print(
            f"coordinator kill/resume: {resumed.reused_replications} replications "
            "recovered from the write-ahead journal"
        )
        if resumed.reused_replications < 3:
            failures.append(
                "coordinator-kill: the resume recomputed work the WAL had "
                f"(only {resumed.reused_replications} reused)"
            )
        if observed != expected:
            failures.append(
                "coordinator-kill: resumed aggregates diverge from the "
                "fault-free serial run"
            )


def killed_child_main(ckpt: str) -> int:
    """Child process for step 4: die without unwinding after 3 completions."""

    def die_after(done: int, total: int) -> None:
        if done >= 3:
            # SIGKILL stand-in: no generator unwinding, no journal.close(),
            # no compaction — durability is exactly the fsync'd WAL.  The
            # orphaned workers notice the coordinator is gone, remove its
            # private swarm directory and exit on their own (the orphan
            # guard this smoke also exercises).
            os._exit(3)

    build_campaign().run(
        executor=SwarmExecutor(workers=2, poll_interval_s=0.005),
        checkpoint_path=ckpt,
        progress=die_after,
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--killed-child", metavar="CKPT", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.killed_child is not None:
        return killed_child_main(args.killed_child)

    reference = build_campaign().run()
    expected = [sorted(point.replications.items()) for point in reference.points]

    failures: List[str] = []
    run_resilient_chaos(expected, reference, failures)
    run_swarm_chaos(expected, reference, failures)
    run_coordinator_kill_resume(expected, failures)

    if failures:
        print("chaos smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "chaos smoke passed: crashes, SIGKILLs, message chaos, a hung "
        "straggler and a killed coordinator injected; every campaign "
        "completed with aggregates bit-identical to the fault-free serial run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
