"""Tests of the benchmark's tracer and correctness checks on small inputs."""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from perfbench import checks, run, tracer as tracing
from perfbench.workloads import AdmissionHeavy, Fleet20k
from repro.config import SystemConfig
from repro.experiments.common import ExperimentResult, paper_scenario
from repro.mac.schedulers import JabaSdScheduler
from repro.mac.schedulers.base import SchedulingDecision
from repro.simulation import DynamicSystemSimulator

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    BENCHMARK = json.load(_spec)


class RegionBlindScheduler(JabaSdScheduler):
    """Grants every request its upper bound, whatever the admissible region allows."""

    def assign(self, problem):
        return SchedulingDecision(
            assignment=problem.upper_bounds, objective_value=0.0, optimal=False
        )


def small_fleet(**kwargs):
    return Fleet20k(seed=3, seconds=1, num_users=300, num_rings=1, warmup_frames=2, **kwargs)


def small_admission(**kwargs):
    return AdmissionHeavy(seed=3, seconds=0.1, num_drops=2, data_users_per_cell=10,
                          distinct_frames=4, **kwargs)


def traced_run(workload):
    """The workload's traced section; returns (tracer, section, installed wrappers)."""
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        installed = patches.targets()
        assert all(vars(owner)[attr] is not original for owner, attr, original in installed)
        section = workload.execute(workload.prepare(), tracer)
    finally:
        patches.restore()
    return tracer, section, installed


@pytest.mark.parametrize("make", [small_fleet, small_admission])
def test_traced_run_matches_untraced_and_self_times_add_up(make):
    workload = make()
    untraced = workload.execute(workload.prepare())
    tracer, traced, installed = traced_run(workload)
    assert traced.outputs and traced.outputs == untraced.outputs
    assert traced.problems == untraced.problems
    for owner, attr, original in installed:
        assert vars(owner)[attr] is original
    total = sum(tracing.self_time_partition(tracer).values())
    assert abs(total - traced.total_s) <= 0.05 * traced.total_s


def test_a_call_wrapped_twice_is_refused():
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install(tracer, patches)
        with pytest.raises(RuntimeError, match="wrapped twice"):
            tracing.install(tracer, patches)
    finally:
        patches.restore()


def test_per_user_scalar_calls_are_timed_per_frame():
    from repro.cdma.entities import MobileStation
    from repro.mac.states import MacStateMachine
    from repro.traffic.data import PacketCallDataSource
    from repro.traffic.voice import OnOffVoiceSource

    frames = 10
    scenario = paper_scenario(duration_s=frames * 0.02 - 0.01, warmup_s=0.0, seed=5)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        owners = {owner for owner, _, _ in patches.targets()}
        with tracer.span(tracing.ROOT_SPAN):
            DynamicSystemSimulator(scenario, JabaSdScheduler("J1")).run()
    finally:
        patches.restore()
    assert not owners & {MobileStation, MacStateMachine, PacketCallDataSource, OnOffVoiceSource}
    assert tracer.inclusive("mac.states")[0] == frames
    assert tracer.inclusive("traffic.sources")[0] == 2 * frames


def test_only_jaba_sd_decisions_are_timed():
    from repro.mac.schedulers import FcfsScheduler

    jaba = small_fleet().execute(small_fleet().prepare())
    fcfs = small_fleet(scheduler_factory=FcfsScheduler)
    assert jaba.decisions and not fcfs.execute(fcfs.prepare()).decisions


def test_measure_reports_every_benchmark_metric():
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.measure("admission-heavy", 3, 0.1, trace, time.perf_counter(),
                                workload=small_admission())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        names = {metric["name"]: metric["unit"] for metric in BENCHMARK[listed]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(v["value"] is not None for v in result["metrics"].values())


def test_admission_check_fails_with_a_scheduler_that_ignores_the_region():
    result, _ = run.measure("admission-heavy", 3, 0.1, False, time.perf_counter(),
                            workload=small_admission(scheduler_factory=RegionBlindScheduler))
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["completed_fraction"]["value"] < 1.0

    controller, snapshot, queues = small_admission().prepare()[0]
    link, requests = queues[0]
    problem = controller.build_input(snapshot, requests, link)
    weights = np.ones(len(requests))
    found = checks.decision_problems(problem, problem.upper_bounds, weights,
                                     np.zeros(len(requests), dtype=int))
    assert found == ["assignment outside the admissible region"]
    lower = checks.decision_problems(problem, np.zeros(len(requests), dtype=int), weights,
                                     np.ones(len(requests), dtype=int))
    assert lower and "below greedy" in lower[0]


def _quick_tables(j1_delay=0.28, fcfs_delay=0.35):
    tables = []
    for experiment_id, (rows, columns) in checks.QUICK_REPORT_TABLES.items():
        result = ExperimentResult(experiment_id=experiment_id, title=experiment_id)
        for row in range(rows):
            result.add(**{column: 1.0 for column in columns}, mean_csi_db=row)
        tables.append(result)
    f2f3 = tables[1]
    for record, scheduler in zip(f2f3.records[4:], ("JABA-SD(J1)", "JABA-SD(J2)", "FCFS", "X")):
        record.update(scheduler=scheduler, data_users_per_cell=16)
        record["mean_delay_s"] = {"JABA-SD(J1)": j1_delay, "FCFS": fcfs_delay}.get(scheduler, 0.3)
    for record in f2f3.records[:4]:
        record.update(scheduler="FCFS", data_users_per_cell=8)
    return tables


def test_quick_report_check():
    assert checks.quick_report_problems(_quick_tables()) == []
    assert checks.quick_report_problems(_quick_tables(j1_delay=0.36, fcfs_delay=0.35)) == []
    assert checks.quick_report_problems(_quick_tables(j1_delay=0.6, fcfs_delay=0.35))
    assert checks.quick_report_problems(_quick_tables()[1:]) == ["F1: table missing"]
    degraded = _quick_tables()
    degraded[3].notes = "DEGRADED: 1 replication(s) ..."
    assert checks.quick_report_problems(degraded) == ["F4: DEGRADED note"]
    short = _quick_tables()
    short[0].records[2]["adaptive_bps_per_symbol"] = 0.5
    assert checks.quick_report_problems(short)
    nan = _quick_tables()
    nan[6].records[0]["coverage"] = float("nan")
    assert checks.quick_report_problems(nan) == ["T3: non-finite coverage"]


def test_snapshot_check():
    config = SystemConfig()
    snapshot, _ = small_admission()._drop(config, np.random.default_rng(11))
    bs_max = np.full(snapshot.num_cells, config.radio.bs_max_tx_power_w)
    assert checks.snapshot_problems(snapshot, bs_max) == []
    negative = replace(snapshot, reverse_pc=replace(
        snapshot.reverse_pc, tx_power_w=-snapshot.reverse_pc.tx_power_w - 1.0))
    assert checks.snapshot_problems(negative, bs_max) == [
        "reverse tx_power_w not finite and non-negative"]
    assert checks.snapshot_problems(snapshot, bs_max / 1e3) == [
        "forward cell power above the BS maximum"]
    empty = replace(snapshot, active_set_matrix=np.zeros_like(snapshot.active_membership()))
    assert checks.snapshot_problems(empty, bs_max) == ["empty active set"]


def test_gauge_scales_each_stretch_by_the_samples_around_it():
    from perfbench import gauge as gauging

    g = gauging.Gauge()
    # Samples at t = 0, 1, 2 taking 1.1, 1.1 and 2.2 ms.
    g.starts, g.ends = [0.0, 1.0, 2.0], [0.0011, 1.0011, 2.0022]
    nominal = gauging.NOMINAL_MS / 1.1
    # Stretches 1 and 2 see the median of the first samples (1.1 ms), the
    # last stretch the median of samples 1 and 2 (1.65 ms); sample time is left out.
    expected = (1.0 - 0.5 + 2.0 - 1.0011) * nominal + (2.5 - 2.0022) * nominal / 1.5
    assert g.scaled(0.5, 2.5) == pytest.approx(expected)
    assert g.scaled(0.2, 0.4) == pytest.approx(0.2 * nominal)
    slow = gauging.Gauge()
    slow.starts, slow.ends = [0.0, 1.0], [0.0022, 1.0022]
    assert slow.scaled(0.1, 0.9) == pytest.approx(0.4 * nominal)


def test_patches_skip_calls_the_program_no_longer_has():
    patches = tracing.Patches()
    patches.replace(Fleet20k, "no_such_method", lambda fn: fn)
    patches.replace(tracing, "no_such_function", lambda fn: fn)
    assert patches.missing == ["Fleet20k.no_such_method", "perfbench.tracer.no_such_function"]
    assert patches.targets() == []


def test_lp_pivot_limit_counts_as_a_fallback(monkeypatch):
    from repro.opt import SimplexIterationLimitError, lp

    def exhausted(*args, **kwargs):
        raise SimplexIterationLimitError("out of pivots")

    monkeypatch.setattr(lp, "solve_lp_relaxation", exhausted)
    workload = small_admission()
    tracer, section, _ = traced_run(workload)
    assert not section.problems and section.failed == 0
    assert 0 < tracer.counts["opt.fallbacks"] <= section.attempted


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)
    assert all(0 < metric["bound"] <= 0.25 for metric in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
