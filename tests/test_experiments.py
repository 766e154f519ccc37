"""Smoke and shape tests of the experiment harness (reduced sizes)."""

import numpy as np
import pytest

from repro.experiments import (
    default_scheduler_specs,
    paper_scenario,
    paper_traffic,
    run_admission_statistics,
    run_capacity,
    run_coverage,
    run_delay_vs_load,
    run_handoff_ablation,
    run_objectives_tradeoff,
    run_phy_throughput,
    run_solver_ablation,
)
from repro.experiments.campaign import Campaign
from repro.experiments.campaign import main as campaign_main
from repro.experiments.capacity import build_capacity_campaign, reduce_capacity
from repro.experiments.common import ExperimentResult
from repro.experiments.compare import build_comparison_campaign, compare_schedulers
from repro.experiments.coverage import build_coverage_campaign, reduce_coverage
from repro.experiments.delay_vs_load import build_delay_campaign, reduce_delay
from repro.experiments.executors import ResilientExecutor
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.objectives_tradeoff import (
    build_objectives_campaign,
    reduce_objectives,
)
from repro.experiments.report import main as report_main
from repro.simulation.scenario import ScenarioConfig


class TestCommon:
    def test_experiment_result_helpers(self):
        result = ExperimentResult("X1", "demo")
        result.add(a=1, b=2.0)
        result.add(a=3, b=4.0)
        assert result.column("a") == [1, 3]
        assert result.filtered(a=3)[0]["b"] == 4.0
        table = result.to_table()
        assert "X1" in table and "demo" in table

    def test_default_specs(self):
        specs = default_scheduler_specs(include_greedy=True)
        assert set(specs) >= {"JABA-SD(J1)", "JABA-SD(J2)", "FCFS", "EqualShare"}

    def test_paper_scenario_and_traffic(self):
        scenario = paper_scenario(num_data_users_per_cell=10)
        assert scenario.num_data_users_per_cell == 10
        assert scenario.traffic == paper_traffic()


class TestPhyThroughputExperiment:
    def test_shape(self):
        result = run_phy_throughput(mean_csi_db=[0.0, 10.0, 20.0],
                                    monte_carlo_samples=20_000)
        assert len(result.records) == 3
        adaptive = np.asarray(result.column("adaptive_bps_per_symbol"))
        fixed = np.asarray(result.column("fixed_bps_per_symbol"))
        assert np.all(adaptive >= fixed - 1e-9)
        assert np.all(np.diff(adaptive) > 0)
        for record in result.records:
            assert record["adaptive_mc"] == pytest.approx(
                record["adaptive_bps_per_symbol"], rel=0.05
            )


class TestSnapshotExperiments:
    def test_coverage_experiment(self):
        result = run_coverage(loads=[4], num_drops=2, scheduler_factories={
            "JABA-SD(J1)": "JABA-SD(J1)",
            "FCFS": "FCFS",
        })
        assert len(result.records) == 2
        for record in result.records:
            assert 0.0 <= record["coverage"] <= 1.0

    def test_coverage_with_radius_sweep(self):
        factories = {"JABA-SD(J1)": "JABA-SD(J1)"}
        result = run_coverage(loads=[4], cell_radii_m=[600.0], num_drops=2,
                              scheduler_factories=factories)
        radii = set(result.column("cell_radius_m"))
        assert 600.0 in radii

    def test_handoff_ablation(self):
        result = run_handoff_ablation(reduced_set_sizes=[1, 2], num_drops=2)
        assert len(result.records) == 4  # 2 sizes x 2 links
        links = set(result.column("link"))
        assert links == {"forward", "reverse"}

    def test_solver_ablation(self):
        result = run_solver_ablation(request_counts=[3], instances_per_count=2)
        record = result.records[0]
        assert record["near_optimal_quality"] <= 1.0 + 1e-9
        assert record["greedy_quality"] <= 1.0 + 1e-9
        assert record["optimal_ms"] > 0.0


@pytest.fixture(scope="module")
def tiny_scenario():
    return paper_scenario(duration_s=2.0, warmup_s=0.5, seed=3)


class TestDynamicExperiments:
    def test_delay_vs_load(self, tiny_scenario):
        factories = {
            "JABA-SD(J1)": "JABA-SD(J1)",
            "FCFS": "FCFS",
        }
        result = run_delay_vs_load(loads=[3], scenario=tiny_scenario,
                                   scheduler_factories=factories)
        assert len(result.records) == 2
        for record in result.records:
            assert record["completed_calls"] > 0
            assert record["carried_kbps"] > 0.0

    def test_admission_statistics(self, tiny_scenario):
        factories = {"JABA-SD(J1)": "JABA-SD(J1)"}
        result = run_admission_statistics(load=3, scenario=tiny_scenario,
                                          scheduler_factories=factories)
        assert result.records[0]["mean_granted_m"] >= 1.0

    def test_capacity(self, tiny_scenario):
        factories = {"JABA-SD(J1)": "JABA-SD(J1)"}
        result = run_capacity(delay_target_s=5.0, loads=[3], scenario=tiny_scenario,
                              scheduler_factories=factories)
        assert result.records[0]["capacity_users_per_cell"] == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            run_capacity(delay_target_s=0.0)

    def test_objectives_tradeoff(self, tiny_scenario):
        result = run_objectives_tradeoff(penalty_scales=[0.0, 1.0], load=3,
                                         scenario=tiny_scenario)
        assert [r["objective"] for r in result.records] == ["J1", "J2"]
        for record in result.records:
            assert record["carried_kbps"] > 0.0


TWO_SCHEDULERS = {"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"}


def _fast_scenario():
    return ScenarioConfig.fast_test(duration_s=1.0, warmup_s=0.25, seed=5)


def _run_poisoned(campaign, replications=(0,)):
    """Run ``campaign`` with these replications of point 0 quarantined."""
    plan = FaultPlan([FaultSpec(0, rep, "exception", times=-1) for rep in replications])
    executor = ResilientExecutor(workers=1, max_retries=0, backoff_base_s=0.01)
    return campaign.run(executor=executor, fault_plan=plan)


class TestDegradedTables:
    """A point that lost replications keeps its row, and the table says so."""

    def test_delay_row_of_a_point_that_lost_every_replication(self):
        campaign = build_delay_campaign(
            loads=[3], scenario=_fast_scenario(), scheduler_factories=TWO_SCHEDULERS
        )
        result = reduce_delay(_run_poisoned(campaign))
        lost, kept = result.records
        assert np.isnan(lost["mean_delay_s"]) and np.isnan(lost["carried_kbps"])
        assert (lost["n_seeds"], lost["n_failed"]) == (0, 1)
        assert kept["carried_kbps"] > 0.0 and kept["n_failed"] == 0
        assert "DEGRADED" in result.notes

    def test_capacity_row_of_a_point_that_lost_every_replication(self):
        campaign = build_delay_campaign(
            loads=[3], scenario=_fast_scenario(), scheduler_factories=TWO_SCHEDULERS
        )
        result = reduce_capacity(_run_poisoned(campaign), 5.0)
        lost, kept = result.records
        assert np.isnan(lost["delay@3"]) and lost["n_seeds"] == 0
        assert lost["capacity_users_per_cell"] == 0
        assert kept["capacity_users_per_cell"] == 3
        assert "DEGRADED" in result.notes

    def test_coverage_row_of_a_point_that_lost_every_replication(self):
        campaign = build_coverage_campaign(
            loads=[2], num_drops=1, scheduler_factories=TWO_SCHEDULERS, seed=11
        )
        result = reduce_coverage(_run_poisoned(campaign), campaign.metadata)
        lost, kept = result.records
        assert np.isnan(lost["coverage"]) and np.isnan(lost["fch_outage"])
        assert (lost["n_reps"], lost["n_failed"]) == (0, 1)
        assert 0.0 <= kept["coverage"] <= 1.0
        assert "DEGRADED" in result.notes

    def test_objectives_row_of_a_point_that_lost_every_replication(self):
        campaign = build_objectives_campaign(
            penalty_scales=[0.0, 1.0], load=3, scenario=_fast_scenario()
        )
        result = reduce_objectives(_run_poisoned(campaign), 0.2, 3)
        lost, kept = result.records
        assert lost["objective"] == "J1" and np.isnan(lost["mean_delay_s"])
        assert (lost["n_seeds"], lost["n_failed"]) == (0, 1)
        assert kept["carried_kbps"] > 0.0
        assert "DEGRADED" in result.notes

    def test_comparison_row_of_a_point_that_lost_every_replication(self):
        campaign = build_comparison_campaign(
            loads=[3], scenario=_fast_scenario(), num_seeds=2
        )
        outcome = _run_poisoned(campaign, replications=(0, 1))
        result = compare_schedulers(outcome, "JABA-SD(J1)", "FCFS")
        [row] = result.records
        assert (row["data_users_per_cell"], row["metric"]) == (3, "mean_delay_s")
        assert row["n_pairs"] == 0
        assert np.isnan(row["mean_a"]) and np.isnan(row["delta"])
        assert np.isnan(row["paired_ci"]) and np.isnan(row["ci_ratio"])
        assert "DEGRADED" in result.notes

    def test_admission_statistics_keep_the_degradation_flags(self):
        from repro.experiments.delay_vs_load import reduce_admission

        campaign = build_delay_campaign(
            loads=[3],
            scenario=_fast_scenario(),
            scheduler_factories=TWO_SCHEDULERS,
            num_seeds=2,
        )
        outcome = _run_poisoned(campaign)
        sweep = reduce_delay(outcome)
        result = reduce_admission(outcome, 3)
        assert result.column("n_failed") == sweep.column("n_failed") == [1, 0]
        assert result.column("n_seeds") == sweep.column("n_seeds") == [1, 2]
        assert "DEGRADED" in result.notes


def _printed(capsys, main, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def _resolved_executors(monkeypatch):
    """The executors campaigns resolve from now on, in order."""
    backends = []
    resolve = Campaign._resolve_executor

    def spy(self, executor, workers):
        backends.append(resolve(self, executor, workers))
        return backends[-1]

    monkeypatch.setattr(Campaign, "_resolve_executor", spy)
    return backends


class TestCommandLines:
    """``python -m repro.experiments`` prints what the library path returns."""

    def test_coverage_command_with_checkpoint(self, tmp_path, capsys, monkeypatch):
        checkpoint = tmp_path / "coverage.json"
        argv = ["--experiment", "coverage", "--loads", "2", "3",
                "--schedulers", "JABA-SD(J1)", "FCFS", "--num-drops", "1",
                "--checkpoint", str(checkpoint), "--workers", "2", "--max-retries", "0"]
        backends = _resolved_executors(monkeypatch)
        printed = _printed(capsys, campaign_main, argv)
        # The default executor at --workers 2 takes the retry budget.
        [backend] = backends
        assert isinstance(backend, ResilientExecutor) and backend.max_retries == 0
        campaign = build_coverage_campaign(
            loads=[2, 3], num_drops=1, scheduler_factories=TWO_SCHEDULERS
        )
        expected = reduce_coverage(campaign.run(), campaign.metadata)
        assert printed == expected.to_table() + "\n"
        assert checkpoint.exists()
        # A rerun resumes every replication from the checkpoint; without
        # --max-retries the executor keeps its own default.
        assert _printed(capsys, campaign_main, argv[:-2]) == printed
        assert backends[-1].max_retries == ResilientExecutor(workers=2).max_retries == 2

    @pytest.mark.parametrize(
        "executor", [["--workers", "1"], ["--workers", "2", "--executor", "serial"]]
    )
    def test_retry_budget_without_the_resilient_executor_is_refused(
        self, capsys, executor
    ):
        with pytest.raises(SystemExit):
            campaign_main(["--experiment", "coverage", "--loads", "2",
                           "--num-drops", "1", "--max-retries", "0", *executor])
        assert "--max-retries requires the resilient executor" in capsys.readouterr().err

    def test_delay_command_with_sequential_stopping(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        printed = _printed(capsys, campaign_main, [
            "--experiment", "delay", "--loads", "2",
            "--schedulers", "JABA-SD(J1)", "FCFS",
            "--duration", "1.0", "--warmup", "0.25",
            "--ci-target", "1e-9", "--max-replications", "2",
            "--trace-dir", str(traces),
        ])
        campaign = build_delay_campaign(
            loads=[2],
            scenario=paper_scenario(duration_s=1.0, warmup_s=0.25),
            scheduler_factories=TWO_SCHEDULERS,
        )
        campaign.configure_sequential(1e-9, "mean_delay_s", 2)
        expected = reduce_delay(campaign.run())
        assert printed == expected.to_table() + "\n"
        assert expected.column("n_seeds") == [2, 2]  # the second wave ran
        assert (traces / "campaign.jsonl").exists()
        assert len(list(traces.glob("point*_rep*.jsonl"))) == 4

    def test_capacity_command_with_checkpoint_and_trace(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        printed = _printed(capsys, campaign_main, [
            "--experiment", "capacity", "--loads", "3", "2",
            "--schedulers", "JABA-SD(J1)", "FCFS",
            "--duration", "1.0", "--warmup", "0.25",
            "--checkpoint", str(tmp_path / "t1.json"), "--trace-dir", str(traces),
        ])
        campaign = build_capacity_campaign(
            loads=[3, 2],
            scenario=paper_scenario(duration_s=1.0, warmup_s=0.25),
            scheduler_factories=TWO_SCHEDULERS,
        )
        expected = reduce_capacity(campaign.run(), 1.0)
        assert printed == expected.to_table() + "\n"
        assert (tmp_path / "t1.json").exists()
        assert len(list(traces.glob("point*_rep*.jsonl"))) == 4

    def test_objectives_command_with_checkpoint(self, tmp_path, capsys):
        printed = _printed(capsys, campaign_main, [
            "--experiment", "objectives", "--duration", "1.0", "--warmup", "0.25",
            "--checkpoint", str(tmp_path / "f5.json"),
        ])
        expected = run_objectives_tradeoff(
            scenario=paper_scenario(duration_s=1.0, warmup_s=0.25)
        )
        assert printed == expected.to_table() + "\n"
        assert (tmp_path / "f5.json").exists()

    def test_report_compare_with_sequential_stopping(self, capsys):
        argv = [
            "--compare", "JABA-SD(J1)", "FCFS", "--loads", "2", "--seeds", "2",
            "--duration", "1.0", "--warmup", "0.25", "--max-replications", "3",
        ]
        with pytest.raises(SystemExit):  # the cap without a target is refused
            report_main(argv)
        assert "--max-replications requires --ci-target" in capsys.readouterr().err
        printed = _printed(capsys, report_main, argv + ["--ci-target", "1e-9"])
        campaign = build_comparison_campaign(
            "JABA-SD(J1)",
            "FCFS",
            loads=[2],
            scenario=paper_scenario(duration_s=1.0, warmup_s=0.25),
            num_seeds=2,
        )
        campaign.configure_sequential(1e-9, "mean_delay_s", 3)
        expected = compare_schedulers(campaign.run(), "JABA-SD(J1)", "FCFS")
        assert expected.column("n_pairs")[0] == 3  # the second wave ran
        assert printed.startswith(expected.to_table() + "\n\n(comparison generated in ")
