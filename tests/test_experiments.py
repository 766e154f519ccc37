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
from repro.experiments.common import ExperimentResult


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
