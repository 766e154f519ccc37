"""Tests for the snapshot (drop) simulator and for runs over several seeds."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.experiments.delay_vs_load import build_delay_campaign
from repro.mac import JabaSdScheduler
from repro.mac.requests import LinkDirection
from repro.simulation import ScenarioConfig, SnapshotSimulator
from repro.simulation.scenario import TrafficConfig


@pytest.fixture(scope="module")
def config():
    return SystemConfig.small_test_system()


class TestSnapshotSimulator:
    def test_result_fields(self, config):
        simulator = SnapshotSimulator(config, JabaSdScheduler("J1"),
                                      num_data_users_per_cell=4,
                                      num_voice_users_per_cell=4, seed=1)
        result = simulator.run_drops(3)
        assert result.num_drops == 3
        assert 0.0 <= result.coverage <= 1.0
        assert 0.0 <= result.grant_fraction <= 1.0
        assert result.mean_granted_rate_bps >= 0.0
        assert result.per_user_rates_bps.shape == (3 * 4 * 7,)
        record = result.as_record()
        assert record["scheduler"] == simulator.scheduler.name

    def test_reproducible(self, config):
        a = SnapshotSimulator(config, JabaSdScheduler("J1"), num_data_users_per_cell=3,
                              seed=5).run_drops(2)
        b = SnapshotSimulator(config, JabaSdScheduler("J1"), num_data_users_per_cell=3,
                              seed=5).run_drops(2)
        assert a.coverage == pytest.approx(b.coverage)
        assert np.allclose(a.per_user_rates_bps, b.per_user_rates_bps)

    def test_reverse_link_supported(self, config):
        result = SnapshotSimulator(config, JabaSdScheduler("J1"),
                                   num_data_users_per_cell=3,
                                   link=LinkDirection.REVERSE, seed=2).run_drops(2)
        assert result.grant_fraction > 0.0

    def test_more_users_less_coverage(self, config):
        light = SnapshotSimulator(config, JabaSdScheduler("J1"),
                                  num_data_users_per_cell=2, seed=3).run_drops(4)
        heavy = SnapshotSimulator(config, JabaSdScheduler("J1"),
                                  num_data_users_per_cell=16, seed=3).run_drops(4)
        assert heavy.coverage <= light.coverage + 1e-9

    def test_validation(self, config):
        with pytest.raises(ValueError):
            SnapshotSimulator(config, JabaSdScheduler("J1"), num_data_users_per_cell=0)
        with pytest.raises(ValueError):
            SnapshotSimulator(config, JabaSdScheduler("J1"), burst_size_bits=0.0)
        simulator = SnapshotSimulator(config, JabaSdScheduler("J1"))
        with pytest.raises(ValueError):
            simulator.run_drops(0)


class TestRunner:
    """Runs of a dynamic scenario over seeds and loads: the delay campaign."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return ScenarioConfig.fast_test(
            duration_s=2.0, warmup_s=0.5,
            traffic=TrafficConfig(mean_reading_time_s=1.0,
                                  packet_call_min_bits=24_000,
                                  packet_call_max_bits=200_000),
        )

    def test_run_scenario_multiple_seeds(self, scenario):
        campaign = build_delay_campaign(
            loads=[2], scenario=scenario,
            scheduler_factories={"jaba": "JABA-SD(J1)"}, num_seeds=2,
        )
        (point,) = campaign.run().points
        assert point.params["scheduler"] == "jaba"
        assert sorted(point.replications) == [0, 1]
        # Each seed drives its own traffic.
        offered = [point.replications[rep]["offered_kbps"] for rep in (0, 1)]
        assert offered[0] != offered[1]

    def test_run_scenario_invalid_seeds(self, scenario):
        with pytest.raises(ValueError):
            build_delay_campaign(
                loads=[2], scenario=scenario,
                scheduler_factories={"fcfs": "FCFS"}, num_seeds=0,
            )

    def test_sweep_parameter(self, scenario):
        campaign = build_delay_campaign(
            loads=[2, 3], scenario=scenario,
            scheduler_factories={"jaba": "JABA-SD(J1)", "fcfs": "FCFS"},
            num_seeds=1,
        )
        sweep = {}
        for point in campaign.run().points:
            assert sorted(point.replications) == [0]
            sweep.setdefault(point.params["scheduler"], []).append(point)
        assert set(sweep) == {"jaba", "fcfs"}
        assert len(sweep["jaba"]) == 2
        assert sweep["jaba"][0].params["scenario"].total_data_users == 2 * 7
        assert sweep["jaba"][1].params["scenario"].total_data_users == 3 * 7
