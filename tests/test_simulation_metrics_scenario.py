"""Tests for the metrics collector, the scenario configuration and seed averages."""

import math

import numpy as np
import pytest

from repro.experiments.campaign import PointResult
from repro.experiments.delay_vs_load import build_delay_campaign
from repro.mac.requests import LinkDirection
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.scenario import MobilityConfig, ScenarioConfig, TrafficConfig


class TestMetricsCollector:
    def test_packet_call_delay_accounting(self):
        metrics = MetricsCollector(warmup_s=0.0)
        metrics.record_packet_call_arrival(1.0, 1000.0)
        metrics.record_packet_call_completion(1.0, 3.0, 1000.0, LinkDirection.FORWARD)
        metrics.record_packet_call_arrival(2.0, 500.0)
        metrics.record_packet_call_completion(2.0, 2.5, 500.0, LinkDirection.REVERSE)
        assert metrics.delay_all.mean == pytest.approx(1.25)
        assert metrics.delay_per_link[LinkDirection.FORWARD].mean == pytest.approx(2.0)
        assert metrics.delay_per_link[LinkDirection.REVERSE].mean == pytest.approx(0.5)
        assert metrics.completed_calls == 2
        assert metrics.served_bits == pytest.approx(1500.0)

    def test_warmup_excludes_early_arrivals(self):
        metrics = MetricsCollector(warmup_s=5.0)
        metrics.record_packet_call_arrival(1.0, 1000.0)
        metrics.record_packet_call_completion(1.0, 6.0, 1000.0, LinkDirection.FORWARD)
        # Arrived during warm-up: not counted even though it completed later.
        assert metrics.completed_calls == 0
        metrics.record_packet_call_arrival(6.0, 2000.0)
        metrics.record_packet_call_completion(6.0, 7.0, 2000.0, LinkDirection.FORWARD)
        assert metrics.completed_calls == 1

    def test_frame_and_admission_records(self):
        metrics = MetricsCollector()
        metrics.record_frame(0.0, pending_requests=3, forward_utilisation=0.5,
                             reverse_rise_db=2.0, fch_outage_fraction=0.1)
        metrics.record_frame(1.0, pending_requests=5, forward_utilisation=0.7,
                             reverse_rise_db=3.0, fch_outage_fraction=0.2)
        metrics.record_admission(0.0, num_pending=4, num_granted=2,
                                 granted_ms=np.array([3, 0, 5, 0]))
        assert metrics.queue_length.mean == pytest.approx(4.0)
        assert metrics.granted_m.mean == pytest.approx(4.0)
        assert metrics.granted_requests == 2
        assert metrics.pending_request_frames == 4

    def test_summary(self):
        metrics = MetricsCollector()
        metrics.record_packet_call_arrival(0.0, 8000.0)
        metrics.record_frame(0.0, 1, 0.3, 1.0, 0.0)
        metrics.record_packet_call_completion(0.0, 2.0, 8000.0, LinkDirection.FORWARD)
        metrics.record_frame(4.0, 0, 0.2, 1.0, 0.0)
        result = metrics.summarise("test-sched", num_data_users=10, num_voice_users=5)
        assert isinstance(result, SimulationResult)
        assert result.scheduler == "test-sched"
        assert result.duration_s == pytest.approx(4.0)
        assert result.carried_throughput_bps == pytest.approx(2000.0)
        record = result.as_record()
        assert record["scheduler"] == "test-sched"
        assert "mean_delay_s" in record

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            MetricsCollector(warmup_s=-1.0)


class TestScenarioConfig:
    def test_population_counts(self):
        scenario = ScenarioConfig(num_data_users_per_cell=4, num_voice_users_per_cell=2)
        # Default system has 1 ring = 7 cells.
        assert scenario.total_data_users == 28
        assert scenario.total_voice_users == 14

    def test_with_load_and_seed(self):
        scenario = ScenarioConfig()
        loaded = scenario.with_load(20)
        reseeded = scenario.with_seed(99)
        assert loaded.num_data_users_per_cell == 20
        assert reseeded.seed == 99
        assert scenario.num_data_users_per_cell != 20 or scenario.seed != 99

    def test_fast_test_factory(self):
        scenario = ScenarioConfig.fast_test()
        assert scenario.duration_s <= 5.0
        assert scenario.total_data_users <= 7 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            TrafficConfig(forward_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficConfig(mean_reading_time_s=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(speed_range_m_s=(5.0, 1.0))


class TestAverageResults:
    """Averages over seeds: the summary of one campaign point's replications."""

    def _result(self, delay, throughput_kbps):
        # A subset of the metrics one dynamic replication reports.
        return {"mean_delay_s": delay, "carried_kbps": throughput_kbps, "grant_rate": 0.8}

    def _point(self, *results):
        return PointResult(index=0, params={}, replications=dict(enumerate(results)))

    def test_mean_of_fields(self):
        summary = self._point(self._result(1.0, 1000.0), self._result(3.0, 3000.0)).summary()
        assert summary["mean_delay_s"].mean == pytest.approx(2.0)
        assert summary["carried_kbps"].mean == pytest.approx(2000.0)
        assert summary["grant_rate"].mean == pytest.approx(0.8)

    def test_nan_fields_ignored(self):
        point = self._point(self._result(1.0, 1000.0), self._result(math.nan, 3000.0))
        summary = point.summary()
        assert summary["mean_delay_s"].mean == pytest.approx(1.0)
        assert summary["mean_delay_s"].non_finite == 1
        assert summary["carried_kbps"].mean == pytest.approx(2000.0)
        assert point.non_finite_replications() == [1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_delay_campaign(loads=[], scenario=ScenarioConfig.fast_test())
