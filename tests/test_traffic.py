"""Tests for the traffic models."""

import numpy as np
import pytest

from repro.traffic.data import PacketCall, PacketCallDataSource, TruncatedParetoSize
from repro.traffic.voice import OnOffVoiceSource


class TestOnOffVoiceSource:
    def test_activity_factor_definition(self):
        source = OnOffVoiceSource(mean_talk_s=1.0, mean_silence_s=1.5,
                                  rng=np.random.default_rng(0))
        assert source.activity_factor == pytest.approx(0.4)

    def test_long_run_activity(self):
        rng = np.random.default_rng(1)
        source = OnOffVoiceSource(mean_talk_s=1.0, mean_silence_s=1.5, rng=rng)
        dt = 0.02
        active = sum(source.advance(dt) for _ in range(200_000))
        assert active / 200_000 == pytest.approx(0.4, abs=0.02)

    def test_multiple_transitions_within_step(self):
        rng = np.random.default_rng(2)
        source = OnOffVoiceSource(mean_talk_s=0.01, mean_silence_s=0.01, rng=rng)
        # A huge step spans many transitions and must not raise.
        source.advance(10.0)

    def test_start_state_override(self):
        source = OnOffVoiceSource(rng=np.random.default_rng(0), start_active=True)
        assert source.is_active

    def test_invalid(self):
        with pytest.raises(ValueError):
            OnOffVoiceSource(mean_talk_s=0.0)
        with pytest.raises(ValueError):
            OnOffVoiceSource().advance(-1.0)


class TestTruncatedParetoSize:
    def test_samples_within_bounds(self):
        dist = TruncatedParetoSize(shape=1.8, minimum_bits=1000.0, maximum_bits=50_000.0)
        rng = np.random.default_rng(0)
        samples = dist.sample(rng, size=10_000)
        assert np.all(samples >= 1000.0)
        assert np.all(samples <= 50_000.0)

    def test_mean_matches_monte_carlo(self):
        dist = TruncatedParetoSize(shape=1.8, minimum_bits=20_000.0,
                                   maximum_bits=2_000_000.0)
        rng = np.random.default_rng(1)
        samples = dist.sample(rng, size=400_000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.03)

    def test_mean_with_unit_shape(self):
        dist = TruncatedParetoSize(shape=1.0, minimum_bits=1000.0, maximum_bits=10_000.0)
        rng = np.random.default_rng(2)
        samples = dist.sample(rng, size=400_000)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.03)

    def test_scalar_sample(self):
        dist = TruncatedParetoSize()
        value = dist.sample(np.random.default_rng(0))
        assert isinstance(value, float)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TruncatedParetoSize(shape=0.0)
        with pytest.raises(ValueError):
            TruncatedParetoSize(minimum_bits=100.0, maximum_bits=50.0)


class TestPacketCallDataSource:
    def test_arrivals_in_order(self):
        source = PacketCallDataSource(mean_reading_time_s=1.0,
                                      rng=np.random.default_rng(0), initial_delay_s=0.0)
        calls = source.pull_arrivals(until_s=20.0)
        times = [c.arrival_time_s for c in calls]
        assert times == sorted(times)
        assert all(isinstance(c, PacketCall) for c in calls)
        assert all(c.size_bits > 0 for c in calls)

    def test_incremental_pulls_do_not_duplicate(self):
        source = PacketCallDataSource(mean_reading_time_s=0.5,
                                      rng=np.random.default_rng(1), initial_delay_s=0.0)
        first = source.pull_arrivals(5.0)
        second = source.pull_arrivals(10.0)
        assert all(c.arrival_time_s <= 5.0 for c in first)
        assert all(5.0 < c.arrival_time_s <= 10.0 for c in second)

    def test_arrival_rate(self):
        source = PacketCallDataSource(mean_reading_time_s=2.0,
                                      rng=np.random.default_rng(2), initial_delay_s=0.0)
        calls = source.pull_arrivals(4000.0)
        assert len(calls) == pytest.approx(2000, rel=0.1)

    def test_offered_load(self):
        source = PacketCallDataSource(mean_reading_time_s=4.0,
                                      rng=np.random.default_rng(3))
        expected = source.size_distribution.mean() / 4.0
        assert source.offered_load_bps() == pytest.approx(expected)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PacketCallDataSource(mean_reading_time_s=0.0)
        with pytest.raises(ValueError):
            PacketCallDataSource(initial_delay_s=-1.0)
