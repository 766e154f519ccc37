"""Tests for the static mobility model and the per-user random-direction reference."""

import numpy as np
import pytest

from repro.geometry.mobility import StaticMobility
from tests.oracles.mobility import RandomDirectionMobility
from tests.test_cdma_network import build_network

BOUNDS = (-1000.0, 1000.0, -1000.0, 1000.0)


class TestStaticMobility:
    def test_never_moves(self):
        model = StaticMobility([10.0, 20.0])
        model.position[0] = 99.0  # a copy: the caller cannot move the user
        assert np.array_equal(model.position, [10.0, 20.0])

    def test_rejects_negative_dt(self):
        # Static mobiles keep no clock of their own: the network that holds
        # them refuses to run time backwards.
        network, _ = build_network(num_data=2, num_voice=2)
        with pytest.raises(ValueError):
            network.advance(-1.0)
        assert network.time_s == 0.0


class TestRandomDirectionMobility:
    def test_stays_inside_bounds(self):
        rng = np.random.default_rng(0)
        model = RandomDirectionMobility([0.0, 0.0], BOUNDS, speed_m_s=50.0,
                                        mean_epoch_s=5.0, rng=rng)
        for _ in range(500):
            model.advance(1.0)
            x, y = model.position
            assert BOUNDS[0] - 1e-6 <= x <= BOUNDS[1] + 1e-6
            assert BOUNDS[2] - 1e-6 <= y <= BOUNDS[3] + 1e-6

    def test_travelled_distance_matches_speed(self):
        rng = np.random.default_rng(1)
        model = RandomDirectionMobility([0.0, 0.0], BOUNDS, speed_m_s=10.0, rng=rng)
        assert model.advance(3.0) == pytest.approx(30.0)

    def test_zero_speed_stays_put(self):
        model = RandomDirectionMobility([5.0, 5.0], BOUNDS, speed_m_s=0.0,
                                        rng=np.random.default_rng(0))
        model.advance(10.0)
        assert np.allclose(model.position, [5.0, 5.0])

    def test_speed_range(self):
        rng = np.random.default_rng(2)
        model = RandomDirectionMobility([0.0, 0.0], BOUNDS, speed_m_s=(1.0, 5.0),
                                        mean_epoch_s=0.5, rng=rng)
        for _ in range(50):
            model.advance(1.0)
            assert 1.0 <= model.speed_m_s <= 5.0

    def test_direction_changes_over_time(self):
        rng = np.random.default_rng(3)
        model = RandomDirectionMobility([0.0, 0.0], BOUNDS, speed_m_s=1.0,
                                        mean_epoch_s=1.0, rng=rng)
        first = model.direction_rad
        model.advance(50.0)
        assert model.direction_rad != pytest.approx(first)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomDirectionMobility([0, 0], (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            RandomDirectionMobility([0, 0], BOUNDS, speed_m_s=-1.0)
        with pytest.raises(ValueError):
            RandomDirectionMobility([0, 0], BOUNDS, speed_m_s=(5.0, 1.0))
        with pytest.raises(ValueError):
            RandomDirectionMobility([0, 0], BOUNDS, mean_epoch_s=0.0)
