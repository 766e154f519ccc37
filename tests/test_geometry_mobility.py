"""Tests for the mobility models."""

import numpy as np
import pytest

from repro.geometry.mobility import (
    MobilityBatch,
    MobilityModel,
    RandomDirectionMobility,
    StaticMobility,
)

BOUNDS = (-1000.0, 1000.0, -1000.0, 1000.0)


class _RandomStepMobility(MobilityModel):
    """A model outside MobilityBatch's vector kernel: one random heading per advance."""

    def __init__(self, position, rng, speed_m_s=10.0):
        self._position = np.asarray(position, dtype=float).copy()
        self._rng = rng
        self._speed = speed_m_s

    @property
    def position(self):
        return self._position.copy()

    @property
    def speed_m_s(self):
        return self._speed

    def advance(self, dt_s):
        heading = self._rng.uniform(0.0, 2.0 * np.pi)
        step = self._speed * dt_s
        self._position += step * np.array([np.cos(heading), np.sin(heading)])
        return step


class TestStaticMobility:
    def test_never_moves(self):
        model = StaticMobility([10.0, 20.0])
        assert model.advance(100.0) == 0.0
        assert np.allclose(model.position, [10.0, 20.0])
        assert model.speed_m_s == 0.0

    def test_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            StaticMobility([0, 0]).advance(-1.0)


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


class TestBatchedMobility:
    def _make_models(self, n, seed, bounds=(-500.0, 500.0, -400.0, 400.0)):
        rng = np.random.default_rng(seed)
        models = []
        for _ in range(n):
            start = rng.uniform([-400, -300], [400, 300])
            models.append(
                RandomDirectionMobility(
                    start, bounds, speed_m_s=(5.0, 20.0), mean_epoch_s=0.5, rng=rng
                )
            )
        return models

    def test_mobility_batch_bit_identical_to_loop(self):
        # mean_epoch_s=0.5 with dt=0.05 forces frequent epoch/boundary
        # fallbacks, exercising both the vector path and the scalar resync.
        loop_models = self._make_models(30, seed=23)
        batch_models = self._make_models(30, seed=23)
        batch = MobilityBatch(batch_models)
        for _ in range(60):
            expected = np.asarray([m.advance(0.05) for m in loop_models])
            got = batch.advance(0.05)
            assert np.array_equal(expected, got)
            expected_pos = np.vstack([m.position for m in loop_models])
            assert np.array_equal(expected_pos, batch.positions)

    def test_mobility_batch_shares_position_storage(self):
        models = self._make_models(4, seed=3)
        buffer = np.zeros((4, 2))
        batch = MobilityBatch(models, positions_out=buffer)
        batch.advance(0.1)
        assert np.array_equal(buffer, np.vstack([m.position for m in models]))

    def test_all_static_fast_path(self):
        models = [StaticMobility(np.array([float(i), 0.0])) for i in range(8)]
        batch = MobilityBatch(models)
        assert np.array_equal(batch.advance(1.0), np.zeros(8))
        assert np.array_equal(batch.positions[:, 0], np.arange(8.0))

    def test_mixed_population(self):
        rng = np.random.default_rng(5)
        bounds = (-500.0, 500.0, -400.0, 400.0)
        models = [
            StaticMobility(np.array([10.0, 20.0])),
            RandomDirectionMobility(np.zeros(2), bounds, rng=rng),
            _RandomStepMobility(np.zeros(2), rng),
        ]
        batch = MobilityBatch(models)
        moved = batch.advance(0.2)
        assert moved[0] == 0.0
        assert moved[1] > 0.0
        assert moved[2] > 0.0
        assert np.array_equal(batch.positions[0], [10.0, 20.0])

    def test_negative_dt_rejected(self):
        models = self._make_models(2, seed=1)
        with pytest.raises(ValueError):
            MobilityBatch(models).advance(-0.1)


class TestSharedMobilesAcrossBatches:
    def test_two_batches_over_same_models_stay_consistent(self):
        # Mobiles reused by two networks (ablation sweeps): each network's
        # batch must keep tracking the true positions even though the other
        # batch rebinds the models' storage.
        bounds = (-500.0, 500.0, -400.0, 400.0)

        def make(seed):
            rng = np.random.default_rng(seed)
            return [
                RandomDirectionMobility(
                    rng.uniform([-400, -300], [400, 300]),
                    bounds,
                    speed_m_s=(5.0, 20.0),
                    mean_epoch_s=0.5,
                    rng=rng,
                )
                for _ in range(20)
            ]

        shared = make(31)
        reference = make(31)
        batch_a = MobilityBatch(shared)
        batch_b = MobilityBatch(shared)  # rebinds storage away from batch_a
        for _ in range(50):
            moved_a = batch_a.advance(0.05)
            expected_a = np.asarray([m.advance(0.05) for m in reference])
            assert np.array_equal(moved_a, expected_a)
            assert np.array_equal(
                batch_a.positions, np.vstack([m.position for m in reference])
            )
            moved_b = batch_b.advance(0.05)
            expected_b = np.asarray([m.advance(0.05) for m in reference])
            assert np.array_equal(moved_b, expected_b)
            assert np.array_equal(
                batch_b.positions, np.vstack([m.position for m in reference])
            )


class TestMixedPopulationRngOrder:
    def test_batch_matches_loop_with_shared_rng(self):
        # A custom model at a LOWER index than random-direction models, all
        # sharing one generator: the batch must consume draws in global
        # index order exactly like the plain per-model loop.
        bounds = (-500.0, 500.0, -400.0, 400.0)

        def make(seed):
            rng = np.random.default_rng(seed)
            models = [_RandomStepMobility(np.zeros(2), rng)]
            for _ in range(6):
                models.append(
                    RandomDirectionMobility(
                        rng.uniform([-400, -300], [400, 300]),
                        bounds,
                        speed_m_s=(5.0, 20.0),
                        mean_epoch_s=0.3,
                        rng=rng,
                    )
                )
            models.append(StaticMobility(np.array([1.0, 2.0])))
            return models

        loop_models = make(41)
        batch = MobilityBatch(make(41))
        for _ in range(80):
            expected = np.asarray([m.advance(0.05) for m in loop_models])
            got = batch.advance(0.05)
            assert np.array_equal(expected, got)
            assert np.array_equal(
                batch.positions, np.vstack([m.position for m in loop_models])
            )
