"""Tests for the link-gain map and the soft hand-off controller."""

import math

import numpy as np
import pytest

from repro.cdma.handoff import SoftHandoffController, membership_matrix
from repro.cdma.linkgain import LinkGainMap
from repro.geometry.hexgrid import HexagonalCellLayout


@pytest.fixture
def layout():
    return HexagonalCellLayout(num_rings=1, cell_radius_m=1000.0)


class TestLinkGainMap:
    def test_shapes(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=5, rng=rng)
        positions = np.zeros((5, 2))
        gains.set_positions(positions)
        assert gains.local_mean_gain().shape == (5, 7)
        assert gains.distances_m.shape == (5, 7)

    def test_nearest_cell_has_highest_path_gain(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=1, rng=rng, shadowing_std_db=0.0)
        position = layout.position_of(3) + np.array([50.0, 0.0])
        gains.set_positions(position.reshape(1, 2))
        row = gains.local_mean_gain()[0]
        assert int(np.argmax(row)) == 3

    def test_shadowing_statistics(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=200, rng=rng, shadowing_std_db=8.0,
                            site_correlation=0.5)
        shadow = gains.shadowing_db()
        assert abs(np.mean(shadow)) < 1.0
        assert np.std(shadow) == pytest.approx(8.0, rel=0.15)

    def test_site_correlation(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=2000, rng=rng, shadowing_std_db=8.0,
                            site_correlation=0.5)
        shadow = gains.shadowing_db()
        corr = np.corrcoef(shadow[:, 0], shadow[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.1)

    def test_shadowing_keeps_its_statistics_across_frames(self, layout, rng):
        # 200 advances with a fixed step: the process stays stationary with
        # std sigma, cross-site correlation rho and lag-1 correlation
        # a = exp(-step/d_corr).  The samples are correlated across sites
        # (rho) and frames (a^lag); over 60 seeds at 201 frames x 500 mobiles
        # x 7 cells the estimates spread with standard deviations of 0.26 %
        # (std), 0.0028 (pooled cross-site correlation) and 0.0009 (lag-1
        # correlation).  Each tolerance is at least 5 of them.
        sigma, rho, d_corr, step, frames = 8.0, 0.5, 50.0, 10.0, 200
        num_mobiles = 500
        gains = LinkGainMap(layout, num_mobiles=num_mobiles, rng=rng,
                            shadowing_std_db=sigma, decorrelation_distance_m=d_corr,
                            site_correlation=rho)
        positions = np.zeros((num_mobiles, 2))
        moved = np.full(num_mobiles, step)
        samples = [gains.shadowing_db()]
        for _ in range(frames):
            gains.advance(positions, moved_m=moved)
            samples.append(gains.shadowing_db())
        shadow = np.stack(samples)  # (frame, mobile, cell)

        assert np.std(shadow) == pytest.approx(sigma, rel=0.015)
        site_corr = np.corrcoef(shadow.reshape(-1, layout.num_cells), rowvar=False)
        off_diagonal = site_corr[~np.eye(layout.num_cells, dtype=bool)]
        assert np.mean(off_diagonal) == pytest.approx(rho, abs=0.02)
        lag1 = np.corrcoef(shadow[:-1].ravel(), shadow[1:].ravel())[0, 1]
        assert lag1 == pytest.approx(math.exp(-step / d_corr), abs=0.006)

    def test_advance_keeps_shadowing_when_static(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=2, rng=rng, shadowing_std_db=8.0)
        positions = np.zeros((2, 2))
        gains.set_positions(positions)
        before = gains.shadowing_db().copy()
        gains.advance(positions, moved_m=np.zeros(2))
        assert np.allclose(before, gains.shadowing_db())

    def test_validation(self, layout, rng):
        with pytest.raises(ValueError):
            LinkGainMap(layout, num_mobiles=-1, rng=rng)
        with pytest.raises(ValueError):
            LinkGainMap(layout, num_mobiles=1, rng=rng, site_correlation=1.5)
        gains = LinkGainMap(layout, num_mobiles=1, rng=rng)
        with pytest.raises(ValueError):
            gains.advance(np.zeros((1, 2)), moved_m=np.array([-1.0]))


class TestSoftHandoffController:
    def _pilot_matrix(self, strengths):
        return np.asarray(strengths, dtype=float)

    def test_strongest_cell_is_serving(self):
        controller = SoftHandoffController(num_mobiles=1)
        pilots = self._pilot_matrix([[0.05, 0.01, 0.001]])
        controller.update(pilots)
        state = controller.state(0)
        assert state.serving_cell == 0
        assert 0 in state.active_set

    def test_add_threshold(self):
        controller = SoftHandoffController(num_mobiles=1, add_threshold_db=-14.0,
                                           drop_threshold_db=-16.0)
        # Second pilot below the add threshold (-20 dB) must not join.
        pilots = self._pilot_matrix([[10 ** -1.0, 10 ** -2.0]])
        controller.update(pilots)
        assert controller.state(0).active_set == [0]

    def test_soft_handoff_when_pilots_comparable(self):
        controller = SoftHandoffController(num_mobiles=1)
        pilots = self._pilot_matrix([[10 ** -1.0, 10 ** -1.1]])
        controller.update(pilots)
        state = controller.state(0)
        assert state.in_soft_handoff
        assert len(state.active_set) == 2

    def test_drop_hysteresis(self):
        controller = SoftHandoffController(num_mobiles=1, add_threshold_db=-14.0,
                                           drop_threshold_db=-16.0)
        strong = 10 ** -1.0
        # Join at -13 dB...
        controller.update(self._pilot_matrix([[strong, 10 ** -1.3]]))
        assert len(controller.state(0).active_set) == 2
        # ... stay at -15 dB (above drop threshold) ...
        controller.update(self._pilot_matrix([[strong, 10 ** -1.5]]))
        assert len(controller.state(0).active_set) == 2
        # ... leave below -16 dB.
        controller.update(self._pilot_matrix([[strong, 10 ** -1.7]]))
        assert controller.state(0).active_set == [0]

    def test_reduced_active_set_size(self):
        controller = SoftHandoffController(num_mobiles=1, max_active_set_size=3,
                                           reduced_active_set_size=2)
        pilots = self._pilot_matrix([[0.08, 0.07, 0.06, 0.001]])
        controller.update(pilots)
        state = controller.state(0)
        assert len(state.active_set) == 3
        assert len(state.reduced_active_set) == 2
        assert state.reduced_active_set == state.active_set[:2]

    def test_active_set_capped(self):
        controller = SoftHandoffController(num_mobiles=1, max_active_set_size=2)
        pilots = self._pilot_matrix([[0.08, 0.07, 0.06]])
        controller.update(pilots)
        assert len(controller.state(0).active_set) == 2

    def test_always_keeps_strongest_even_in_hole(self):
        controller = SoftHandoffController(num_mobiles=1)
        pilots = self._pilot_matrix([[1e-6, 1e-7]])
        controller.update(pilots)
        assert controller.state(0).active_set == [0]

    def test_matrices_and_fraction(self):
        controller = SoftHandoffController(num_mobiles=2)
        pilots = self._pilot_matrix([[0.08, 0.07], [0.08, 0.001]])
        controller.update(pilots)
        active = controller.active_set_matrix(2)
        reduced = membership_matrix(controller.reduced_active_sets(), 2)
        assert active[0].sum() == 2 and active[1].sum() == 1
        assert reduced.shape == (2, 2)
        assert controller.soft_handoff_fraction() == pytest.approx(0.5)
        assert list(controller.serving_cells()) == [0, 0]

    def test_shared_views_are_read_only(self):
        # Snapshots hold these; a write would corrupt the next update's
        # change detection and the serving cells.
        controller = SoftHandoffController(num_mobiles=2)
        controller.update(self._pilot_matrix([[0.08, 0.07], [0.08, 0.001]]))
        for shared in (controller.reduced_active_sets(), controller.active_set_matrix(2)):
            with pytest.raises(ValueError):
                shared[:] = shared[::-1]

    def test_handoff_event_counter(self):
        controller = SoftHandoffController(num_mobiles=1)
        controller.update(self._pilot_matrix([[0.08, 0.001]]))
        events_after_first = controller.handoff_events
        controller.update(self._pilot_matrix([[0.001, 0.08]]))
        assert controller.handoff_events > events_after_first

    def test_validation(self):
        with pytest.raises(ValueError):
            SoftHandoffController(num_mobiles=1, add_threshold_db=-16.0,
                                  drop_threshold_db=-14.0)
        with pytest.raises(ValueError):
            SoftHandoffController(num_mobiles=1, reduced_active_set_size=5,
                                  max_active_set_size=3)
        controller = SoftHandoffController(num_mobiles=2)
        with pytest.raises(ValueError):
            controller.update(np.ones((3, 4)))


class TestLocalMeanGainCache:
    def test_cache_returns_same_array_until_invalidated(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=4, rng=rng)
        gains.set_positions(np.zeros((4, 2)))
        first = gains.local_mean_gain()
        assert gains.local_mean_gain() is first  # cached, no rebuild
        gains.set_positions(np.full((4, 2), 100.0))
        second = gains.local_mean_gain()
        assert second is not first
        assert not np.array_equal(first, second)

    def test_one_build_per_advance(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=4, rng=rng)
        gains.set_positions(np.zeros((4, 2)))
        gains.local_mean_gain()
        builds = gains.local_mean_builds
        gains.advance(np.zeros((4, 2)), moved_m=np.full(4, 5.0))
        for _ in range(5):
            gains.local_mean_gain()
        assert gains.local_mean_builds == builds + 1

    def test_cached_matrix_is_read_only(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=2, rng=rng)
        gains.set_positions(np.zeros((2, 2)))
        matrix = gains.local_mean_gain()
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_cache_matches_fresh_computation(self, layout, rng):
        gains = LinkGainMap(layout, num_mobiles=6, rng=rng, shadowing_std_db=8.0)
        gains.set_positions(rng.uniform(-500, 500, size=(6, 2)))
        expected = np.exp((gains.shadowing_db() - gains._loss_db) * (math.log(10.0) / 10.0))
        assert np.array_equal(gains.local_mean_gain(), expected)


def _reference_handoff_update(controller, previous_sets, pilots):
    """Transcription of the seed's per-mobile hand-off loop (ground truth)."""
    add_lin = 10.0 ** (controller.add_threshold_db / 10.0)
    drop_lin = 10.0 ** (controller.drop_threshold_db / 10.0)
    new_sets, events = [], 0
    for j in range(pilots.shape[0]):
        row = pilots[j]
        retained = [k for k in previous_sets[j] if row[k] >= drop_lin]
        order = np.argsort(row)[::-1]
        for k in order:
            k = int(k)
            if row[k] < add_lin:
                break
            if k not in retained:
                retained.append(k)
        if not retained:
            retained = [int(order[0])]
        retained.sort(key=lambda cell: -row[cell])
        retained = retained[: controller.max_active_set_size]
        if retained != previous_sets[j]:
            events += 1
        new_sets.append(retained)
    return new_sets, events


class TestVectorisedHandoffParity:
    """The array-kernel update reproduces the per-mobile reference loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_trajectories_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_mobiles, num_cells = 17, 7
        controller = SoftHandoffController(num_mobiles=num_mobiles)
        reference_sets = [[] for _ in range(num_mobiles)]
        reference_events = 0
        for _ in range(30):
            # Log-uniform pilots around the add/drop thresholds.
            pilots = 10.0 ** rng.uniform(-2.5, -0.5, size=(num_mobiles, num_cells))
            controller.update(pilots)
            reference_sets, events = _reference_handoff_update(
                controller, reference_sets, pilots
            )
            reference_events += events
            for j in range(num_mobiles):
                state = controller.state(j)
                assert state.active_set == reference_sets[j]
                assert state.serving_cell == reference_sets[j][0]
                assert (
                    state.reduced_active_set
                    == reference_sets[j][: controller.reduced_active_set_size]
                )
        assert controller.handoff_events == reference_events

    def test_matrices_match_states(self):
        rng = np.random.default_rng(9)
        controller = SoftHandoffController(num_mobiles=10)
        pilots = 10.0 ** rng.uniform(-2.5, -0.5, size=(10, 7))
        controller.update(pilots)
        active = controller.active_set_matrix(7)
        reduced = membership_matrix(controller.reduced_active_sets(), 7)
        for j in range(10):
            state = controller.state(j)
            assert sorted(np.flatnonzero(active[j])) == sorted(state.active_set)
            assert sorted(np.flatnonzero(reduced[j])) == sorted(
                state.reduced_active_set
            )

    def test_states_sequence_semantics(self):
        controller = SoftHandoffController(num_mobiles=3)
        controller.update(np.asarray([[0.08, 0.07], [0.08, 0.001], [0.001, 0.08]]))
        states = controller.states
        assert len(states) == 3
        assert [s.serving_cell for s in states] == [0, 0, 1]
        assert states[-1].serving_cell == 1
        with pytest.raises(IndexError):
            states[3]
