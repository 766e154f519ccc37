"""Tests for the forward/reverse power-control solvers."""

import numpy as np
import pytest

from repro.cdma.powercontrol import ForwardLinkPowerControl, ReverseLinkPowerControl
from tests.oracles.powercontrol import forward_solve, reverse_solve


def two_cell_gains():
    """Two mobiles, two cells; mobile j is close to cell j."""
    return np.array([[1e-12, 1e-14], [1e-14, 1e-12]])


class TestReverseLinkPowerControl:
    def make(self, **kwargs):
        defaults = dict(processing_gain=128.0, ebio_target=5.0, pilot_overhead=0.25,
                        max_tx_power_w=0.2, iterations=50)
        defaults.update(kwargs)
        return ReverseLinkPowerControl(**defaults)

    def test_targets_met_in_light_load(self):
        pc = self.make()
        gains = two_cell_gains()
        result = pc.solve(
            gains=gains,
            serving_cells=np.array([0, 1]),
            active=np.array([True, True]),
            noise_power_w=np.full(2, 1e-13),
        )
        assert np.all(result.achieved_sir >= 5.0 * 0.99)
        assert not result.power_limited.any()
        assert np.all(result.tx_power_w > 0.0)

    def test_inactive_mobile_transmits_nothing(self):
        pc = self.make()
        result = pc.solve(
            gains=two_cell_gains(),
            serving_cells=np.array([0, 1]),
            active=np.array([True, False]),
            noise_power_w=np.full(2, 1e-13),
        )
        assert result.tx_power_w[1] == 0.0
        assert np.isnan(result.achieved_sir[1])

    def test_total_power_includes_noise_and_extra(self):
        pc = self.make()
        extra = np.array([5e-13, 0.0])
        result = pc.solve(
            gains=two_cell_gains(),
            serving_cells=np.array([0, 1]),
            active=np.array([False, False]),
            noise_power_w=np.full(2, 1e-13),
            extra_received_power_w=extra,
        )
        assert result.total_power_w[0] == pytest.approx(6e-13)
        assert result.total_power_w[1] == pytest.approx(1e-13)

    def test_power_limited_mobile_flagged(self):
        pc = self.make(max_tx_power_w=1e-6)
        # Very weak link: even the maximum power cannot reach the target.
        gains = np.array([[1e-16, 1e-18]])
        result = pc.solve(
            gains=gains,
            serving_cells=np.array([0]),
            active=np.array([True]),
            noise_power_w=np.full(2, 1e-13),
        )
        assert result.power_limited[0]
        assert result.achieved_sir[0] < 5.0

    def test_rate_factor_reduces_power(self):
        pc = self.make()
        gains = two_cell_gains()
        full = pc.solve(gains, np.array([0, 1]), np.array([True, True]),
                        np.full(2, 1e-13), rate_factor=np.array([1.0, 1.0]))
        eighth = pc.solve(gains, np.array([0, 1]), np.array([True, True]),
                          np.full(2, 1e-13), rate_factor=np.array([0.125, 0.125]))
        assert np.all(eighth.tx_power_w < full.tx_power_w)
        # Both still achieve the Eb/Io target at their own rate.
        assert np.all(eighth.achieved_sir >= 5.0 * 0.99)

    def test_interference_coupling_raises_power(self):
        """More active users per cell -> each needs more transmit power."""
        pc = self.make()
        gains_single = np.array([[1e-12, 1e-14]])
        single = pc.solve(gains_single, np.array([0]), np.array([True]),
                          np.full(2, 1e-13))
        gains_many = np.vstack([gains_single] * 8)
        many = pc.solve(gains_many, np.zeros(8, dtype=int), np.full(8, True),
                        np.full(2, 1e-13))
        assert many.tx_power_w[0] > single.tx_power_w[0]

    def test_rate_factor_validation(self):
        pc = self.make()
        with pytest.raises(ValueError):
            pc.solve(two_cell_gains(), np.array([0, 1]), np.array([True, True]),
                     np.full(2, 1e-13), rate_factor=np.array([0.0, 1.0]))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ReverseLinkPowerControl(processing_gain=0.0, ebio_target=5.0)
        with pytest.raises(ValueError):
            ReverseLinkPowerControl(processing_gain=128.0, ebio_target=5.0,
                                    pilot_overhead=-0.1)
        with pytest.raises(ValueError):
            ReverseLinkPowerControl(processing_gain=128.0, ebio_target=5.0, iterations=0)

    def test_solution_is_the_fixed_point(self):
        # One Yates sweep from the solved totals returns them: the solve is
        # exact, not a stopped iteration.
        pc = self.make()
        gains = np.vstack([two_cell_gains()] * 20)
        args = dict(gains=gains, serving_cells=np.tile([0, 1], 20),
                    active=np.ones(40, dtype=bool), noise_power_w=np.full(2, 1e-13))
        result = pc.solve(**args)
        swept = reverse_solve(pc, **args, tolerance=0.0, iterations=1,
                              start_total_power_w=result.total_power_w)
        np.testing.assert_allclose(swept.total_power_w, result.total_power_w,
                                   rtol=1e-12, atol=0.0)
        assert not result.infeasible
        assert result.iterations == 1

    def test_past_pole_capacity_is_flagged_infeasible(self):
        # 400 full-rate users on one cell need more than the cell can take:
        # every mobile ends at its power cap.
        pc = self.make()
        result = pc.solve(
            gains=np.full((400, 1), 1e-12),
            serving_cells=np.zeros(400, dtype=int),
            active=np.ones(400, dtype=bool),
            noise_power_w=np.array([1e-13]),
        )
        assert result.infeasible
        assert np.all(result.tx_power_w == 0.2 / 1.25)
        assert result.power_limited.all()

    def test_round_cap_raises(self):
        # The weak link needs a second round (its cap binds); a cap of one
        # round refuses to return a point that is not the fixed point.
        weak = dict(gains=np.array([[1e-16, 1e-18]]), serving_cells=np.array([0]),
                    active=np.array([True]), noise_power_w=np.full(2, 1e-13))
        assert self.make(max_tx_power_w=1e-6).solve(**weak).iterations == 2
        with pytest.raises(RuntimeError, match="1 rounds"):
            self.make(max_tx_power_w=1e-6, iterations=1).solve(**weak)

    def test_non_positive_noise_refused(self):
        # With no noise the all-zero powers would be a fixed point as well.
        pc = self.make()
        with pytest.raises(ValueError, match="noise_power_w"):
            pc.solve(two_cell_gains(), np.array([0, 1]), np.array([True, True]),
                     np.array([1e-13, 0.0]))

    def test_negative_committed_power_refused(self):
        pc = self.make()
        with pytest.raises(ValueError, match="extra_received_power_w"):
            pc.solve(two_cell_gains(), np.array([0, 1]), np.array([True, True]),
                     np.full(2, 1e-13), extra_received_power_w=np.array([0.0, -1e-14]))


class TestForwardLinkPowerControl:
    def make(self, **kwargs):
        defaults = dict(processing_gain=128.0, ebio_target=5.0, orthogonality_factor=0.6,
                        mobile_noise_power_w=1e-13, iterations=50)
        defaults.update(kwargs)
        return ForwardLinkPowerControl(**defaults)

    def solve_basic(self, pc, gains, active_set=None, active=None, **kwargs):
        num_mobiles, num_cells = gains.shape
        if active_set is None:
            active_set = np.zeros_like(gains, dtype=bool)
            active_set[np.arange(num_mobiles), np.argmax(gains, axis=1)] = True
        if active is None:
            active = np.full(num_mobiles, True)
        return pc.solve(
            gains=gains,
            active_set=active_set,
            active=active,
            base_power_w=np.full(num_cells, 2.0),
            max_traffic_power_w=np.full(num_cells, 16.0),
            **kwargs,
        )

    def test_targets_met_in_light_load(self):
        pc = self.make()
        result = self.solve_basic(pc, two_cell_gains())
        assert np.all(result.achieved_sir >= 5.0 * 0.99)
        assert not result.power_limited.any()

    def test_edge_user_costs_more(self):
        pc = self.make()
        gains = np.array([[1e-12, 1e-13], [2e-14, 1.5e-14]])  # user 1 at cell edge
        result = self.solve_basic(pc, gains)
        assert result.tx_power_w[1].sum() > result.tx_power_w[0].sum()

    def test_soft_handoff_splits_power_across_legs(self):
        pc = self.make()
        gains = np.array([[5e-13, 5e-13]])
        active_set = np.array([[True, True]])
        result = self.solve_basic(pc, gains, active_set=active_set)
        assert result.tx_power_w[0, 0] > 0.0
        assert result.tx_power_w[0, 1] > 0.0
        assert np.all(result.achieved_sir >= 5.0 * 0.99)

    def test_budget_scaling_flags_outage(self):
        pc = self.make()
        # Many far users exceed the per-cell budget.
        gains = np.full((200, 1), 3e-15)
        active_set = np.full((200, 1), True)
        result = pc.solve(
            gains=gains,
            active_set=active_set,
            active=np.full(200, True),
            base_power_w=np.array([2.0]),
            max_traffic_power_w=np.array([16.0]),
        )
        traffic_power = result.tx_power_w.sum()
        assert traffic_power <= 16.0 + 1e-6
        assert result.power_limited.any()

    def test_saturated_cell_keeps_committed_power_within_budget(self):
        # Far users saturate both cells while granted SCH bursts hold part of
        # the budget: the FCH allocations shrink into the room the bursts
        # leave, so the cell power stays at P_max (a scale of
        # budget / (fch + extra) would leave it above P_max).
        pc = self.make()
        base, budget, extra = 2.0, 16.0, np.array([5.0, 12.0])
        result = pc.solve(
            gains=np.full((300, 2), 3e-15),
            active_set=np.ones((300, 2), dtype=bool),
            active=np.ones(300, dtype=bool),
            base_power_w=np.full(2, base),
            max_traffic_power_w=np.full(2, budget),
            extra_traffic_power_w=extra,
        )
        p_max = base + budget
        assert np.all(result.total_power_w <= p_max * (1.0 + 1e-12))
        assert np.all(result.total_power_w >= p_max * (1.0 - 1e-12))
        np.testing.assert_allclose(result.tx_power_w.sum(axis=0), budget - extra, rtol=1e-12)
        assert result.power_limited.all()

    def test_extra_traffic_power_reduces_headroom(self):
        pc = self.make()
        gains = two_cell_gains()
        no_extra = self.solve_basic(pc, gains)
        with_extra = self.solve_basic(
            pc, gains, extra_traffic_power_w=np.array([5.0, 0.0])
        )
        assert with_extra.total_power_w[0] > no_extra.total_power_w[0]
        # The higher interference makes the FCH allocations grow as well.
        assert with_extra.tx_power_w.sum() > no_extra.tx_power_w.sum()

    def test_per_link_cap(self):
        pc = self.make()
        gains = np.array([[1e-15, 1e-16]])
        result = self.solve_basic(pc, gains, max_link_power_w=0.1)
        assert result.tx_power_w.max() <= 0.1 + 1e-12
        assert result.power_limited[0]

    def test_rate_factor_reduces_allocation(self):
        pc = self.make()
        gains = two_cell_gains()
        full = self.solve_basic(pc, gains, rate_factor=np.array([1.0, 1.0]))
        eighth = self.solve_basic(pc, gains, rate_factor=np.array([0.125, 0.125]))
        assert eighth.tx_power_w.sum() < full.tx_power_w.sum()
        assert np.all(eighth.achieved_sir >= 5.0 * 0.99)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ForwardLinkPowerControl(processing_gain=128.0, ebio_target=5.0,
                                    orthogonality_factor=1.5)
        with pytest.raises(ValueError):
            ForwardLinkPowerControl(processing_gain=128.0, ebio_target=5.0,
                                    mobile_noise_power_w=0.0)

    def test_solution_is_the_fixed_point(self):
        # Ten edge users in soft hand-off hit the per-link cap on both legs.
        pc = self.make()
        gains = np.vstack([two_cell_gains(), [[2e-14, 1.5e-14]]] * 10)
        active_set = gains >= 0.5 * gains.max(axis=1, keepdims=True)
        args = dict(gains=gains, active_set=active_set, active=np.ones(30, dtype=bool),
                    base_power_w=np.full(2, 2.0), max_traffic_power_w=np.full(2, 16.0),
                    extra_traffic_power_w=np.array([1.0, 0.0]), max_link_power_w=0.3)
        result = pc.solve(**args)
        swept = forward_solve(pc, **args, tolerance=0.0, iterations=1,
                              start_total_power_w=result.total_power_w)
        np.testing.assert_allclose(swept.total_power_w, result.total_power_w,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(swept.tx_power_w, result.tx_power_w,
                                   rtol=1e-12, atol=0.0)
        assert np.count_nonzero(result.tx_power_w == 0.3) == 10
        assert not result.infeasible

    def test_idle_cell_without_common_power_stays_at_zero(self):
        # No common-channel power (bs_common_channel_fraction = 0, which
        # RadioConfig now refuses, but the solver takes any base power): a
        # cell with no active leg has a total of exactly zero, which is not a
        # sign of infeasibility.
        pc = self.make()
        result = pc.solve(
            gains=np.array([[1e-12, 1e-14, 1e-15]]),
            active_set=np.array([[True, False, False]]),
            active=np.array([True]),
            base_power_w=np.zeros(3),
            max_traffic_power_w=np.full(3, 20.0),
        )
        assert not result.infeasible
        assert result.total_power_w[1] == 0.0 and result.total_power_w[2] == 0.0
        assert result.total_power_w[0] > 0.0
        assert result.achieved_sir[0] == pytest.approx(5.0, rel=1e-12)

    def test_negative_committed_power_refused(self):
        pc = self.make()
        with pytest.raises(ValueError, match="extra_traffic_power_w"):
            self.solve_basic(pc, two_cell_gains(),
                             extra_traffic_power_w=np.array([-1.0, 0.0]))

    def test_negative_link_cap_refused(self):
        pc = self.make()
        with pytest.raises(ValueError, match="max_link_power_w"):
            self.solve_basic(pc, two_cell_gains(), max_link_power_w=-1.0)
