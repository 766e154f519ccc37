"""Tests for CDMA entities, pilot measurements and loading snapshots."""

import numpy as np
import pytest

from repro.cdma.entities import BaseStation, MobileStation, UserClass
from repro.cdma.loading import ForwardLinkLoad, ReverseLinkLoad
from repro.cdma.pilot import forward_pilot_ec_io, reverse_pilot_ec_io
from repro.geometry.mobility import StaticMobility


class TestBaseStation:
    def test_traffic_power_budget(self):
        bs = BaseStation(index=0, position=np.zeros(2), max_tx_power_w=20.0,
                         common_channel_power_w=4.0, pilot_power_w=2.0)
        assert bs.max_traffic_power_w == pytest.approx(16.0)

    def test_reverse_interference_ceiling(self):
        bs = BaseStation(index=0, position=np.zeros(2), noise_power_w=1e-13,
                         max_rise_over_thermal_db=6.0)
        assert bs.max_reverse_interference_w == pytest.approx(1e-13 * 10 ** 0.6)

    def test_invalid_overheads(self):
        with pytest.raises(ValueError):
            BaseStation(index=0, position=np.zeros(2), max_tx_power_w=10.0,
                        common_channel_power_w=12.0)
        with pytest.raises(ValueError):
            BaseStation(index=0, position=np.zeros(2), common_channel_power_w=1.0,
                        pilot_power_w=2.0)


class TestMobileStation:
    def test_static_factory(self):
        mobile = MobileStation.static(3, [100.0, 200.0], user_class=UserClass.VOICE)
        assert mobile.index == 3
        assert np.allclose(mobile.position, [100.0, 200.0])
        assert mobile.user_class is UserClass.VOICE

    def test_rate_factor_validation(self):
        with pytest.raises(ValueError):
            MobileStation(index=0, user_class=UserClass.DATA,
                          mobility=StaticMobility([0, 0]), fch_rate_factor=0.0)
        with pytest.raises(ValueError):
            MobileStation(index=0, user_class=UserClass.DATA,
                          mobility=StaticMobility([0, 0]), fch_rate_factor=1.5)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            MobileStation(index=0, user_class=UserClass.DATA,
                          mobility=StaticMobility([0, 0]), max_tx_power_w=0.0)


class TestForwardPilot:
    def test_shares_sum_below_one(self):
        gains = np.array([[1e-10, 5e-12], [2e-11, 3e-11]])
        total = np.array([10.0, 10.0])
        pilot = np.array([1.0, 1.0])
        ec_io = forward_pilot_ec_io(gains, total, pilot, mobile_noise_power_w=1e-13)
        assert ec_io.shape == (2, 2)
        # Pilot is 10% of the total power, so each Ec/Io must be below 0.1.
        assert np.all(ec_io < 0.1)
        assert np.all(ec_io > 0.0)

    def test_stronger_cell_has_stronger_pilot(self):
        gains = np.array([[1e-10, 1e-12]])
        ec_io = forward_pilot_ec_io(gains, np.array([10.0, 10.0]),
                                    np.array([1.0, 1.0]), 1e-13)
        assert ec_io[0, 0] > ec_io[0, 1]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            forward_pilot_ec_io(np.ones(3), np.ones(3), np.ones(3), 1e-13)
        with pytest.raises(ValueError):
            forward_pilot_ec_io(np.ones((2, 3)), np.ones(2), np.ones(3), 1e-13)


class TestReversePilot:
    def test_basic_computation(self):
        gains = np.array([[1e-12, 1e-13]])
        pilots = np.array([0.01])
        totals = np.array([1e-13, 1e-13])
        ec_io = reverse_pilot_ec_io(gains, pilots, totals)
        assert ec_io[0, 0] == pytest.approx(0.01 * 1e-12 / 1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            reverse_pilot_ec_io(np.ones((2, 2)), np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            reverse_pilot_ec_io(np.ones((2, 2)), np.ones(2), np.zeros(2))


class TestLoadingSnapshots:
    def test_forward_headroom(self):
        load = ForwardLinkLoad(
            max_traffic_power_w=np.array([10.0, 10.0]),
            current_power_w=np.array([4.0, 12.0]),
            fch_power_w=np.zeros((3, 2)),
        )
        assert np.allclose(load.headroom_w(), [6.0, 0.0])
        assert np.allclose(load.utilisation(), [0.4, 1.2])
        assert load.num_cells == 2
        assert load.num_mobiles == 3

    def test_forward_shape_validation(self):
        with pytest.raises(ValueError):
            ForwardLinkLoad(np.ones(2), np.ones(3), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ForwardLinkLoad(np.ones(2), np.ones(2), np.zeros((3, 5)))

    def test_reverse_headroom_and_rise(self):
        load = ReverseLinkLoad(
            max_interference_w=np.array([4e-13]),
            current_interference_w=np.array([2e-13]),
            reverse_pilot_strength=np.zeros((2, 1)),
            forward_pilot_strength=np.zeros((2, 1)),
            fch_pilot_power_ratio=np.array([4.0, 4.0]),
        )
        assert load.headroom_w()[0] == pytest.approx(2e-13)
        assert load.rise_over_thermal_db(np.array([1e-13]))[0] == pytest.approx(3.01, abs=0.01)

    def test_reverse_shape_validation(self):
        with pytest.raises(ValueError):
            ReverseLinkLoad(np.ones(1), np.ones(2), np.zeros((2, 1)),
                            np.zeros((2, 1)), np.ones(2))
        with pytest.raises(ValueError):
            ReverseLinkLoad(np.ones(1), np.ones(1), np.zeros((2, 2)),
                            np.zeros((2, 1)), np.ones(2))

    def test_measured_loads_check_their_own_inputs(self):
        # J = 3 mobiles, K = 2 cells; each case mis-shapes one input, which
        # must be refused when the load is built, not broadcast at row time.
        forward = dict(max_traffic_power_w=np.ones(2), current_power_w=np.ones(2),
                       fch_allocation_w=np.zeros((3, 2)), rate_factor=np.ones(3))
        reverse = dict(max_interference_w=np.ones(2), current_interference_w=np.ones(2),
                       fch_pilot_power_ratio=np.ones(3), gains=np.ones((3, 2)),
                       mobile_pilot_tx_power_w=np.ones(3), bs_pilot_power_w=np.ones(2),
                       mobile_received_power_w=np.ones(3))
        assert ForwardLinkLoad.measured(**forward).fch_power_w.shape == (3, 2)
        assert ReverseLinkLoad.measured(**reverse).forward_pilot_strength.shape == (3, 2)
        wrong = {(3,): np.ones(2), (2,): np.ones(3), (3, 2): np.ones((3, 3))}
        for build, inputs in ((ForwardLinkLoad.measured, forward),
                              (ReverseLinkLoad.measured, reverse)):
            for name, value in inputs.items():
                with pytest.raises(ValueError):
                    build(**{**inputs, name: wrong[value.shape]})
