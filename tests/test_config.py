"""Tests for the system configuration dataclasses."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cdma.entities import MobileStation
from repro.cdma.network import CdmaNetwork
from repro.config import MacConfig, PhyConfig, RadioConfig, SystemConfig


class TestPhyConfig:
    def test_defaults_valid(self):
        phy = PhyConfig()
        assert phy.num_modes == 6
        assert phy.sch_reference_csi == pytest.approx(10 ** (phy.sch_reference_csi_db / 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            PhyConfig(num_modes=0)
        with pytest.raises(ValueError):
            PhyConfig(target_ber=1.5)
        with pytest.raises(ValueError):
            PhyConfig(gamma_s_forward=0.0)


class TestRadioConfig:
    def test_derived_quantities(self):
        radio = RadioConfig()
        assert radio.fch_processing_gain == pytest.approx(
            radio.bandwidth_hz / radio.fch_bit_rate_bps
        )
        assert radio.fch_ebio_target == pytest.approx(10 ** (radio.fch_ebio_target_db / 10))
        assert radio.bs_noise_power_w > 0.0
        assert radio.mobile_noise_power_w > radio.bs_noise_power_w  # worse noise figure
        assert radio.fch_pilot_power_ratio == pytest.approx(1.0 / radio.reverse_pilot_overhead)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(cell_radius_m=0.0)
        with pytest.raises(ValueError):
            RadioConfig(orthogonality_factor=1.5)
        with pytest.raises(ValueError):
            RadioConfig(control_channel_rate_fraction=0.0)
        with pytest.raises(ValueError):
            RadioConfig(fch_max_power_fraction=1.5)

    # Each of these used to validate and then fail when a network was built:
    # in BaseStation, or with a ZeroDivisionError in fch_pilot_power_ratio.
    @pytest.mark.parametrize(
        "overrides",
        [
            {"bs_common_channel_fraction": 0.0},
            {"bs_pilot_fraction": 0.3},
            {"bs_common_channel_fraction": 1.0},
            {"bs_pilot_fraction": 0.0},
            {"reverse_pilot_overhead": 0.0},
        ],
        ids=lambda overrides: "=".join(map(str, *overrides.items())),
    )
    def test_refuses_values_that_cannot_build_a_network(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=name):
            RadioConfig(**overrides)

    @pytest.mark.parametrize("pilot, common", [(0.2, 0.2), (0.01, 0.99)])
    def test_accepted_power_fractions_build_a_network(self, pilot, common):
        radio = RadioConfig(bs_pilot_fraction=pilot, bs_common_channel_fraction=common)
        network = CdmaNetwork(
            SystemConfig().with_overrides(radio=radio),
            [MobileStation.static(0, np.zeros(2))],
            np.random.default_rng(0),
        )
        assert network.snapshot().num_cells == radio.num_cells


class TestMacConfig:
    def test_defaults_valid(self):
        mac = MacConfig()
        assert mac.max_spreading_gain_ratio == 16
        assert mac.t2_s < mac.t3_s

    def test_validation(self):
        with pytest.raises(ValueError):
            MacConfig(frame_duration_s=0.0)
        with pytest.raises(ValueError):
            MacConfig(t2_s=5.0, t3_s=1.0)
        with pytest.raises(ValueError):
            MacConfig(min_burst_duration_s=1.0, max_burst_duration_s=0.5)
        with pytest.raises(ValueError):
            MacConfig(forward_admission_margin=1.5)


class TestSystemConfig:
    def test_with_overrides(self):
        config = SystemConfig()
        modified = config.with_overrides(radio=replace(config.radio, num_rings=2))
        assert modified.radio.num_rings == 2
        assert config.radio.num_rings == 1  # original untouched
        assert modified.phy == config.phy

    def test_small_test_system(self):
        config = SystemConfig.small_test_system()
        assert config.radio.num_rings == 1
        assert config.radio.cell_radius_m == 800.0
