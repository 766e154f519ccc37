"""Tests for the system configuration dataclasses."""

from dataclasses import replace

import pytest

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
