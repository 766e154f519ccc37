"""Tests for the fixed-rate PHY baseline."""

import pytest

from repro.phy.fixedrate import FixedRatePhy
from repro.phy.modes import ModeTable, TransmissionMode
from repro.phy.vtaoc import VtaocCodec


class TestFixedRatePhy:
    def test_threshold_consistency(self):
        mode = TransmissionMode(index=3, bits_per_symbol=3.0)
        phy = FixedRatePhy(mode, target_ber=1e-3)
        assert phy.ber(phy.threshold) == pytest.approx(1e-3, rel=1e-9)

    def test_instantaneous_throughput_outage(self):
        mode = TransmissionMode(index=2, bits_per_symbol=2.0)
        phy = FixedRatePhy(mode)
        assert phy.instantaneous_throughput(phy.threshold * 0.5) == 0.0
        assert phy.instantaneous_throughput(phy.threshold * 2.0) == 2.0

    def test_average_throughput_below_nominal(self):
        mode = TransmissionMode(index=4, bits_per_symbol=4.0)
        phy = FixedRatePhy(mode)
        assert 0.0 < phy.average_throughput(phy.threshold) < phy.nominal_throughput

    def test_outage_probability_limits(self):
        mode = TransmissionMode(index=1, bits_per_symbol=1.0)
        phy = FixedRatePhy(mode)
        assert phy.outage_probability(0.0) == 1.0
        assert phy.outage_probability(1e9) < 1e-6

    def test_design_for_mean_csi_picks_best(self):
        table = ModeTable.default()
        mean_csi = 10 ** 1.2
        best = FixedRatePhy.design_for_mean_csi(mean_csi, table)
        best_value = best.average_throughput(mean_csi)
        for mode in table:
            other = FixedRatePhy(mode)
            assert best_value >= other.average_throughput(mean_csi) - 1e-12

    def test_adaptive_beats_fixed_rate(self):
        """The headline claim of the adaptive PHY (experiment F1)."""
        codec = VtaocCodec()
        table = ModeTable.default()
        for mean_db in (5.0, 10.0, 15.0, 20.0):
            mean = 10 ** (mean_db / 10)
            fixed = FixedRatePhy.design_for_mean_csi(mean, table)
            assert codec.average_throughput(mean) >= fixed.average_throughput(mean) - 1e-9

    def test_invalid_target(self):
        mode = TransmissionMode(index=1, bits_per_symbol=1.0)
        with pytest.raises(ValueError):
            FixedRatePhy(mode, target_ber=0.4)
