"""Tests for the path-loss models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channel.pathloss import LogDistancePathLoss


class TestLogDistancePathLoss:
    def test_reference_distance_loss(self):
        model = LogDistancePathLoss(exponent=4.0, reference_loss_db=128.1,
                                    reference_distance_m=1000.0)
        assert model.loss_db(1000.0) == pytest.approx(128.1)

    def test_exponent_slope(self):
        model = LogDistancePathLoss(exponent=4.0, reference_loss_db=100.0,
                                    reference_distance_m=1000.0)
        # Doubling the distance adds 10*n*log10(2) ~ 12.04 dB for n = 4.
        assert model.loss_db(2000.0) - model.loss_db(1000.0) == pytest.approx(
            12.041, abs=1e-2
        )

    def test_gain_below_unity(self):
        model = LogDistancePathLoss()
        assert 0.0 < model.gain(500.0) < 1.0

    def test_near_field_clipped(self):
        model = LogDistancePathLoss()
        assert model.loss_db(0.0) == model.loss_db(model.min_distance_m)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss().loss_db(-1.0)

    def test_array_input(self):
        model = LogDistancePathLoss()
        distances = np.array([100.0, 1000.0, 5000.0])
        losses = model.loss_db(distances)
        assert losses.shape == (3,)
        assert np.all(np.diff(losses) > 0)

    @given(st.floats(min_value=10.0, max_value=50_000.0),
           st.floats(min_value=10.0, max_value=50_000.0))
    def test_monotone_in_distance(self, d1, d2):
        model = LogDistancePathLoss()
        if d1 > d2:
            d1, d2 = d2, d1
        assert model.loss_db(d1) <= model.loss_db(d2) + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_distance_m=0.0)

