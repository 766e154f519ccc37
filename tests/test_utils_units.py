"""Tests for repro.utils.units."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.units import db_to_linear, linear_to_db


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_three_db_is_about_two(self):
        assert db_to_linear(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_linear_to_db_of_unity(self):
        assert linear_to_db(1.0) == pytest.approx(0.0)

    def test_linear_to_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-2.0)

    def test_array_round_trip(self):
        values = np.array([0.1, 1.0, 3.7, 250.0])
        assert np.allclose(db_to_linear(linear_to_db(values)), values)

    @given(st.floats(min_value=-120.0, max_value=120.0))
    def test_round_trip_property(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-9)
