"""Tests for repro.utils.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import Histogram, RunningStats, confidence_interval


class TestRunningStats:
    def test_empty_is_nan(self):
        rs = RunningStats()
        assert math.isnan(rs.mean)
        assert math.isnan(rs.std)
        assert rs.count == 0

    def test_single_value(self):
        rs = RunningStats()
        rs.add(4.0)
        assert rs.mean == 4.0
        assert rs.min == 4.0
        assert rs.max == 4.0
        assert math.isnan(rs.variance)

    def test_known_values(self):
        rs = RunningStats()
        rs.add_many([1.0, 2.0, 3.0, 4.0])
        assert rs.mean == pytest.approx(2.5)
        assert rs.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
        assert rs.total == pytest.approx(10.0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=60
        )
    )
    def test_matches_numpy(self, values):
        rs = RunningStats()
        rs.add_many(values)
        assert rs.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)
        assert rs.variance == pytest.approx(
            float(np.var(values, ddof=1)), rel=1e-7, abs=1e-4
        )
        assert rs.min == min(values)
        assert rs.max == max(values)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
    )
    def test_merge_equals_pooled(self, left, right):
        a = RunningStats()
        a.add_many(left)
        b = RunningStats()
        b.add_many(right)
        merged = a.merge(b)
        pooled = RunningStats()
        pooled.add_many(left + right)
        assert merged.count == pooled.count
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(pooled.variance, rel=1e-6, abs=1e-6)

    def test_merge_with_empty(self):
        a = RunningStats()
        a.add_many([1.0, 2.0])
        empty = RunningStats()
        assert a.merge(empty).mean == pytest.approx(1.5)
        assert empty.merge(a).mean == pytest.approx(1.5)


class TestHistogram:
    def test_counts_and_mean(self):
        h = Histogram(upper=10.0, bins=10)
        h.add_many([0.5, 1.5, 2.5, 9.5])
        assert h.count == 4
        assert h.mean == pytest.approx(3.5)

    def test_overflow_bin(self):
        h = Histogram(upper=1.0, bins=4)
        h.add(5.0)
        edges, counts = h.as_arrays()
        assert counts[-1] == 1
        assert h.max == 5.0

    def test_percentile_monotone(self):
        h = Histogram(upper=100.0, bins=100)
        h.add_many(np.linspace(0, 99, 200))
        p50 = h.percentile(50)
        p90 = h.percentile(90)
        assert p50 <= p90
        assert p50 == pytest.approx(50, abs=2)
        assert p90 == pytest.approx(90, abs=2)

    def test_percentile_never_underestimates(self):
        values = [1.0, 2.0, 3.0, 50.0]
        h = Histogram(upper=60.0, bins=30)
        h.add_many(values)
        assert h.percentile(100) >= max(values) - 1e-9

    def test_rejects_negative(self):
        h = Histogram(upper=1.0)
        with pytest.raises(ValueError):
            h.add(-0.1)

    def test_empty_percentile_nan(self):
        assert math.isnan(Histogram(upper=1.0).percentile(50))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(upper=0.0)
        with pytest.raises(ValueError):
            Histogram(upper=1.0, bins=0)


class TestConfidenceInterval:
    def test_empty(self):
        mean, half = confidence_interval([])
        assert math.isnan(mean) and math.isnan(half)

    def test_single_sample(self):
        # One sample carries no dispersion information: an honest "unknown"
        # half-width, not a spuriously certain 0.0.
        mean, half = confidence_interval([3.0])
        assert mean == 3.0 and math.isnan(half)

    def test_interval_contains_mean_of_tight_samples(self):
        mean, half = confidence_interval([1.0, 1.1, 0.9, 1.05, 0.95])
        assert mean == pytest.approx(1.0)
        assert 0.0 < half < 0.2

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.5)
