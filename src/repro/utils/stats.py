"""Streaming statistics utilities used by the metrics collectors.

Dynamic simulations produce millions of samples (per-frame delays, loads,
SIRs); storing them all would be wasteful, so the collectors in
:mod:`repro.simulation.metrics` are built on the streaming accumulators in
this module:

* :class:`RunningStats` — Welford-style running mean/variance/min/max.
* :class:`Histogram` — fixed-bin histogram with percentile queries, used for
  delay tail statistics.

The confidence intervals at the end (plain, paired and Welch) are what the
campaign engine reports per metric.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np


class RunningStats:
    """Numerically stable streaming mean / variance / extremes (Welford).

    Examples
    --------
    >>> rs = RunningStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     rs.add(x)
    >>> rs.mean
    2.0
    >>> round(rs.variance, 6)
    1.0
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Accumulate one sample."""
        value = float(value)
        self._count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_many(self, values: Iterable[float]) -> None:
        """Accumulate an iterable of samples."""
        for value in values:
            self.add(value)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to seeing both sample sets."""
        merged = RunningStats()
        if self._count == 0:
            merged.__setstate__(other.__getstate__())
            return merged
        if other._count == 0:
            merged.__setstate__(self.__getstate__())
            return merged
        count = self._count + other._count
        delta = other._mean - self._mean
        merged._count = count
        merged._total = self._total + other._total
        merged._mean = self._mean + delta * other._count / count
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._count * other._count / count
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def __getstate__(self):
        return (self._count, self._mean, self._m2, self._min, self._max, self._total)

    def __setstate__(self, state):
        (self._count, self._mean, self._m2, self._min, self._max, self._total) = state

    @property
    def count(self) -> int:
        """Number of samples seen."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._total

    @property
    def mean(self) -> float:
        """Sample mean (``nan`` when empty)."""
        return self._mean if self._count > 0 else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``nan`` with fewer than two samples)."""
        if self._count < 2:
            return math.nan
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    @property
    def min(self) -> float:
        """Minimum sample (``nan`` when empty)."""
        return self._min if self._count > 0 else math.nan

    @property
    def max(self) -> float:
        """Maximum sample (``nan`` when empty)."""
        return self._max if self._count > 0 else math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RunningStats(count={self._count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class Histogram:
    """Fixed-bin histogram supporting approximate percentile queries.

    Parameters
    ----------
    upper:
        Upper edge of the histogram range; samples above it land in the
        overflow bin and are counted exactly (their values are also tracked
        by a running maximum).
    bins:
        Number of equal-width bins between 0 and ``upper``.
    """

    def __init__(self, upper: float, bins: int = 200) -> None:
        if upper <= 0.0:
            raise ValueError("upper must be positive")
        if bins < 1:
            raise ValueError("bins must be at least 1")
        self._upper = float(upper)
        self._bins = int(bins)
        self._counts = np.zeros(bins + 1, dtype=np.int64)  # last bin = overflow
        self._width = self._upper / self._bins
        self._stats = RunningStats()

    def add(self, value: float) -> None:
        """Insert one non-negative sample."""
        value = float(value)
        if value < 0.0:
            raise ValueError("Histogram only accepts non-negative samples")
        idx = int(value / self._width)
        if idx >= self._bins:
            idx = self._bins
        self._counts[idx] += 1
        self._stats.add(value)

    def add_many(self, values: Iterable[float]) -> None:
        """Insert many samples."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Total number of samples."""
        return int(self._counts.sum())

    @property
    def mean(self) -> float:
        """Exact mean of the inserted samples."""
        return self._stats.mean

    @property
    def max(self) -> float:
        """Exact maximum of the inserted samples."""
        return self._stats.max

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0 <= q <= 100).

        The estimate is the upper edge of the bin in which the requested
        rank falls, hence it is conservative (never under-estimates).  The
        exception is the lowest rank: ``q = 0`` (and any ``q`` small enough
        that its rank clamps to the first sample) refers to the observed
        minimum, which is tracked exactly — returning the first bin's upper
        edge there would *over*-estimate.  Returns ``nan`` when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        total = self.count
        if total == 0:
            return math.nan
        target = math.ceil(q / 100.0 * total)
        target = max(target, 1)
        if target <= 1:
            return self._stats.min
        cumulative = np.cumsum(self._counts)
        idx = int(np.searchsorted(cumulative, target))
        if idx >= self._bins:
            return self._stats.max
        return (idx + 1) * self._width

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(bin_edges, counts)`` including the overflow bin."""
        edges = np.linspace(0.0, self._upper, self._bins + 1)
        return edges, self._counts.copy()


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Return ``(mean, half_width)`` of a normal-approximation CI.

    Uses the Student-t quantile from :mod:`scipy.stats` when more than one
    sample is available.  A single sample carries no dispersion information,
    so the half-width is ``nan`` (an honest "unknown", rendered as ``—`` in
    report tables) rather than a spuriously certain ``0.0``; no samples give
    ``(nan, nan)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, math.nan
    from scipy import stats as scipy_stats

    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    tval = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return mean, tval * sem


def paired_confidence_interval(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Return ``(mean_delta, half_width)`` of the paired-t CI for ``a - b``.

    The samples must be *paired*: ``a[i]`` and ``b[i]`` observed under the
    same random-number stream (common random numbers).  The CI is then the
    one-sample Student-t interval on the differences ``d_i = a_i - b_i``
    with ``n - 1`` degrees of freedom — under positive correlation (the CRN
    case) this is strictly tighter than the unpaired interval from
    :func:`unpaired_confidence_interval` on the same data.
    """
    arr_a = np.asarray(list(a), dtype=float)
    arr_b = np.asarray(list(b), dtype=float)
    if arr_a.size != arr_b.size:
        raise ValueError(
            f"paired samples must have equal length (got {arr_a.size} and {arr_b.size})"
        )
    return confidence_interval(arr_a - arr_b, confidence)


def unpaired_confidence_interval(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Return ``(mean_delta, half_width)`` of the Welch CI for ``a - b``.

    Treats the two samples as independent (no common random numbers):
    standard error ``sqrt(s_a^2/n_a + s_b^2/n_b)`` with Welch–Satterthwaite
    degrees of freedom.  Either side with fewer than two samples yields a
    ``nan`` half-width.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    arr_a = np.asarray(list(a), dtype=float)
    arr_b = np.asarray(list(b), dtype=float)
    if arr_a.size == 0 or arr_b.size == 0:
        return math.nan, math.nan
    mean = float(arr_a.mean()) - float(arr_b.mean())
    if arr_a.size < 2 or arr_b.size < 2:
        return mean, math.nan
    var_a = float(arr_a.var(ddof=1))
    var_b = float(arr_b.var(ddof=1))
    se_sq = var_a / arr_a.size + var_b / arr_b.size
    if se_sq == 0.0:
        return mean, 0.0
    df = se_sq**2 / (
        (var_a / arr_a.size) ** 2 / (arr_a.size - 1)
        + (var_b / arr_b.size) ** 2 / (arr_b.size - 1)
    )
    from scipy import stats as scipy_stats

    tval = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))
    return mean, tval * math.sqrt(se_sq)
