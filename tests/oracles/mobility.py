"""Per-user random-direction mobility: the reference for the fleet.

:class:`RandomDirectionMobility` moves one user at a constant speed along a
straight line, re-draws its heading (and, given a range, its speed) after
an exponentially distributed epoch and reflects it off the region boundary,
one scalar step at a time.  It is the statistical reference that
:class:`repro.geometry.mobility.RandomDirectionFleet` is checked against
(``tests/test_fleet_parity.py`` and the parity block of
``benchmarks/bench_fleet.py``): the fleet draws from one stream for the
whole population, so the two agree in distribution, not sample path.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.geometry.mobility import Bounds, MobilityModel, _check_bounds
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["RandomDirectionMobility"]


def _reflect(value: float, low: float, high: float) -> Tuple[float, bool]:
    """Reflect ``value`` into ``[low, high]``; returns (value, reflected?)."""
    reflected = False
    span = high - low
    # Fold the value into the range by successive reflections.
    while value < low or value > high:
        if value < low:
            value = 2.0 * low - value
        else:
            value = 2.0 * high - value
        reflected = True
        if span <= 0:  # pragma: no cover - defensive
            break
    return value, reflected


class RandomDirectionMobility(MobilityModel):
    """Random-direction mobility with boundary reflection.

    Parameters
    ----------
    initial_position:
        Starting coordinates (m).
    bounds:
        Rectangular simulation region ``(xmin, xmax, ymin, ymax)``.
    speed_m_s:
        Constant speed, or a ``(low, high)`` range re-drawn at each epoch.
    mean_epoch_s:
        Mean duration between direction changes (exponential).
    rng:
        Random generator.
    """

    def __init__(
        self,
        initial_position: np.ndarray,
        bounds: Bounds,
        speed_m_s: float | Tuple[float, float] = 13.9,
        mean_epoch_s: float = 20.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._bounds = _check_bounds(bounds)
        self._position = np.asarray(initial_position, dtype=float).reshape(2).copy()
        self._rng = rng if rng is not None else np.random.default_rng()
        self.mean_epoch_s = check_positive("mean_epoch_s", mean_epoch_s)
        if isinstance(speed_m_s, tuple):
            lo, hi = float(speed_m_s[0]), float(speed_m_s[1])
            if lo < 0 or hi < lo:
                raise ValueError("speed range must satisfy 0 <= low <= high")
            self._speed_range: Optional[Tuple[float, float]] = (lo, hi)
            self._speed = float(self._rng.uniform(lo, hi))
        else:
            self._speed_range = None
            self._speed = check_non_negative("speed_m_s", speed_m_s)
        self._set_direction(float(self._rng.uniform(0.0, 2.0 * math.pi)))
        self._time_to_epoch = float(self._rng.exponential(self.mean_epoch_s))

    def _set_direction(self, direction: float) -> None:
        # The heading unit vector is evaluated once per draw, not once per
        # advance.
        self._direction = direction
        self._dir_cos = math.cos(direction)
        self._dir_sin = math.sin(direction)

    @property
    def position(self) -> np.ndarray:
        return self._position.copy()

    @property
    def speed_m_s(self) -> float:
        return self._speed

    @property
    def direction_rad(self) -> float:
        """Current heading in radians."""
        return self._direction

    def _redraw(self) -> None:
        self._set_direction(float(self._rng.uniform(0.0, 2.0 * math.pi)))
        if self._speed_range is not None:
            self._speed = float(self._rng.uniform(*self._speed_range))
        self._time_to_epoch = float(self._rng.exponential(self.mean_epoch_s))

    def advance(self, dt_s: float) -> float:
        check_non_negative("dt_s", dt_s)
        remaining = dt_s
        travelled = 0.0
        xmin, xmax, ymin, ymax = self._bounds
        while remaining > 0.0:
            step = min(remaining, self._time_to_epoch)
            dx = self._speed * step * self._dir_cos
            dy = self._speed * step * self._dir_sin
            x, rx = _reflect(self._position[0] + dx, xmin, xmax)
            y, ry = _reflect(self._position[1] + dy, ymin, ymax)
            travelled += self._speed * step
            self._position[0] = x
            self._position[1] = y
            if rx or ry:
                # Reverse/regenerate heading after bouncing off the boundary.
                self._set_direction(float(self._rng.uniform(0.0, 2.0 * math.pi)))
            self._time_to_epoch -= step
            remaining -= step
            if self._time_to_epoch <= 0.0:
                self._redraw()
        return travelled
