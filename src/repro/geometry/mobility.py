"""User mobility models.

The paper's evaluation is a dynamic simulation "which takes into account of
the user mobility".  Users move with the random-direction model: a straight
line at a constant speed, re-drawing direction (and optionally speed) after
an exponentially distributed epoch, reflecting off the region boundary.
This is the model typically used in cellular-capacity studies because it
keeps the spatial user distribution approximately uniform.

* :class:`RandomDirectionFleet` — the model for a whole population as
  structure-of-arrays kernels; what the dynamic simulator runs.  Its
  per-user statistical reference lives in ``tests/oracles/mobility.py``.
* :class:`StaticMobility` — a non-moving user for static drops.
* :class:`FleetMemberMobility` — a per-user view of one fleet member.

A :class:`repro.cdma.network.CdmaNetwork` takes its positions from one of two
sources: the fleet it is given, or the fixed positions of static mobiles.
The fleet reports the distance each user travelled per frame, which drives
the shadowing decorrelation in :class:`repro.cdma.linkgain.LinkGainMap`.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "MobilityModel",
    "StaticMobility",
    "RandomDirectionFleet",
    "FleetMemberMobility",
]

Bounds = Tuple[float, float, float, float]


def _check_bounds(bounds: Bounds) -> Bounds:
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("bounds must satisfy xmin < xmax and ymin < ymax")
    return xmin, xmax, ymin, ymax


class MobilityModel(abc.ABC):
    """Abstract mobility model: where one user is."""

    @property
    @abc.abstractmethod
    def position(self) -> np.ndarray:
        """Current position, metres."""


class StaticMobility(MobilityModel):
    """A user that never moves (snapshot / Monte-Carlo drop analyses)."""

    def __init__(self, position: np.ndarray) -> None:
        self._position = np.asarray(position, dtype=float).reshape(2).copy()

    @property
    def position(self) -> np.ndarray:
        return self._position.copy()


def _reflect_fold(values: np.ndarray, low: float, high: float):
    """Fold ``values`` into ``[low, high]`` by reflection off the boundaries.

    Returns ``(folded, reflected_mask)``.  The closed-form triangle-wave
    fold is equivalent to successive reflections up to floating-point
    rounding.
    """
    span = high - low
    reflected = (values < low) | (values > high)
    if not reflected.any():
        return values, reflected
    period = 2.0 * span
    t = np.mod(values - low, period)
    folded = low + (span - np.abs(t - span))
    np.clip(folded, low, high, out=folded)
    return np.where(reflected, folded, values), reflected


class RandomDirectionFleet:
    """Structure-of-arrays random-direction mobility for a whole population.

    Positions, speeds, headings and epoch timers are flat arrays, and all
    per-frame work, the epoch and boundary-reflection redraws included, is
    done with array kernels.  The fleet owns a **single** random stream from
    which each round's direction/speed/epoch draws are batched, so its
    trajectories are statistically equivalent (same kinematics, same epoch
    process) to ``J`` independent per-user random-direction models, the
    reference in ``tests/oracles/mobility.py``, but not sample-path
    identical to them; see the fleet RNG contract in
    ``benchmarks/README.md``.

    :class:`repro.cdma.network.CdmaNetwork` adopts a fleet as the source of
    its positions (``positions``, shape ``(n, 2)``) and advances it once per
    frame (``advance(dt_s, out_moved=...)``).

    Parameters
    ----------
    initial_positions:
        Starting coordinates, shape ``(n, 2)``.
    bounds:
        Rectangular simulation region ``(xmin, xmax, ymin, ymax)`` shared by
        the whole fleet.
    speed_m_s:
        Constant speed, or a ``(low, high)`` range re-drawn at each epoch.
    mean_epoch_s:
        Mean duration between direction changes (exponential).
    rng:
        The fleet's random generator.
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        bounds: Bounds,
        speed_m_s: float | Tuple[float, float] = 13.9,
        mean_epoch_s: float = 20.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._bounds = _check_bounds(bounds)
        positions = np.array(initial_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("initial_positions must have shape (n, 2)")
        self.positions = positions
        n = positions.shape[0]
        self._rng = rng if rng is not None else np.random.default_rng()
        self.mean_epoch_s = check_positive("mean_epoch_s", mean_epoch_s)
        if isinstance(speed_m_s, tuple):
            lo, hi = float(speed_m_s[0]), float(speed_m_s[1])
            if lo < 0 or hi < lo:
                raise ValueError("speed range must satisfy 0 <= low <= high")
            self._speed_range: Optional[Tuple[float, float]] = (lo, hi)
            self._speed = self._rng.uniform(lo, hi, size=n)
        else:
            self._speed_range = None
            self._speed = np.full(n, check_non_negative("speed_m_s", speed_m_s))
        direction = self._rng.uniform(0.0, 2.0 * math.pi, size=n)
        self._dir_cos = np.cos(direction)
        self._dir_sin = np.sin(direction)
        self._tte = self._rng.exponential(self.mean_epoch_s, size=n)

    @property
    def num_users(self) -> int:
        """Fleet size."""
        return self.positions.shape[0]

    @property
    def speed_m_s(self) -> np.ndarray:
        """Current per-user speeds, shape ``(n,)`` (do not mutate)."""
        return self._speed

    def _redraw_directions(self, idx: np.ndarray) -> None:
        direction = self._rng.uniform(0.0, 2.0 * math.pi, size=idx.size)
        self._dir_cos[idx] = np.cos(direction)
        self._dir_sin[idx] = np.sin(direction)

    def _redraw_epochs(self, idx: np.ndarray) -> None:
        self._redraw_directions(idx)
        if self._speed_range is not None:
            self._speed[idx] = self._rng.uniform(
                self._speed_range[0], self._speed_range[1], size=idx.size
            )
        self._tte[idx] = self._rng.exponential(self.mean_epoch_s, size=idx.size)

    def advance(self, dt_s: float, out_moved: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance every user by ``dt_s``; returns the travelled distances."""
        check_non_negative("dt_s", dt_s)
        n = self.num_users
        moved = out_moved if out_moved is not None else np.zeros(n)
        if moved.shape != (n,):
            raise ValueError("out_moved must have shape (n,)")
        moved[:] = 0.0
        if n == 0 or dt_s == 0.0:
            return moved
        xmin, xmax, ymin, ymax = self._bounds
        px = self.positions[:, 0]
        py = self.positions[:, 1]

        # Fast path: users whose epoch timer survives the frame and whose
        # straight-line step stays inside the region advance with pure array
        # arithmetic and no random draws.
        travel = self._speed * dt_s
        nx = px + travel * self._dir_cos
        ny = py + travel * self._dir_sin
        fast = (
            (self._tte > dt_s)
            & (nx >= xmin)
            & (nx <= xmax)
            & (ny >= ymin)
            & (ny <= ymax)
        )
        px[fast] = nx[fast]
        py[fast] = ny[fast]
        moved[fast] = travel[fast]
        self._tte[fast] -= dt_s

        # Slow path: the (rare) epoch / boundary crossers advance round by
        # round on a compacted index set; every round batches its reflection
        # folds and redraw draws over the whole surviving subset.
        live = np.flatnonzero(~fast)
        remaining = np.full(live.size, dt_s)
        while live.size:
            step = np.minimum(remaining, self._tte[live])
            span = self._speed[live] * step
            cx, rx = _reflect_fold(px[live] + span * self._dir_cos[live], xmin, xmax)
            cy, ry = _reflect_fold(py[live] + span * self._dir_sin[live], ymin, ymax)
            px[live] = cx
            py[live] = cy
            moved[live] += span
            reflected = rx | ry
            if reflected.any():
                self._redraw_directions(live[reflected])
            self._tte[live] -= step
            remaining -= step
            expired = self._tte[live] <= 0.0
            if expired.any():
                self._redraw_epochs(live[expired])
            keep = remaining > 0.0
            live = live[keep]
            remaining = remaining[keep]
        return moved


class FleetMemberMobility(MobilityModel):
    """Read-only view of one :class:`RandomDirectionFleet` member.

    Lets entity objects (:class:`repro.cdma.entities.MobileStation`) expose
    their current position while the fleet advances the whole population in
    one kernel.
    """

    def __init__(self, fleet: RandomDirectionFleet, index: int) -> None:
        self._fleet = fleet
        self._index = int(index)

    @property
    def position(self) -> np.ndarray:
        return self._fleet.positions[self._index].copy()
