"""User mobility models.

The paper's evaluation is a dynamic simulation "which takes into account of
the user mobility".  Users move with the random-direction model: a straight
line at a constant speed, re-drawing direction (and optionally speed) after
an exponentially distributed epoch, reflecting off the region boundary.
This is the model typically used in cellular-capacity studies because it
keeps the spatial user distribution approximately uniform.

* :class:`RandomDirectionFleet` — the model for a whole population as
  structure-of-arrays kernels; what the dynamic simulator runs.
* :class:`RandomDirectionMobility` — the per-user reference model the fleet
  is checked against (``tests/test_fleet_parity.py``).
* :class:`StaticMobility` — a non-moving user for snapshot analyses.
* :class:`MobilityBatch` / :class:`FleetMemberMobility` — how
  :class:`repro.cdma.network.CdmaNetwork` advances a list of per-user models,
  and a per-user view of one fleet member.

Every model reports the distance travelled per update, which drives the
shadowing decorrelation (:class:`repro.channel.shadowing.GudmundsonShadowing`).
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
    "RandomDirectionMobility",
    "MobilityBatch",
    "RandomDirectionFleet",
    "FleetMemberMobility",
]

Bounds = Tuple[float, float, float, float]


def _check_bounds(bounds: Bounds) -> Bounds:
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("bounds must satisfy xmin < xmax and ymin < ymax")
    return xmin, xmax, ymin, ymax


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


class MobilityModel(abc.ABC):
    """Abstract mobility model: a position that advances with time."""

    @property
    @abc.abstractmethod
    def position(self) -> np.ndarray:
        """Current position, metres."""

    @property
    @abc.abstractmethod
    def speed_m_s(self) -> float:
        """Current speed, m/s."""

    @abc.abstractmethod
    def advance(self, dt_s: float) -> float:
        """Advance by ``dt_s`` seconds; return the distance travelled (m)."""


class StaticMobility(MobilityModel):
    """A user that never moves (snapshot / Monte-Carlo drop analyses)."""

    def __init__(self, position: np.ndarray) -> None:
        self._position = np.asarray(position, dtype=float).reshape(2).copy()

    @property
    def position(self) -> np.ndarray:
        return self._position.copy()

    @property
    def speed_m_s(self) -> float:
        return 0.0

    def advance(self, dt_s: float) -> float:
        check_non_negative("dt_s", dt_s)
        return 0.0


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
        # The heading unit vector is evaluated once per draw (not once per
        # advance) so the scalar and the batched advance paths multiply the
        # exact same doubles and stay bit-identical.
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


class MobilityBatch:
    """Vectorised per-frame advance over a fixed population of models.

    The batch owns the population's positions as one ``(n, 2)`` array and
    rebinds each model's internal position to a row view of it, so both the
    vectorised and the per-model code paths write the same storage.  For
    :class:`RandomDirectionMobility` users the per-frame advance is a flat
    array kernel: every user whose epoch timer survives the frame and whose
    straight-line step stays inside the region advances with pure array
    arithmetic (consuming no random draws — such users never draw in the
    scalar path either), and only the rare epoch/boundary crossers fall back
    to the exact scalar :meth:`MobilityModel.advance`, in index order.  The
    resulting trajectories and random-stream consumption are bit-identical
    to advancing every model in a Python loop.

    Model attributes (position, epoch timer, heading, speed) remain
    authoritative between advances: epoch timers are written back after the
    vector update, and a model rebound by a *newer* batch (mobiles reused
    across several networks) is detected and re-adopted on the next
    advance.  Do not call :meth:`MobilityModel.advance` directly on a
    batched model, though — the batch's kinematic mirror would go stale.

    Parameters
    ----------
    models:
        The mobility models, one per user.
    positions_out:
        Optional ``(n, 2)`` array to adopt as the shared position storage
        (e.g. the radio network's structure-of-arrays position buffer).
    """

    def __init__(self, models, positions_out: Optional[np.ndarray] = None) -> None:
        self.models = list(models)
        n = len(self.models)
        if positions_out is None:
            positions_out = np.zeros((n, 2))
        if positions_out.shape != (n, 2):
            raise ValueError("positions_out must have shape (len(models), 2)")
        self.positions = positions_out
        rebound = np.zeros(n, dtype=bool)
        for i, model in enumerate(self.models):
            internal = getattr(model, "_position", None)
            if isinstance(internal, np.ndarray) and internal.shape == (2,):
                self.positions[i] = internal
                model._position = self.positions[i]
                rebound[i] = True
            else:  # custom model: copy after each advance instead
                self.positions[i] = model.position
        self._rebound = rebound

        kinds = [type(m) for m in self.models]
        self._rd_indices = np.flatnonzero(
            np.asarray([k is RandomDirectionMobility for k in kinds])
        )
        self._other_indices = np.flatnonzero(
            np.asarray(
                [
                    k is not RandomDirectionMobility and k is not StaticMobility
                    for k in kinds
                ]
            )
        )
        self._rd_all = self._rd_indices.size == n

        m = self._rd_indices.size
        self._speed = np.zeros(m)
        self._dir_cos = np.zeros(m)
        self._dir_sin = np.zeros(m)
        self._tte = np.zeros(m)
        self._bounds = np.zeros((m, 4))
        self._rd_local = {int(i): local for local, i in enumerate(self._rd_indices)}
        for local, i in enumerate(self._rd_indices):
            self._resync(local, self.models[i])

    def _readopt_foreign(self) -> None:
        """Re-adopt models whose storage was rebound by a newer batch.

        Mobiles may be reused across several networks (ablation sweeps);
        each network's batch rebinds the models' positions into its own
        buffer.  A model pointing at foreign storage is imported back —
        position copied into this batch's buffer and the random-direction
        mirror refreshed from the (authoritative) model attributes.
        """
        positions = self.positions
        for i, model in enumerate(self.models):
            if not self._rebound[i]:
                continue
            internal = model._position
            if internal.base is not positions:
                positions[i] = internal
                model._position = positions[i]
                local = self._rd_local.get(i)
                if local is not None:
                    self._resync(local, model)

    def _resync(self, local: int, model: "RandomDirectionMobility") -> None:
        """Refresh the SoA mirror of one random-direction model."""
        self._speed[local] = model._speed
        self._dir_cos[local] = model._dir_cos
        self._dir_sin[local] = model._dir_sin
        self._tte[local] = model._time_to_epoch
        self._bounds[local] = model._bounds

    def advance(self, dt_s: float, out_moved: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance every model by ``dt_s``; returns the travelled distances."""
        check_non_negative("dt_s", dt_s)
        n = len(self.models)
        moved = out_moved if out_moved is not None else np.zeros(n)
        if moved.shape != (n,):
            raise ValueError("out_moved must have shape (len(models),)")
        moved[:] = 0.0
        self._readopt_foreign()

        rd = self._rd_indices
        if rd.size:
            if self._rd_all:
                px = self.positions[:, 0]
                py = self.positions[:, 1]
            else:
                px = self.positions[rd, 0]
                py = self.positions[rd, 1]
            # Straight-line candidate step with the exact scalar grouping:
            # (speed * dt) * heading, position + delta.
            travel = self._speed * dt_s
            nx = px + travel * self._dir_cos
            ny = py + travel * self._dir_sin
            b = self._bounds
            fast = (
                (self._tte > dt_s)
                & (nx >= b[:, 0])
                & (nx <= b[:, 1])
                & (ny >= b[:, 2])
                & (ny <= b[:, 3])
            )
            fast_rows = rd[fast]
            self.positions[fast_rows, 0] = nx[fast]
            self.positions[fast_rows, 1] = ny[fast]
            moved[fast_rows] = travel[fast]
            self._tte[fast] -= dt_s
            # Keep the model attribute authoritative so a later batch (or a
            # direct scalar advance) resumes from the correct epoch timer.
            tte = self._tte
            models = self.models
            for local in np.flatnonzero(fast):
                models[int(rd[local])]._time_to_epoch = tte[local]
            slow = [(int(rd[local]), int(local)) for local in np.flatnonzero(~fast)]
        else:
            slow = []

        # Models needing a scalar update — epoch/boundary-crossing
        # random-direction users plus every non-random-direction mover —
        # run in global index order so a shared random generator consumes
        # draws exactly as the equivalent per-model loop would.
        scalar_models = sorted(slow + [(int(i), None) for i in self._other_indices])
        for i, local in scalar_models:
            model = self.models[i]
            if local is not None:
                model._time_to_epoch = float(self._tte[local])
                moved[i] = model.advance(dt_s)
                self._resync(local, model)
            else:
                moved[i] = model.advance(dt_s)
                if not self._rebound[i]:
                    self.positions[i] = model.position
        return moved


def _reflect_fold(values: np.ndarray, low: float, high: float):
    """Vectorised :func:`_reflect`: fold ``values`` into ``[low, high]``.

    Returns ``(folded, reflected_mask)``.  The closed-form triangle-wave
    fold is equivalent to the scalar successive-reflection loop up to
    floating-point rounding (the fleet path does not promise bit parity
    with the scalar models — it owns its own random stream anyway).
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

    The fully batched counterpart of ``J`` :class:`RandomDirectionMobility`
    models: positions, speeds, headings and epoch timers are flat arrays,
    and *all* per-frame work — including the epoch and boundary-reflection
    redraws that :class:`MobilityBatch` still delegates to per-user model
    objects — is done with array kernels.  The fleet owns a **single**
    random stream from which each round's direction/speed/epoch draws are
    batched, so trajectories are statistically equivalent (same kinematics,
    same epoch process) but not sample-path identical to the scalar models;
    see the fleet RNG contract in ``benchmarks/README.md``.

    Duck-type compatible with :class:`MobilityBatch` (``positions`` +
    ``advance(dt_s, out_moved=...)``) so :class:`repro.cdma.network.CdmaNetwork`
    can adopt it as its mobility back-end.

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
    one kernel; calling :meth:`advance` on a member directly is an error —
    the fleet owns the trajectory.
    """

    def __init__(self, fleet: RandomDirectionFleet, index: int) -> None:
        self._fleet = fleet
        self._index = int(index)

    @property
    def position(self) -> np.ndarray:
        return self._fleet.positions[self._index].copy()

    @property
    def speed_m_s(self) -> float:
        return float(self._fleet.speed_m_s[self._index])

    def advance(self, dt_s: float) -> float:
        raise RuntimeError(
            "fleet-managed mobility: advance the RandomDirectionFleet instead"
        )
