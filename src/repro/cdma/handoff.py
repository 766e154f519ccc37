"""Soft hand-off: active set and reduced active set maintenance.

The FCH of a mobile may be in soft hand-off with several base stations (the
*active set*), governed by the usual pilot add/drop hysteresis.  The paper's
footnote 4 explains that the high-power SCH uses a *reduced active set*: "the
set of the 2 base stations with the strongest pilot Ec/Io and is a subset of
the active set of FCH".  The reduced-active-set size is configurable here so
experiment T3 can ablate it.

The controller keeps its state in structure-of-arrays form — one ``(J,
max_active_set_size)`` matrix of cell indices ordered by pilot strength
(padded with ``-1``) — so the per-frame update is a handful of array kernels
instead of a Python loop over mobiles.  The per-mobile
:class:`ActiveSetState` views consumed by the measurement sub-layer are
materialised lazily and cached between updates.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import constants

__all__ = ["ActiveSetState", "SoftHandoffController", "membership_matrix"]


def membership_matrix(ordered: np.ndarray, num_cells: int) -> np.ndarray:
    """Boolean membership ``(n, num_cells)`` of ``-1``-padded cell-index rows.

    The matrix is returned read-only: the controller caches and shares it
    between per-frame consumers.
    """
    out = np.zeros((ordered.shape[0], num_cells), dtype=bool)
    rows, slots = np.nonzero(ordered >= 0)
    out[rows, ordered[rows, slots]] = True
    out.flags.writeable = False
    return out


@dataclass
class ActiveSetState:
    """Hand-off state of one mobile.

    Attributes
    ----------
    active_set:
        Cell indices currently in the FCH active set (strongest pilot first).
    reduced_active_set:
        Subset of the active set used for the SCH (strongest pilots).
    serving_cell:
        The strongest-pilot cell (host cell of burst requests).
    """

    active_set: List[int] = field(default_factory=list)
    reduced_active_set: List[int] = field(default_factory=list)
    serving_cell: int = 0

    @property
    def in_soft_handoff(self) -> bool:
        """True when more than one cell is in the active set."""
        return len(self.active_set) > 1


class _LazyActiveSetStates(SequenceABC):
    """Read-only sequence materialising :class:`ActiveSetState` on demand.

    A network snapshot is taken every frame, but the per-mobile state
    objects are only consumed for the handful of users with pending burst
    requests — so the ``(J,)`` Python-object views are built lazily from
    the controller's index matrix (which is replaced, never mutated, on
    update, making the captured arrays a stable snapshot).
    """

    __slots__ = ("_ordered", "_count", "_reduced", "_cache")

    def __init__(self, ordered: np.ndarray, count: np.ndarray, reduced: int) -> None:
        self._ordered = ordered
        self._count = count
        self._reduced = reduced
        self._cache: dict = {}

    def __len__(self) -> int:
        return self._ordered.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("mobile index out of range")
        state = self._cache.get(index)
        if state is None:
            members = [int(k) for k in self._ordered[index, : self._count[index]]]
            state = ActiveSetState(
                active_set=members,
                reduced_active_set=members[: self._reduced],
                serving_cell=members[0] if members else 0,
            )
            self._cache[index] = state
        return state


class SoftHandoffController:
    """Maintains active sets from forward pilot Ec/Io measurements.

    Parameters
    ----------
    num_mobiles:
        Number of mobiles tracked.
    add_threshold_db / drop_threshold_db:
        Pilot Ec/Io thresholds (T_ADD / T_DROP) in dB.  A pilot must exceed
        the add threshold to join the active set and is removed once it falls
        below the drop threshold (hysteresis: drop < add).
    max_active_set_size:
        Maximum number of cells in the FCH active set.
    reduced_active_set_size:
        Number of strongest cells retained for the SCH (2 in the paper).
    """

    def __init__(
        self,
        num_mobiles: int,
        add_threshold_db: float = constants.HANDOFF_ADD_THRESHOLD_DB,
        drop_threshold_db: float = constants.HANDOFF_DROP_THRESHOLD_DB,
        max_active_set_size: int = constants.ACTIVE_SET_MAX_SIZE,
        reduced_active_set_size: int = constants.REDUCED_ACTIVE_SET_SIZE,
    ) -> None:
        if num_mobiles < 0:
            raise ValueError("num_mobiles must be non-negative")
        if drop_threshold_db > add_threshold_db:
            raise ValueError("drop threshold must not exceed the add threshold")
        if max_active_set_size < 1:
            raise ValueError("max_active_set_size must be at least 1")
        if not 1 <= reduced_active_set_size <= max_active_set_size:
            raise ValueError(
                "reduced_active_set_size must lie in [1, max_active_set_size]"
            )
        self.num_mobiles = int(num_mobiles)
        self.add_threshold_db = float(add_threshold_db)
        self.drop_threshold_db = float(drop_threshold_db)
        self.max_active_set_size = int(max_active_set_size)
        self.reduced_active_set_size = int(reduced_active_set_size)
        # Ordered active-set members (strongest pilot first), -1 padded.
        self._ordered = np.full(
            (self.num_mobiles, self.max_active_set_size), -1, dtype=np.int64
        )
        self._count = np.zeros(self.num_mobiles, dtype=np.int64)
        self._states_cache: Optional[_LazyActiveSetStates] = None
        self._active_matrix_cache: Optional[Tuple[int, np.ndarray]] = None
        #: Count of hand-off events (active-set changes), for reporting.
        self.handoff_events = 0

    def _invalidate_caches(self) -> None:
        self._states_cache = None
        self._active_matrix_cache = None

    def state(self, mobile_index: int) -> ActiveSetState:
        """Hand-off state of mobile ``mobile_index``."""
        return self.states[mobile_index]

    @property
    def states(self) -> Sequence[ActiveSetState]:
        """All hand-off states (index = mobile index), materialised lazily."""
        if self._states_cache is None:
            self._states_cache = _LazyActiveSetStates(
                self._ordered, self._count, self.reduced_active_set_size
            )
        return self._states_cache

    def update(self, pilot_ec_io: np.ndarray) -> None:
        """Update every mobile's active set from pilot measurements.

        Parameters
        ----------
        pilot_ec_io:
            Forward pilot Ec/Io (linear), shape ``(num_mobiles, num_cells)``.
        """
        pilots = np.asarray(pilot_ec_io, dtype=float)
        if pilots.shape[0] != self.num_mobiles:
            raise ValueError("pilot matrix has the wrong number of mobiles")
        if self.num_mobiles == 0:
            return
        num_cells = pilots.shape[1]
        add_lin = 10.0 ** (self.add_threshold_db / 10.0)
        drop_lin = 10.0 ** (self.drop_threshold_db / 10.0)

        # A cell stays in the set while above the drop threshold and joins
        # when above the add threshold; the strongest cell is always kept so
        # the mobile stays connected even in a coverage hole (it will be in
        # outage, but the bookkeeping remains well-defined).
        member = self.active_set_matrix(num_cells)
        eligible = (member & (pilots >= drop_lin)) | (pilots >= add_lin)
        num_eligible = eligible.sum(axis=1)
        orphaned = np.flatnonzero(num_eligible == 0)
        if orphaned.size:
            eligible[orphaned, np.argmax(pilots[orphaned], axis=1)] = True
            num_eligible[orphaned] = 1
        counts = np.minimum(num_eligible, self.max_active_set_size)

        # Rank eligible cells by current pilot strength and keep the top
        # max_active_set_size of them, -1 padded.  Matches the per-mobile
        # reference loop for continuous pilot values; on *exactly* tied
        # pilots (measure zero under shadowing) ties resolve by lowest cell
        # index, where the reference loop's ordering was itself unspecified.
        # Only the soft-hand-off candidates (two or more eligible cells) need
        # the sort; a single eligible cell is the whole set.
        new_ordered = np.full_like(self._ordered, -1)
        single = np.flatnonzero(num_eligible == 1)
        new_ordered[single, 0] = np.argmax(np.take(eligible, single, axis=0), axis=1)
        ranked = np.flatnonzero(num_eligible > 1)
        if ranked.size:
            # Ascending in -pilot (ineligible cells last), stable on ties.
            key = np.where(
                np.take(eligible, ranked, axis=0),
                -np.take(pilots, ranked, axis=0),
                np.inf,
            )
            width = min(self.max_active_set_size, num_cells)
            top = np.argsort(key, axis=1, kind="stable")[:, :width]
            slots = np.arange(width)[np.newaxis, :]
            new_ordered[ranked, :width] = np.where(
                slots < counts[ranked, np.newaxis], top, -1
            )

        changed = (new_ordered != self._ordered).any(axis=1)
        self.handoff_events += int(np.count_nonzero(changed))
        self._ordered = new_ordered
        self._count = counts
        self._invalidate_caches()

    def active_set_matrix(self, num_cells: int) -> np.ndarray:
        """Boolean matrix ``(num_mobiles, num_cells)`` of FCH active-set membership."""
        cache = self._active_matrix_cache
        if cache is not None and cache[0] == num_cells:
            return cache[1]
        out = membership_matrix(self._ordered, num_cells)
        self._active_matrix_cache = (num_cells, out)
        return out

    def reduced_active_sets(self) -> np.ndarray:
        """Reduced active sets (SCH legs) as cell indices, strongest first.

        Shape ``(num_mobiles, reduced_active_set_size)``, ``-1`` padded.  A
        read-only view of the ordered index matrix, which :meth:`update`
        replaces and never mutates, so it stays a snapshot of the current
        frame.
        """
        view = self._ordered[:, : self.reduced_active_set_size]
        view.flags.writeable = False
        return view

    def serving_cells(self) -> np.ndarray:
        """Serving (strongest-pilot) cell of each mobile."""
        return np.where(self._count > 0, self._ordered[:, 0], 0).astype(int)

    def soft_handoff_fraction(self) -> float:
        """Fraction of mobiles currently in soft hand-off."""
        if self.num_mobiles == 0:
            return 0.0
        return float(np.mean(self._count > 1))
