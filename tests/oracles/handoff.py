"""Reference soft hand-off update: one stable argsort over every mobile's row.

This is ``SoftHandoffController.update`` from before it ranked only the
mobiles with two or more eligible cells, kept verbatim as a parity oracle.
Call it with a controller as the first argument: ``update(controller,
pilots)``; it updates the controller's state exactly as the production
method does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["update"]


def update(controller, pilot_ec_io: np.ndarray) -> None:
    """The update before the candidate-only rank (verbatim)."""
    self = controller
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
    strongest = np.argmax(pilots, axis=1)
    orphaned = ~eligible.any(axis=1)
    if np.any(orphaned):
        eligible[orphaned, strongest[orphaned]] = True

    # Rank eligible cells by current pilot strength and keep the top
    # max_active_set_size of them, -1 padded.  Matches the per-mobile
    # reference loop for continuous pilot values; on *exactly* tied
    # pilots (measure zero under shadowing) ties resolve by lowest cell
    # index, where the reference loop's ordering was itself unspecified.
    score = np.where(eligible, pilots, -np.inf)
    width = min(self.max_active_set_size, num_cells)
    top = np.argsort(-score, axis=1, kind="stable")[:, :width]
    counts = np.minimum(eligible.sum(axis=1), self.max_active_set_size)
    new_ordered = np.full_like(self._ordered, -1)
    slots = np.arange(width)[np.newaxis, :]
    new_ordered[:, :width] = np.where(slots < counts[:, np.newaxis], top, -1)

    changed = (new_ordered != self._ordered).any(axis=1)
    self.handoff_events += int(np.count_nonzero(changed))
    self._ordered = new_ordered
    self._count = counts
    self._invalidate_caches()
