"""Reference wrap-around distances: every position minimised over every shift.

The batched distance kernel from before the nearest-image record, kept
verbatim as a parity oracle: one ``(n, shifts, cells)`` broadcast of squared
distances, a min-reduction over the shifts, then the square root.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hexgrid import HexagonalCellLayout

__all__ = ["distances_to_all_batch"]


def distances_to_all_batch(layout: HexagonalCellLayout, positions: np.ndarray) -> np.ndarray:
    """Distances of shape ``(n, num_cells)`` from ``positions`` (shape ``(n, 2)``)."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = pos.shape[0]
    if n == 0:
        return np.zeros((0, layout.num_cells))
    shape = (n,) + layout._shifted_x.shape
    d2 = np.empty(shape)
    work = np.empty(shape)
    np.subtract(pos[:, 0, np.newaxis, np.newaxis], layout._shifted_x, out=work)
    np.multiply(work, work, out=d2)
    np.subtract(pos[:, 1, np.newaxis, np.newaxis], layout._shifted_y, out=work)
    np.multiply(work, work, out=work)
    d2 += work
    return np.sqrt(d2.min(axis=1))
