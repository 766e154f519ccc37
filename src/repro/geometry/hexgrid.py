"""Hexagonal multi-cell layout with optional wrap-around.

Base stations sit at the centres of hexagonal cells arranged in concentric
rings around a centre cell (ring count ``num_rings``; 0 rings = 1 cell,
1 ring = 7 cells, 2 rings = 19 cells).  With wrap-around enabled, distances
are computed modulo the cluster's translation lattice so that every cell —
not just the centre one — experiences a full tier of interferers.  This is
the standard technique used in CDMA system-level simulations and removes the
boundary effects a finite layout would otherwise introduce.

A mobile moves far less than a cell per frame, so the image of a base station
that wins the wrap-around minimum rarely changes between frames.
:class:`NearestImages` records the winning images of a population together
with a per-position certificate (the *slack*): while a position stays within
its slack of the point where the images were last minimised, no other image
can win, and its distances are computed against the recorded images alone.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_non_negative_int, check_positive

__all__ = ["HexagonalCellLayout", "NearestImages", "IMAGE_SLACK_GUARD_M"]

#: Margin (m) taken off every nearest-image slack.  It dwarfs the rounding
#: error of the computed distances and displacements (~1e-12 m at cell sizes
#: of kilometres), so a certified image also wins the floating-point minimum.
IMAGE_SLACK_GUARD_M = 1e-6


class NearestImages:
    """The wrap-around images that won the minimum, for a population of positions.

    Holds, per (position, cell) pair, the coordinates of the winning image of
    the base station, and per position the *anchor* (where the images were
    last minimised) and the *slack*: half the smallest gap, over all cells,
    between the best and the second-best image distance at the anchor, less
    :data:`IMAGE_SLACK_GUARD_M`.  By the triangle inequality every image
    distance changes by at most the displacement, so while a position lies
    closer than its slack to its anchor the recorded images still win.

    The record belongs to its population, not to the layout (one layout may
    serve several populations); pass it to
    :meth:`HexagonalCellLayout.distances_to_all_batch`, which keeps it up
    to date.  A fresh record certifies nothing, so the first call minimises
    every position.
    """

    def __init__(self, num_positions: int, num_cells: int) -> None:
        shape = (int(num_positions), int(num_cells))
        self.image_x = np.zeros(shape)
        self.image_y = np.zeros(shape)
        self.anchor = np.zeros((shape[0], 2))
        self.slack_m = np.full(shape[0], -np.inf)
        #: Positions re-minimised over all shifts so far (cumulative).
        self.refreshes = 0


class HexagonalCellLayout:
    """Hexagonal grid of cells.

    Parameters
    ----------
    num_rings:
        Number of rings around the centre cell (0, 1, 2, ... giving 1, 7,
        19, ... cells).
    cell_radius_m:
        Cell radius (centre-to-vertex) in metres.
    wraparound:
        Compute distances modulo the cluster translation lattice.
    """

    def __init__(
        self,
        num_rings: int = 1,
        cell_radius_m: float = 1000.0,
        wraparound: bool = True,
    ) -> None:
        self.num_rings = check_non_negative_int("num_rings", num_rings)
        self.cell_radius_m = check_positive("cell_radius_m", cell_radius_m)
        self.wraparound = bool(wraparound)
        #: Centre-to-centre distance of adjacent cells.
        self.inter_site_distance_m = math.sqrt(3.0) * self.cell_radius_m
        self._positions = self._build_positions()
        self._shifts = self._build_wraparound_shifts()
        # Base-station positions replicated under every wrap-around shift,
        # shape (num_shifts, num_cells, 2).  Precomputed once: both the
        # per-position and the batched distance queries reduce over it.
        self._shifted_positions = (
            self._positions[np.newaxis, :, :] + self._shifts[:, np.newaxis, :]
        )
        self._shifted_x = np.ascontiguousarray(self._shifted_positions[:, :, 0])
        self._shifted_y = np.ascontiguousarray(self._shifted_positions[:, :, 1])

    # -- construction -----------------------------------------------------------
    def _axial_coordinates(self) -> List[Tuple[int, int]]:
        coords: List[Tuple[int, int]] = []
        n = self.num_rings
        for q in range(-n, n + 1):
            for r in range(-n, n + 1):
                s = -q - r
                if max(abs(q), abs(r), abs(s)) <= n:
                    coords.append((q, r))
        # Sort by ring then angle for a stable, readable cell numbering with
        # the centre cell first.
        def ring_angle(qr: Tuple[int, int]) -> Tuple[int, float]:
            q, r = qr
            ring = max(abs(q), abs(r), abs(-q - r))
            x, y = self._axial_to_xy(q, r)
            return ring, math.atan2(y, x) % (2.0 * math.pi)

        coords.sort(key=ring_angle)
        return coords

    def _axial_to_xy(self, q: int, r: int) -> Tuple[float, float]:
        d = self.inter_site_distance_m
        x = d * (q + r / 2.0)
        y = d * (math.sqrt(3.0) / 2.0) * r
        return x, y

    def _build_positions(self) -> np.ndarray:
        coords = self._axial_coordinates()
        return np.asarray([self._axial_to_xy(q, r) for q, r in coords], dtype=float)

    def _build_wraparound_shifts(self) -> np.ndarray:
        """Translation vectors of the cluster tiling (includes the zero shift)."""
        if not self.wraparound or self.num_rings == 0:
            return np.zeros((1, 2), dtype=float)
        n = self.num_rings
        d = self.inter_site_distance_m
        a1 = np.array([d, 0.0])
        a2 = np.array([d / 2.0, d * math.sqrt(3.0) / 2.0])
        # A cluster with rings 0..n tiles the plane with translation basis
        # u = (n+1)*a1 + n*a2 and its 60-degree rotation v = -n*a1 + (2n+1)*a2.
        u = (n + 1) * a1 + n * a2
        v = -n * a1 + (2 * n + 1) * a2
        shifts = []
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                shifts.append(i * u + j * v)
        return np.asarray(shifts, dtype=float)

    # -- basic queries --------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells (base stations) in the layout."""
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Array of shape (num_cells, 2) with base-station coordinates (m)."""
        return self._positions.copy()

    def position_of(self, cell_index: int) -> np.ndarray:
        """Coordinates of base station ``cell_index``."""
        return self._positions[cell_index].copy()

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) covering all cells including their radius."""
        r = self.cell_radius_m
        xmin, ymin = self._positions.min(axis=0) - r
        xmax, ymax = self._positions.max(axis=0) + r
        return float(xmin), float(xmax), float(ymin), float(ymax)

    # -- distances ---------------------------------------------------------------------
    def distances_to_all(self, position: np.ndarray) -> np.ndarray:
        """Distance from ``position`` to every base station (wrap-around aware)."""
        pos = np.asarray(position, dtype=float).reshape(2)
        delta = self._shifted_positions - pos[np.newaxis, np.newaxis, :]
        dist = np.sqrt((delta ** 2).sum(axis=2))
        return dist.min(axis=0)

    def distances_to_all_batch(
        self, positions: np.ndarray, images: Optional[NearestImages] = None
    ) -> np.ndarray:
        """Distances from many positions to every base station in one call.

        Parameters
        ----------
        positions:
            Coordinates, shape ``(n, 2)``.
        images:
            Optional :class:`NearestImages` record of the same ``n``
            positions, carried from call to call.  Only the positions that
            have moved at least their slack from their anchor are
            re-minimised over the wrap-around shifts (and the record
            updated); every other distance is taken to its recorded image.

        Returns
        -------
        Distances of shape ``(n, num_cells)``; row ``i`` equals
        ``distances_to_all(positions[i])`` bit-for-bit, with or without
        ``images``: the squared distance to the winning image is computed
        by the same elementwise operations as in the minimisation, and the
        square root comes after the minimum (sqrt is monotonic).
        """
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        if pos.shape[0] == 0:
            return np.zeros((0, self.num_cells))
        if images is None:
            image_x, image_y, _ = self._nearest_images(pos)
            return self._image_distances(pos, image_x, image_y)
        displacement = np.hypot(*(pos - images.anchor).T)
        stale = np.flatnonzero(~(displacement < images.slack_m))  # NaN counts as moved
        if stale.size:
            moved = pos[stale]
            image_x, image_y, slack = self._nearest_images(moved)
            images.image_x[stale] = image_x
            images.image_y[stale] = image_y
            images.anchor[stale] = moved
            images.slack_m[stale] = slack
            images.refreshes += int(stale.size)
        return self._image_distances(pos, images.image_x, images.image_y)

    def _nearest_images(
        self, pos: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Winning image coordinates per (position, cell) and the slack per position.

        A running best / second-best squared distance over the shifts, on
        ``(n, cells)`` buffers.  A tie keeps the earlier shift (the distance
        is the same either way) and certifies no slack.
        """
        shape = (pos.shape[0], self.num_cells)
        best = np.full(shape, np.inf)
        second = np.full(shape, np.inf)
        winner = np.zeros(shape, dtype=np.intp)
        d2 = np.empty(shape)
        work = np.empty(shape)
        wins = np.empty(shape, dtype=bool)
        x = pos[:, 0, np.newaxis]
        y = pos[:, 1, np.newaxis]
        for shift, (shift_x, shift_y) in enumerate(zip(self._shifted_x, self._shifted_y)):
            # Squared distance (x - x_bs)^2 + (y - y_bs)^2, exactly as
            # _image_distances computes it.
            np.subtract(x, shift_x, out=work)
            np.multiply(work, work, out=d2)
            np.subtract(y, shift_y, out=work)
            np.multiply(work, work, out=work)
            d2 += work
            np.maximum(best, d2, out=work)
            np.minimum(second, work, out=second)
            np.less(d2, best, out=wins)
            np.minimum(best, d2, out=best)
            winner[wins] = shift
        gap = np.sqrt(second, out=second)
        gap -= np.sqrt(best, out=best)
        slack = 0.5 * gap.min(axis=1) - IMAGE_SLACK_GUARD_M
        cells = np.arange(self.num_cells)
        return self._shifted_x[winner, cells], self._shifted_y[winner, cells], slack

    @staticmethod
    def _image_distances(
        pos: np.ndarray, image_x: np.ndarray, image_y: np.ndarray
    ) -> np.ndarray:
        """Distance from each position to the given image of every base station."""
        d2 = np.subtract(pos[:, 0, np.newaxis], image_x)
        d2 *= d2
        work = np.subtract(pos[:, 1, np.newaxis], image_y)
        work *= work
        d2 += work
        return np.sqrt(d2, out=d2)

    def distance(self, position: np.ndarray, cell_index: int) -> float:
        """Wrap-around distance from ``position`` to base station ``cell_index``."""
        return float(self.distances_to_all(position)[cell_index])

    def nearest_cell(self, position: np.ndarray) -> int:
        """Index of the nearest base station (the serving cell by geometry)."""
        return int(np.argmin(self.distances_to_all(position)))

    # -- sampling -----------------------------------------------------------------------
    def random_position_in_cell(
        self, cell_index: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform random position inside the hexagon of cell ``cell_index``."""
        if not 0 <= cell_index < self.num_cells:
            raise IndexError(f"cell_index {cell_index} out of range")
        centre = self._positions[cell_index]
        r = self.cell_radius_m
        # Rejection sampling in the bounding circle, accepted when inside the hexagon.
        for _ in range(10_000):
            candidate = rng.uniform(-r, r, size=2)
            if self._inside_hexagon(candidate, r):
                return centre + candidate
        raise RuntimeError("rejection sampling failed")  # pragma: no cover

    def random_position(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform random position in a uniformly chosen cell."""
        cell = int(rng.integers(0, self.num_cells))
        return self.random_position_in_cell(cell, rng)

    @staticmethod
    def _inside_hexagon(offset: np.ndarray, radius: float) -> bool:
        """Point-in-hexagon test for a flat-top hexagon centred at the origin."""
        x, y = abs(float(offset[0])), abs(float(offset[1]))
        h = radius * math.sqrt(3.0) / 2.0  # apothem
        if y > h:
            return False
        # Edge from (radius, 0) to (radius/2, h): x/r + y/(sqrt(3) h) ... use line test.
        return h * x + (radius / 2.0) * y <= radius * h + 1e-9

    def cell_of(self, position: np.ndarray) -> int:
        """Cell whose base station is geometrically closest to ``position``."""
        return self.nearest_cell(position)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HexagonalCellLayout(num_rings={self.num_rings}, "
            f"cells={self.num_cells}, radius={self.cell_radius_m} m, "
            f"wraparound={self.wraparound})"
        )
