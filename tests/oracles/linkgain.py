"""Reference link gains: two shadowing states and two ``10.0 **`` passes.

The link-gain map from before the shadowing became one state, kept verbatim
as a parity oracle except for the fast fading: its Gauss-Markov state, its
draws, its accessors and ``advance``'s ``dt_s`` (which fed only the fading)
are gone, so the oracle consumes its random stream exactly like
:class:`repro.cdma.linkgain.LinkGainMap` does.  It keeps the common and the
per-site shadowing components as two AR(1) states, stores the linear path
gain and builds the local-mean gain as ``path_gain * 10.0 ** (dB / 10)``.
Build it with the same arguments and generator seed as the production map.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import constants
from repro.channel.pathloss import LogDistancePathLoss, PathLossModel
from repro.geometry.hexgrid import HexagonalCellLayout, NearestImages
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["TwoStateLinkGainMap"]


class TwoStateLinkGainMap:
    """Path loss and two-state shadowing for all links (verbatim, no fading)."""

    def __init__(
        self,
        layout: HexagonalCellLayout,
        num_mobiles: int,
        rng: np.random.Generator,
        path_loss: Optional[PathLossModel] = None,
        shadowing_std_db: float = constants.SHADOWING_STD_DB,
        decorrelation_distance_m: float = constants.SHADOWING_DECORRELATION_DISTANCE_M,
        site_correlation: float = 0.5,
    ) -> None:
        if num_mobiles < 0:
            raise ValueError("num_mobiles must be non-negative")
        if not 0.0 <= site_correlation < 1.0:
            raise ValueError("site_correlation must lie in [0, 1)")
        self.layout = layout
        self.num_cells = layout.num_cells
        self.num_mobiles = int(num_mobiles)
        self.path_loss = path_loss if path_loss is not None else LogDistancePathLoss()
        self.shadowing_std_db = check_non_negative("shadowing_std_db", shadowing_std_db)
        self.decorrelation_distance_m = check_positive(
            "decorrelation_distance_m", decorrelation_distance_m
        )
        self.site_correlation = float(site_correlation)
        self._rng = rng

        shape = (self.num_mobiles, self.num_cells)
        # Shadowing: common per-mobile component + independent per-site component.
        self._common_shadow = self._rng.normal(0.0, 1.0, size=(self.num_mobiles, 1))
        self._site_shadow = self._rng.normal(0.0, 1.0, size=shape)
        self._path_gain = np.ones(shape, dtype=float)
        self._distances = np.ones(shape, dtype=float)
        # Winning wrap-around images per link: the map owns them because a
        # layout may be shared by several maps.
        self._images = NearestImages(self.num_mobiles, self.num_cells)
        self._local_mean_cache: Optional[np.ndarray] = None
        self.local_mean_builds = 0

    def set_positions(self, positions: np.ndarray) -> None:
        """Recompute path gains for the given mobile ``positions``."""
        positions = np.asarray(positions, dtype=float).reshape(self.num_mobiles, 2)
        if self.num_mobiles > 0:
            np.copyto(
                self._distances,
                self.layout.distances_to_all_batch(positions, images=self._images),
            )
        self._path_gain = np.asarray(self.path_loss.gain(self._distances), dtype=float)
        self._local_mean_cache = None

    def advance(self, positions: np.ndarray, moved_m: np.ndarray) -> None:
        """Advance shadowing, then recompute path gains."""
        moved = np.asarray(moved_m, dtype=float).reshape(self.num_mobiles)
        if np.any(moved < 0.0):
            raise ValueError("moved_m must be non-negative")

        if self.shadowing_std_db > 0.0 and self.num_mobiles > 0:
            a = np.exp(-moved / self.decorrelation_distance_m)[:, np.newaxis]
            innovation_scale = np.sqrt(np.maximum(0.0, 1.0 - a ** 2))
            self._common_shadow = a * self._common_shadow + innovation_scale * (
                self._rng.normal(0.0, 1.0, size=(self.num_mobiles, 1))
            )
            self._site_shadow = a * self._site_shadow + innovation_scale * (
                self._rng.normal(0.0, 1.0, size=(self.num_mobiles, self.num_cells))
            )
            self._local_mean_cache = None

        self.set_positions(positions)

    def shadowing_db(self) -> np.ndarray:
        """Current shadowing values in dB, shape ``(num_mobiles, num_cells)``."""
        rho = self.site_correlation
        combined = math.sqrt(rho) * self._common_shadow + math.sqrt(
            1.0 - rho
        ) * self._site_shadow
        return self.shadowing_std_db * combined

    def local_mean_gain(self) -> np.ndarray:
        """Path loss × shadowing gains (linear), shape ``(num_mobiles, num_cells)``."""
        if self._local_mean_cache is None:
            gain = self._path_gain * 10.0 ** (self.shadowing_db() / 10.0)
            gain.flags.writeable = False
            self._local_mean_cache = gain
            self.local_mean_builds += 1
        return self._local_mean_cache
