"""Vectorised local-mean link gains for every mobile–cell pair.

The paper splits the channel in two (Section 2.2): the fast Rayleigh fading
is handled by the VTAOC physical layer, whose throughput :mod:`repro.phy.vtaoc`
averages over the fading analytically, and burst admission sees only the
*local-mean* CSI.  The dynamic simulation therefore needs, at every frame,
the matrix of local-mean power gains between each mobile and each base
station.  Keeping one Python object per pair would be prohibitively slow for
hundreds of users, so this module maintains the two gain components as NumPy
arrays of shape ``(num_mobiles, num_cells)``:

* the path loss in dB — recomputed from the wrap-around distances each
  update (the map keeps the population's :class:`NearestImages` record, so
  only mobiles that left their certified region are re-minimised over the
  wrap-around images);
* the shadowing — one unit-variance state ``√ρ·common + √(1−ρ)·site``, a
  common per-mobile component giving the inter-site correlation ``ρ`` plus an
  independent per-site one, advanced with the exact Gudmundson AR(1) update
  driven by the distance each mobile moved.

The local-mean gain ``10**((σ·S − PL_dB)/10)`` is built with a single
``exp`` over the matrix once per frame.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import constants
from repro.channel.pathloss import LogDistancePathLoss, PathLossModel
from repro.geometry.hexgrid import HexagonalCellLayout, NearestImages
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["LinkGainMap"]

#: ``10**(x/10) == exp(x * ln(10)/10)``: dB to the natural exponent.
_LN10_OVER_10 = math.log(10.0) / 10.0


class LinkGainMap:
    """Maintains the path loss and the shadowing of all links.

    Parameters
    ----------
    layout:
        Cell layout providing wrap-around distances.
    num_mobiles:
        Number of mobiles (rows of the gain matrices).
    rng:
        Random generator (shadowing initialisation and innovations).
    path_loss:
        Path-loss model; defaults to :class:`LogDistancePathLoss`.
    shadowing_std_db / decorrelation_distance_m:
        Log-normal shadowing parameters.
    site_correlation:
        Correlation coefficient of the shadowing between different sites for
        the same mobile (0.5 is the common assumption).
    """

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
        # Shadowing: common per-mobile component + independent per-site
        # component, kept as their unit-variance sum.
        self._common_weight = math.sqrt(self.site_correlation)
        self._site_weight = math.sqrt(1.0 - self.site_correlation)
        common = self._rng.normal(0.0, 1.0, size=(self.num_mobiles, 1))
        site = self._rng.normal(0.0, 1.0, size=shape)
        self._shadow = self._common_weight * common + self._site_weight * site
        self._loss_db = np.zeros(shape, dtype=float)
        self._distances = np.ones(shape, dtype=float)
        # Winning wrap-around images per link: the map owns them because a
        # layout may be shared by several maps.
        self._images = NearestImages(self.num_mobiles, self.num_cells)
        # Per-frame cache of the local-mean gain matrix: building it involves
        # an exp over (J, K), and both the hand-off update and the
        # power-control snapshot need it every frame.  Invalidated whenever
        # positions or shadowing change; the count is exposed so regression
        # tests can assert one build per frame.
        self._local_mean_cache: Optional[np.ndarray] = None
        self.local_mean_builds = 0

    # -- state updates ------------------------------------------------------------
    def set_positions(self, positions: np.ndarray) -> None:
        """Recompute the path loss for the given mobile ``positions``."""
        positions = np.asarray(positions, dtype=float).reshape(self.num_mobiles, 2)
        if self.num_mobiles > 0:
            np.copyto(
                self._distances,
                self.layout.distances_to_all_batch(positions, images=self._images),
            )
        self._loss_db = np.asarray(self.path_loss.loss_db(self._distances), dtype=float)
        self._local_mean_cache = None

    def advance(self, positions: np.ndarray, moved_m: np.ndarray) -> None:
        """Advance the shadowing, then recompute the path loss.

        Both shadowing components decay with the same per-mobile coefficient
        ``a = exp(-moved/d_corr)``, so their sum is one AR(1) process; its
        innovation mixes the common and per-site draws with the state's
        weights and is added in place.

        Parameters
        ----------
        positions:
            New positions, shape ``(num_mobiles, 2)``.
        moved_m:
            Distance each mobile travelled since the last update, shape
            ``(num_mobiles,)``.
        """
        moved = np.asarray(moved_m, dtype=float).reshape(self.num_mobiles)
        if np.any(moved < 0.0):
            raise ValueError("moved_m must be non-negative")

        if self.shadowing_std_db > 0.0 and self.num_mobiles > 0:
            a = np.exp(-moved / self.decorrelation_distance_m)[:, np.newaxis]
            innovation_scale = np.sqrt(np.maximum(0.0, 1.0 - a ** 2))
            common = self._rng.normal(0.0, 1.0, size=(self.num_mobiles, 1))
            innovation = self._rng.normal(0.0, 1.0, size=self._shadow.shape)
            innovation *= self._site_weight * innovation_scale
            innovation += (self._common_weight * innovation_scale) * common
            self._shadow *= a
            self._shadow += innovation
            self._local_mean_cache = None

        self.set_positions(positions)

    @property
    def image_refreshes(self) -> int:
        """Mobiles re-minimised over the wrap-around images so far (cumulative).

        Every mobile is counted once by the first :meth:`set_positions`;
        afterwards only mobiles that moved at least their certified slack.
        """
        return self._images.refreshes

    # -- gain queries -----------------------------------------------------------------
    @property
    def distances_m(self) -> np.ndarray:
        """Mobile–cell distances, shape ``(num_mobiles, num_cells)``."""
        return self._distances.copy()

    def shadowing_db(self) -> np.ndarray:
        """Current shadowing values in dB, shape ``(num_mobiles, num_cells)``."""
        return self.shadowing_std_db * self._shadow

    def local_mean_gain(self) -> np.ndarray:
        """Path loss × shadowing gains (linear), shape ``(num_mobiles, num_cells)``.

        The matrix is cached until the next :meth:`set_positions` /
        :meth:`advance` and returned read-only (every per-frame consumer —
        hand-off, power control, measurements — shares one build).
        """
        if self._local_mean_cache is None:
            gain = self.shadowing_db()
            gain -= self._loss_db
            gain *= _LN10_OVER_10
            np.exp(gain, out=gain)
            gain.flags.writeable = False
            self._local_mean_cache = gain
            self.local_mean_builds += 1
        return self._local_mean_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LinkGainMap(mobiles={self.num_mobiles}, cells={self.num_cells}, "
            f"sigma={self.shadowing_std_db} dB)"
        )
