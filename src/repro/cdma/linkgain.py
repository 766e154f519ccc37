"""Vectorised link gains for every mobile–cell pair.

The dynamic simulation needs, at every frame, the full matrix of link power
gains between each mobile and each base station.  Keeping one Python object
per pair would be prohibitively slow for hundreds of users, so this module
maintains the three gain components as NumPy arrays of shape
``(num_mobiles, num_cells)``:

* ``path_gain`` — recomputed from the wrap-around distances each update
  (the map keeps the population's :class:`NearestImages` record, so only
  mobiles that left their certified region are re-minimised over the
  wrap-around images);
* ``shadowing_db`` — correlated log-normal shadowing advanced with the exact
  Gudmundson AR(1) update driven by the distance each mobile moved, with a
  configurable inter-site correlation (a common per-mobile component);
* ``fading`` — complex Gauss-Markov (Jakes-correlated) Rayleigh amplitudes.

The *local-mean* gain (path loss × shadowing) is what the measurement
sub-layer of the burst admission algorithm uses; the fast-fading component is
only consumed by the adaptive physical layer.
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


class LinkGainMap:
    """Maintains path loss, shadowing and fast fading for all links.

    Parameters
    ----------
    layout:
        Cell layout providing wrap-around distances.
    num_mobiles:
        Number of mobiles (rows of the gain matrices).
    rng:
        Random generator (shadowing initialisation and innovations, fading).
    path_loss:
        Path-loss model; defaults to :class:`LogDistancePathLoss`.
    shadowing_std_db / decorrelation_distance_m:
        Log-normal shadowing parameters.
    site_correlation:
        Correlation coefficient of the shadowing between different sites for
        the same mobile (0.5 is the common assumption).
    doppler_hz:
        Maximum Doppler frequency of the fast fading.
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
        doppler_hz: float = 10.0,
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
        self.doppler_hz = check_non_negative("doppler_hz", doppler_hz)
        self._rng = rng

        shape = (self.num_mobiles, self.num_cells)
        # Shadowing: common per-mobile component + independent per-site component.
        self._common_shadow = self._rng.normal(0.0, 1.0, size=(self.num_mobiles, 1))
        self._site_shadow = self._rng.normal(0.0, 1.0, size=shape)
        # Fast fading: complex Gauss-Markov with unit power.
        scale = math.sqrt(0.5)
        self._fading = self._rng.normal(scale=scale, size=shape) + 1j * self._rng.normal(
            scale=scale, size=shape
        )
        self._path_gain = np.ones(shape, dtype=float)
        self._distances = np.ones(shape, dtype=float)
        # Winning wrap-around images per link: the map owns them because a
        # layout may be shared by several maps.
        self._images = NearestImages(self.num_mobiles, self.num_cells)
        # Per-frame cache of the local-mean gain matrix: building it involves
        # a 10**(dB/10) over (J, K), and both the hand-off update and the
        # power-control snapshot need it every frame.  Invalidated whenever
        # positions or shadowing change; the count is exposed so regression
        # tests can assert one build per frame.
        self._local_mean_cache: Optional[np.ndarray] = None
        self.local_mean_builds = 0
        # Doppler correlation cache (j0 is re-evaluated only when dt changes).
        self._rho_cache: Optional[tuple] = None

    # -- state updates ------------------------------------------------------------
    def set_positions(self, positions: np.ndarray) -> None:
        """Recompute path gains for the given mobile ``positions`` (no fading update)."""
        positions = np.asarray(positions, dtype=float).reshape(self.num_mobiles, 2)
        if self.num_mobiles > 0:
            np.copyto(
                self._distances,
                self.layout.distances_to_all_batch(positions, images=self._images),
            )
        self._path_gain = np.asarray(self.path_loss.gain(self._distances), dtype=float)
        self._local_mean_cache = None

    def advance(
        self, positions: np.ndarray, moved_m: np.ndarray, dt_s: float
    ) -> None:
        """Advance shadowing and fading, then recompute path gains.

        Parameters
        ----------
        positions:
            New positions, shape ``(num_mobiles, 2)``.
        moved_m:
            Distance each mobile travelled since the last update, shape
            ``(num_mobiles,)``.
        dt_s:
            Elapsed time (fast-fading decorrelation).
        """
        moved = np.asarray(moved_m, dtype=float).reshape(self.num_mobiles)
        if np.any(moved < 0.0):
            raise ValueError("moved_m must be non-negative")
        check_non_negative("dt_s", dt_s)

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

        if self.doppler_hz > 0.0 and dt_s > 0.0 and self.num_mobiles > 0:
            rho_key = (dt_s, self.doppler_hz)
            if self._rho_cache is not None and self._rho_cache[0] == rho_key:
                rho = self._rho_cache[1]
            else:
                from scipy import special

                rho = float(special.j0(2.0 * math.pi * self.doppler_hz * dt_s))
                rho = min(max(rho, 0.0), 1.0)
                self._rho_cache = (rho_key, rho)
            scale = math.sqrt(0.5)
            shape = (self.num_mobiles, self.num_cells)
            w = self._rng.normal(scale=scale, size=shape) + 1j * self._rng.normal(
                scale=scale, size=shape
            )
            self._fading = rho * self._fading + math.sqrt(1.0 - rho * rho) * w

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
        rho = self.site_correlation
        combined = math.sqrt(rho) * self._common_shadow + math.sqrt(
            1.0 - rho
        ) * self._site_shadow
        return self.shadowing_std_db * combined

    def local_mean_gain(self) -> np.ndarray:
        """Path loss × shadowing gains (linear), shape ``(num_mobiles, num_cells)``.

        The matrix is cached until the next :meth:`set_positions` /
        :meth:`advance` and returned read-only (every per-frame consumer —
        hand-off, power control, measurements — shares one build).
        """
        if self._local_mean_cache is None:
            gain = self._path_gain * 10.0 ** (self.shadowing_db() / 10.0)
            gain.flags.writeable = False
            self._local_mean_cache = gain
            self.local_mean_builds += 1
        return self._local_mean_cache

    def fading_power(self) -> np.ndarray:
        """Fast-fading power gains ``|h|^2`` (unit mean), same shape."""
        return np.abs(self._fading) ** 2

    def instantaneous_gain(self) -> np.ndarray:
        """Full composite gains including fast fading (eq. (1))."""
        return self.local_mean_gain() * self.fading_power()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LinkGainMap(mobiles={self.num_mobiles}, cells={self.num_cells}, "
            f"sigma={self.shadowing_std_db} dB, doppler={self.doppler_hz} Hz)"
        )
