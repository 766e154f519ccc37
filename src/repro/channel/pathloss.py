"""Deterministic path-loss models.

The paper (and the cdma2000 evaluation methodology it builds on, refs [1,2])
uses a distance-power-law path loss; two standard variants are provided:

* :class:`LogDistancePathLoss` — ``PL(d) = PL0 + 10*n*log10(d/d0)`` dB.
* :class:`HataPathLoss` — COST-231/Hata urban macro-cell formula, useful to
  check that the conclusions do not depend on the particular exponent model.

All models expose *gain* (linear, <= 1) and *loss in dB*;
:mod:`repro.cdma.linkgain` adds the loss in dB to the shadowing before its
single conversion to linear units.
"""

from __future__ import annotations

import abc
import math
from typing import Union

import numpy as np

from repro import constants
from repro.utils.validation import check_positive

ArrayLike = Union[float, np.ndarray]

__all__ = ["PathLossModel", "LogDistancePathLoss", "HataPathLoss"]


class PathLossModel(abc.ABC):
    """Abstract distance-dependent path-loss model."""

    #: Minimum distance used to avoid the near-field singularity, metres.
    min_distance_m: float = 1.0

    @abc.abstractmethod
    def loss_db(self, distance_m: ArrayLike) -> ArrayLike:
        """Path loss in dB at ``distance_m`` metres (element-wise)."""

    def gain(self, distance_m: ArrayLike) -> ArrayLike:
        """Linear power gain (<= 1) at ``distance_m`` metres."""
        loss = np.asarray(self.loss_db(distance_m), dtype=float)
        out = 10.0 ** (-loss / 10.0)
        if np.isscalar(distance_m) or out.ndim == 0:
            return float(out)
        return out

    def _clip_distance(self, distance_m: ArrayLike) -> np.ndarray:
        dist = np.asarray(distance_m, dtype=float)
        if np.any(dist < 0.0):
            raise ValueError("distance must be non-negative")
        return np.maximum(dist, self.min_distance_m)


class LogDistancePathLoss(PathLossModel):
    """Log-distance path-loss model.

    ``PL(d) = reference_loss_db + 10 * exponent * log10(d / reference_distance)``

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` (typically 3.5 – 4.5 for urban macro cells).
    reference_loss_db:
        Loss at the reference distance, dB.
    reference_distance_m:
        Reference distance ``d0`` in metres.
    """

    def __init__(
        self,
        exponent: float = constants.PATH_LOSS_EXPONENT,
        reference_loss_db: float = constants.PATH_LOSS_REFERENCE_DB,
        reference_distance_m: float = constants.PATH_LOSS_REFERENCE_DISTANCE_M,
    ) -> None:
        self.exponent = check_positive("exponent", exponent)
        self.reference_loss_db = float(reference_loss_db)
        self.reference_distance_m = check_positive(
            "reference_distance_m", reference_distance_m
        )

    def loss_db(self, distance_m: ArrayLike) -> ArrayLike:
        dist = self._clip_distance(distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * np.log10(
            dist / self.reference_distance_m
        )
        if np.isscalar(distance_m) or loss.ndim == 0:
            return float(loss)
        return loss

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LogDistancePathLoss(exponent={self.exponent}, "
            f"reference_loss_db={self.reference_loss_db}, "
            f"reference_distance_m={self.reference_distance_m})"
        )


class HataPathLoss(PathLossModel):
    """COST-231 Hata urban macro-cell path loss.

    Valid for carrier frequencies of 1.5 – 2 GHz, base-station antenna heights
    of 30 – 200 m and mobile antenna heights of 1 – 10 m.  Outside those
    ranges the formula is still evaluated (the model degrades gracefully) but
    a :class:`ValueError` is raised for non-physical inputs.

    Parameters
    ----------
    carrier_frequency_hz:
        Carrier frequency in Hz.
    base_height_m:
        Base-station antenna height in metres.
    mobile_height_m:
        Mobile antenna height in metres.
    large_city:
        Use the large-city correction term when True.
    """

    def __init__(
        self,
        carrier_frequency_hz: float = constants.CARRIER_FREQUENCY_HZ,
        base_height_m: float = 30.0,
        mobile_height_m: float = 1.5,
        large_city: bool = False,
    ) -> None:
        self.carrier_frequency_hz = check_positive(
            "carrier_frequency_hz", carrier_frequency_hz
        )
        self.base_height_m = check_positive("base_height_m", base_height_m)
        self.mobile_height_m = check_positive("mobile_height_m", mobile_height_m)
        self.large_city = bool(large_city)

    def _mobile_correction_db(self) -> float:
        f_mhz = self.carrier_frequency_hz / 1e6
        h = self.mobile_height_m
        if self.large_city:
            return 3.2 * (math.log10(11.75 * h)) ** 2 - 4.97
        return (1.1 * math.log10(f_mhz) - 0.7) * h - (1.56 * math.log10(f_mhz) - 0.8)

    def loss_db(self, distance_m: ArrayLike) -> ArrayLike:
        dist_km = self._clip_distance(distance_m) / 1000.0
        dist_km = np.maximum(dist_km, 0.02)  # formula breaks below ~20 m
        f_mhz = self.carrier_frequency_hz / 1e6
        hb = self.base_height_m
        a_hm = self._mobile_correction_db()
        c_m = 3.0 if self.large_city else 0.0
        loss = (
            46.3
            + 33.9 * math.log10(f_mhz)
            - 13.82 * math.log10(hb)
            - a_hm
            + (44.9 - 6.55 * math.log10(hb)) * np.log10(dist_km)
            + c_m
        )
        if np.isscalar(distance_m) or np.ndim(loss) == 0:
            return float(loss)
        return loss

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HataPathLoss(f={self.carrier_frequency_hz / 1e6:.0f} MHz, "
            f"hb={self.base_height_m} m, hm={self.mobile_height_m} m, "
            f"large_city={self.large_city})"
        )
