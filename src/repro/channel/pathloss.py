"""Deterministic path-loss models.

The paper (and the cdma2000 evaluation methodology it builds on, refs [1,2])
uses a distance-power-law path loss, :class:`LogDistancePathLoss`:
``PL(d) = PL0 + 10*n*log10(d/d0)`` dB.

A model exposes *gain* (linear, <= 1) and *loss in dB*;
:mod:`repro.cdma.linkgain` adds the loss in dB to the shadowing before its
single conversion to linear units.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from repro import constants
from repro.utils.validation import check_positive

ArrayLike = Union[float, np.ndarray]

__all__ = ["PathLossModel", "LogDistancePathLoss"]


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
