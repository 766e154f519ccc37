"""Bit-error-rate models for the adaptive and fixed-rate physical layers.

The paper relies on the VTAOC analysis of refs. [3] and [7] for the exact
error-probability expressions; those papers use orthogonal coding and
modulation over Rayleigh fading channels.  For the reproduction we need a BER
model with three properties:

1. monotonically decreasing in the symbol energy-to-interference ratio
   ``gamma``;
2. monotonically increasing in the per-symbol information load of the mode
   (more bits per symbol ⇒ more required energy), so that the constant-BER
   adaptation thresholds are increasing across modes;
3. invertible, so the thresholds can be computed in closed form.

Two models are provided:

* :func:`ber_adaptive_mode` — the exponential adaptive-modulation
  approximation ``Pb ≈ 0.2 * exp(-1.5 * gamma / (2**b - 1))`` (Chung &
  Goldsmith), optionally shifted by a coding gain; this is the default model
  used by :class:`repro.phy.vtaoc.VtaocCodec` because it is closed-form
  invertible.
* :func:`ber_orthogonal_union` — the union bound for coherent M-ary
  orthogonal signalling, ``Pb ≈ (M/2) * Q(sqrt(gamma))``; used in tests to
  check that the qualitative conclusions do not depend on the BER model.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from scipy import special

from repro.utils.validation import check_positive

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "q_function",
    "inverse_q_function",
    "ber_adaptive_mode",
    "required_csi_adaptive_mode",
    "ber_orthogonal_union",
    "required_csi_orthogonal_union",
]

#: Prefactor of the exponential BER approximation.
_BER_PREFACTOR = 0.2
#: Slope factor of the exponential BER approximation.
_BER_SLOPE = 1.5


def q_function(x: ArrayLike) -> ArrayLike:
    """Gaussian tail probability ``Q(x) = P(N(0,1) > x)``."""
    out = 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def inverse_q_function(p: ArrayLike) -> ArrayLike:
    """Inverse of :func:`q_function` for ``p`` in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ValueError("inverse_q_function requires p in (0, 1)")
    out = math.sqrt(2.0) * special.erfcinv(2.0 * arr)
    if np.isscalar(p) or np.ndim(p) == 0:
        return float(out)
    return out


def _coding_gain_linear(coding_gain_db: float) -> float:
    return 10.0 ** (coding_gain_db / 10.0)


def ber_adaptive_mode(
    gamma: ArrayLike, bits_per_symbol: float, coding_gain_db: float = 0.0
) -> ArrayLike:
    """BER of an adaptive mode carrying ``bits_per_symbol`` at CSI ``gamma``.

    ``Pb = min(0.5, 0.2 * exp(-1.5 * G * gamma / (2**b - 1)))`` where ``G`` is
    the linear coding gain.  ``gamma`` is the instantaneous symbol
    energy-to-interference ratio (linear).
    """
    check_positive("bits_per_symbol", bits_per_symbol)
    g = _coding_gain_linear(coding_gain_db)
    gam = np.asarray(gamma, dtype=float)
    if np.any(gam < 0.0):
        raise ValueError("gamma must be non-negative")
    denom = 2.0 ** bits_per_symbol - 1.0
    pb = _BER_PREFACTOR * np.exp(-_BER_SLOPE * g * gam / denom)
    pb = np.minimum(pb, 0.5)
    if np.isscalar(gamma) or np.ndim(gamma) == 0:
        return float(pb)
    return pb


def required_csi_adaptive_mode(
    target_ber: float, bits_per_symbol: float, coding_gain_db: float = 0.0
) -> float:
    """Minimum CSI at which the mode meets ``target_ber`` (inverse of the BER).

    This is the constant-BER adaptation threshold of the mode.
    """
    if not 0.0 < target_ber < _BER_PREFACTOR:
        raise ValueError(
            f"target_ber must lie in (0, {_BER_PREFACTOR}) for the exponential model"
        )
    check_positive("bits_per_symbol", bits_per_symbol)
    g = _coding_gain_linear(coding_gain_db)
    denom = 2.0 ** bits_per_symbol - 1.0
    return float(-math.log(target_ber / _BER_PREFACTOR) * denom / (_BER_SLOPE * g))


def ber_orthogonal_union(gamma: ArrayLike, order: int) -> ArrayLike:
    """Union-bound BER of coherent ``order``-ary orthogonal signalling.

    ``Ps <= (M - 1) * Q(sqrt(gamma))`` and ``Pb = Ps * (M/2) / (M - 1)``,
    clipped to 0.5.  ``gamma`` is the symbol energy-to-interference ratio.
    """
    if order < 2 or (order & (order - 1)) != 0:
        raise ValueError("order must be a power of two >= 2")
    gam = np.asarray(gamma, dtype=float)
    if np.any(gam < 0.0):
        raise ValueError("gamma must be non-negative")
    pb = (order / 2.0) * q_function(np.sqrt(gam))
    pb = np.minimum(pb, 0.5)
    if np.isscalar(gamma) or np.ndim(gamma) == 0:
        return float(pb)
    return pb


def required_csi_orthogonal_union(target_ber: float, order: int) -> float:
    """Minimum symbol CSI meeting ``target_ber`` under the union-bound model."""
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target_ber must lie in (0, 0.5)")
    if order < 2 or (order & (order - 1)) != 0:
        raise ValueError("order must be a power of two >= 2")
    p_arg = 2.0 * target_ber / order
    if p_arg >= 1.0:
        return 0.0
    x = inverse_q_function(p_arg)
    return float(x * x)
