"""Pilot strength (Ec/Io) measurements.

Pilot measurements drive both soft hand-off (forward pilot Ec/Io measured at
the mobile) and the reverse-link burst measurements of the paper:

* ``t_j,k^(FL)`` — forward-link pilot strength of cell ``k`` measured by
  mobile ``j`` and reported in the SCRM message (used in eqs. (13)–(15) to
  estimate relative path loss towards non-soft-hand-off neighbour cells);
* ``t_j,k^(RL)`` — reverse-link pilot strength of mobile ``j`` measured at
  base station ``k`` (used in eqs. (10)–(12) to express the FCH reverse-link
  loading of the mobile).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "forward_pilot_ec_io",
    "forward_pilot_ec_io_rows",
    "mobile_received_power_w",
    "reverse_pilot_ec_io",
]


def forward_pilot_ec_io(
    gains: np.ndarray,
    bs_total_tx_power_w: np.ndarray,
    bs_pilot_power_w: np.ndarray,
    mobile_noise_power_w: float,
) -> np.ndarray:
    """Forward pilot Ec/Io of every cell as seen by every mobile.

    Parameters
    ----------
    gains:
        Local-mean link gains, shape ``(num_mobiles, num_cells)``.
    bs_total_tx_power_w:
        Current total transmit power of each base station, shape
        ``(num_cells,)``.
    bs_pilot_power_w:
        Pilot power of each base station, shape ``(num_cells,)``.
    mobile_noise_power_w:
        Thermal noise power at the mobile receiver.

    Returns
    -------
    numpy.ndarray
        ``t^(FL)`` of shape ``(num_mobiles, num_cells)``: received pilot
        power of cell ``k`` divided by the total received power (all cells
        plus noise) at mobile ``j``.
    """
    gains = np.asarray(gains, dtype=float)
    total = np.asarray(bs_total_tx_power_w, dtype=float)
    pilot = np.asarray(bs_pilot_power_w, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must be a 2-D (mobiles x cells) array")
    if total.shape != (gains.shape[1],) or pilot.shape != (gains.shape[1],):
        raise ValueError("power vectors must have one entry per cell")
    if mobile_noise_power_w < 0.0:
        raise ValueError("mobile_noise_power_w must be non-negative")
    return forward_pilot_ec_io_rows(
        gains, pilot, mobile_received_power_w(gains, total, mobile_noise_power_w)
    )


def mobile_received_power_w(
    gains: np.ndarray, bs_total_tx_power_w: np.ndarray, mobile_noise_power_w: float
) -> np.ndarray:
    """Total received power ``Io`` at every mobile (all cells plus noise), shape ``(J,)``.

    One product over all ``J`` rows: a product over a subset of the rows may
    round differently, so per-request pilot rows divide by this vector.
    """
    return gains @ bs_total_tx_power_w + mobile_noise_power_w


def forward_pilot_ec_io_rows(
    gains: np.ndarray, bs_pilot_power_w: np.ndarray, received_power_w: np.ndarray
) -> np.ndarray:
    """Forward pilot Ec/Io of the mobiles whose gain rows and ``Io`` are given.

    ``gains`` has shape ``(n, num_cells)`` and ``received_power_w`` shape
    ``(n,)`` (rows of :func:`mobile_received_power_w`); elementwise, so any
    subset of the rows equals the same rows of the full matrix bit for bit.
    """
    received_pilot = gains * bs_pilot_power_w[np.newaxis, :]
    return received_pilot / received_power_w[:, np.newaxis]


def reverse_pilot_ec_io(
    gains: np.ndarray,
    mobile_pilot_tx_power_w: np.ndarray,
    bs_total_received_power_w: np.ndarray,
) -> np.ndarray:
    """Reverse pilot Ec/Io of every mobile as seen by every base station.

    Parameters
    ----------
    gains:
        Local-mean link gains, shape ``(num_mobiles, num_cells)``.
    mobile_pilot_tx_power_w:
        Reverse pilot transmit power of each mobile, shape ``(num_mobiles,)``.
    bs_total_received_power_w:
        Total received power (including thermal noise) at each base station,
        shape ``(num_cells,)`` — the ``L_k`` of the paper.

    Returns
    -------
    numpy.ndarray
        ``t^(RL)`` of shape ``(num_mobiles, num_cells)``.
    """
    gains = np.asarray(gains, dtype=float)
    pilot = np.asarray(mobile_pilot_tx_power_w, dtype=float)
    total = np.asarray(bs_total_received_power_w, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must be a 2-D (mobiles x cells) array")
    if pilot.shape != (gains.shape[0],):
        raise ValueError("mobile_pilot_tx_power_w must have one entry per mobile")
    if total.shape != (gains.shape[1],):
        raise ValueError("bs_total_received_power_w must have one entry per cell")
    if np.any(total <= 0.0):
        raise ValueError("bs_total_received_power_w must be strictly positive")
    received_pilot = gains * pilot[:, np.newaxis]
    return received_pilot / total[np.newaxis, :]
