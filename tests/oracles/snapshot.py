"""Reference snapshot measurements: every ``(J, K)`` matrix built eagerly.

These are the lines of ``CdmaNetwork.snapshot`` (and of the pilot functions
and the hand-off scatter they called) from before the loads computed the
per-request rows on demand, kept verbatim as a parity oracle.  Call
:func:`eager_measurements` with the network right after its ``snapshot()``,
before the FCH state of the next frame is set.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["eager_measurements"]


def _forward_pilot_ec_io(gains, total, pilot, mobile_noise_power_w):
    received_total = gains @ total + mobile_noise_power_w  # (num_mobiles,)
    received_pilot = gains * pilot[np.newaxis, :]
    return received_pilot / received_total[:, np.newaxis]


def _reverse_pilot_ec_io(gains, pilot, total):
    received_pilot = gains * pilot[:, np.newaxis]
    return received_pilot / total[np.newaxis, :]


def _scatter_membership(ordered: np.ndarray, num_cells: int) -> np.ndarray:
    out = np.zeros((ordered.shape[0], num_cells), dtype=bool)
    rows, slots = np.nonzero(ordered >= 0)
    out[rows, ordered[rows, slots]] = True
    return out


def eager_measurements(network, snapshot) -> Dict[str, np.ndarray]:
    """The four matrices the snapshot used to build, keyed by attribute name."""
    self = network
    gains = snapshot.gains
    active = self._fch_active
    rate_factors = self._fch_rate
    forward_result, reverse_result = snapshot.forward_pc, snapshot.reverse_pc
    bs_pilot = self._bs_pilot_power_w

    # -- pilot measurements ----------------------------------------------------
    forward_pilots = _forward_pilot_ec_io(
        gains,
        forward_result.total_power_w,
        bs_pilot,
        self._mobile_noise_power_w,
    )
    xi = self._xi
    fullrate_tx = np.where(
        active, reverse_result.tx_power_w / np.maximum(rate_factors, 1e-12), 0.0
    )
    mobile_pilot_tx = fullrate_tx / np.maximum(xi, 1e-12)
    reverse_pilots = _reverse_pilot_ec_io(
        gains, mobile_pilot_tx, reverse_result.total_power_w
    )

    # -- loading snapshots -----------------------------------------------------
    with np.errstate(divide="ignore", invalid="ignore"):
        fullrate_fch = forward_result.tx_power_w / np.maximum(
            rate_factors[:, np.newaxis], 1e-12
        )
    reduced = _scatter_membership(
        self.handoff._ordered[:, : self.handoff.reduced_active_set_size],
        self.num_cells,
    )
    return {
        "fch_power_w": fullrate_fch,
        "reverse_pilot_strength": reverse_pilots,
        "forward_pilot_strength": forward_pilots,
        "reduced_membership": reduced,
    }
