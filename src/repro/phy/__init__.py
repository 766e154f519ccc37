"""Variable-throughput adaptive physical layer (Section 2.2 of the paper).

The physical layer consists of two stages (Figure 1(a) of the paper):

* an **adaptive coding stage** — the variable-throughput adaptive orthogonal
  coding scheme (VTAOC) selects one of several transmission modes per symbol
  based on the CSI fed back from the receiver; the adaptation thresholds are
  set to keep the bit error rate at a constant target ("constant BER mode"),
  so the penalty for a bad channel is reduced throughput rather than
  increased error rate;
* a **spreading stage** — the coded symbols are spread by a PN sequence; the
  supplemental channel (SCH) attains its high bit rate through a reduced
  spreading gain (factor ``m``) and the higher average throughput of the
  VTAOC (eqs. (2), (4), (5)).

Public API
----------
:class:`~repro.phy.modes.TransmissionMode` / :class:`~repro.phy.modes.ModeTable`
    The mode family (throughput per mode).
:class:`~repro.phy.vtaoc.VtaocCodec`
    Adaptive codec: mode selection, instantaneous and average throughput.
:class:`~repro.phy.fixedrate.FixedRatePhy`
    Non-adaptive baseline used in experiment F1.

The spreading-stage relations are evaluated where the admission layer needs
them: the SCH power ``m * gamma_s`` times the FCH power (eq. (5)) in
:mod:`repro.mac.measurement`, from :class:`repro.config.PhyConfig`'s
``gamma_s`` fields, and the SCH bit rate ``m * delta_rho * Rf`` (eq. (4)) in
:mod:`repro.mac.admission` and :mod:`repro.mac.constraints`.
"""

from repro.phy.ber import q_function, ber_adaptive_mode, ber_orthogonal_union
from repro.phy.modes import TransmissionMode, ModeTable
from repro.phy.thresholds import constant_ber_thresholds, threshold_for_mode
from repro.phy.vtaoc import VtaocCodec, instantaneous_csi
from repro.phy.fixedrate import FixedRatePhy

__all__ = [
    "q_function",
    "ber_adaptive_mode",
    "ber_orthogonal_union",
    "TransmissionMode",
    "ModeTable",
    "constant_ber_thresholds",
    "threshold_for_mode",
    "VtaocCodec",
    "instantaneous_csi",
    "FixedRatePhy",
]
