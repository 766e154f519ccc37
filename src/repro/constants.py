"""Physical and system constants used throughout the reproduction.

The numerology follows the cdma2000 spreading-rate-1 (SR1) assumptions of
reference [1] of the paper (Knisely et al., *IEEE Communications Magazine*,
1998), which the paper's system model builds on.  All values are defaults and
may be overridden through :class:`repro.config.SystemConfig`.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Spreading / numerology
# ---------------------------------------------------------------------------

#: cdma2000 SR1 chip rate in chips per second.
CHIP_RATE_HZ: float = 1.2288e6

#: System bandwidth in Hz (approximately equal to the chip rate for SR1).
SYSTEM_BANDWIDTH_HZ: float = 1.25e6

#: Fundamental channel (FCH) information bit rate in bit/s (Rate Set 1).
FCH_BIT_RATE_BPS: float = 9600.0

#: Frame duration of the burst admission / scheduling frame in seconds.
FRAME_DURATION_S: float = 0.020

#: Maximum ratio of FCH spreading gain to SCH spreading gain (``M`` in the
#: paper).  ``m_j`` of every burst request is an integer in ``[0, M]``; the
#: SCH bit rate scales linearly with ``m_j`` (eq. (4) of the paper).
MAX_SPREADING_GAIN_RATIO: int = 16

# ---------------------------------------------------------------------------
# Radio propagation
# ---------------------------------------------------------------------------

#: Default path-loss exponent for the log-distance model (urban macro-cell).
PATH_LOSS_EXPONENT: float = 4.0

#: Default path loss at the reference distance, in dB.
PATH_LOSS_REFERENCE_DB: float = 128.1

#: Reference distance for the log-distance path-loss model, in metres.
PATH_LOSS_REFERENCE_DISTANCE_M: float = 1000.0

#: Default log-normal shadowing standard deviation in dB.
SHADOWING_STD_DB: float = 8.0

#: Default shadowing decorrelation distance in metres (Gudmundson model).
SHADOWING_DECORRELATION_DISTANCE_M: float = 50.0

#: Thermal noise power spectral density in dBm/Hz at 290 K.
THERMAL_NOISE_DENSITY_DBM_HZ: float = -174.0

#: Default mobile receiver noise figure in dB.
MOBILE_NOISE_FIGURE_DB: float = 9.0

#: Default base-station receiver noise figure in dB.
BASE_STATION_NOISE_FIGURE_DB: float = 5.0

# ---------------------------------------------------------------------------
# Power budgets
# ---------------------------------------------------------------------------

#: Maximum base-station transmit power in watts (20 W ~ 43 dBm).
BS_MAX_TX_POWER_W: float = 20.0

#: Fraction of the base-station power reserved for common channels (pilot,
#: paging, sync).
BS_COMMON_CHANNEL_FRACTION: float = 0.20

#: Maximum mobile-station transmit power in watts (200 mW ~ 23 dBm).
MS_MAX_TX_POWER_W: float = 0.200

#: Maximum tolerable reverse-link rise over thermal in dB (interference
#: limit ``L_max`` of the paper's eq. (16)).
REVERSE_LINK_MAX_RISE_DB: float = 6.0

# ---------------------------------------------------------------------------
# Physical layer (VTAOC)
# ---------------------------------------------------------------------------

#: Number of VTAOC transmission modes (excluding the "no transmission" mode).
VTAOC_NUM_MODES: int = 6

#: Default target bit error rate maintained by the constant-BER adaptation.
TARGET_BER: float = 1.0e-3

#: Default FCH Eb/Io target in dB used by closed-loop power control.
FCH_EB_IO_TARGET_DB: float = 7.0

# ---------------------------------------------------------------------------
# Voice traffic
# ---------------------------------------------------------------------------

#: Voice activity factor (fraction of time an active voice user transmits).
VOICE_ACTIVITY_FACTOR: float = 0.40

#: Mean duration of a voice talk spurt in seconds.
VOICE_TALK_SPURT_MEAN_S: float = 1.0

#: Mean duration of a voice silence period in seconds, chosen so the
#: long-run activity factor equals :data:`VOICE_ACTIVITY_FACTOR`.
VOICE_SILENCE_MEAN_S: float = VOICE_TALK_SPURT_MEAN_S * (
    1.0 / VOICE_ACTIVITY_FACTOR - 1.0
)

# ---------------------------------------------------------------------------
# MAC states (cdma2000, Figure 3 of the paper)
# ---------------------------------------------------------------------------

#: Time after which an idle data user drops from Active to Control-Hold (s).
MAC_ACTIVE_TO_CONTROL_HOLD_S: float = 0.10

#: ``T2`` in eq. (23): waiting time after which the Control-Hold state times
#: out into the Suspended state and the setup-delay penalty becomes ``D1``.
MAC_T2_S: float = 1.0

#: ``T3`` in eq. (23): waiting time after which the Suspended state times out
#: into the Dormant state and the setup-delay penalty becomes ``D2``.
MAC_T3_S: float = 5.0

#: ``D1`` in eq. (23): re-synchronisation penalty from the Suspended state (s).
MAC_D1_PENALTY_S: float = 0.040

#: ``D2`` in eq. (23): full re-connection penalty from the Dormant state (s).
MAC_D2_PENALTY_S: float = 0.300

# ---------------------------------------------------------------------------
# Soft hand-off
# ---------------------------------------------------------------------------

#: Pilot Ec/Io add threshold in dB (T_ADD): a pilot stronger than this enters
#: the active set.
HANDOFF_ADD_THRESHOLD_DB: float = -14.0

#: Pilot Ec/Io drop threshold in dB (T_DROP).
HANDOFF_DROP_THRESHOLD_DB: float = -16.0

#: Maximum size of the (FCH) active set.
ACTIVE_SET_MAX_SIZE: int = 3

#: Size of the *reduced* active set used for the SCH; the paper assumes the
#: 2 strongest pilots.
REDUCED_ACTIVE_SET_SIZE: int = 2

#: Maximum number of pilot strength measurements carried in a SCRM message
#: (footnote 6 of the paper).
SCRM_MAX_PILOTS: int = 8


def thermal_noise_power_w(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Return the thermal noise power in watts over ``bandwidth_hz``.

    Parameters
    ----------
    bandwidth_hz:
        Receiver bandwidth in Hz.
    noise_figure_db:
        Receiver noise figure in dB added on top of the -174 dBm/Hz floor.
    """
    dbm = THERMAL_NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)
