"""Central system configuration.

:class:`SystemConfig` bundles every physical-layer, radio-network and MAC
parameter of the reproduction.  All experiments build their scenarios from a
(possibly tweaked) ``SystemConfig`` so the parameter values used for every
figure/table live in a few places: the scenario of every dynamic experiment in
:func:`repro.experiments.common.paper_scenario` and its traffic in
:func:`~repro.experiments.common.paper_traffic`, the scale of every
experiment in :func:`repro.experiments.report.full_report` and
:func:`~repro.experiments.report.quick_report`.

The defaults follow the cdma2000 SR1 assumptions of the paper's references
[1, 2]; the parameters that the paper leaves to its companion technical report
(propagation, power budgets, power control, hand-off) are the defaults of
:class:`RadioConfig`, each documented on its field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import constants
from repro.utils.units import db_to_linear
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["PhyConfig", "RadioConfig", "MacConfig", "SystemConfig"]


@dataclass(frozen=True)
class PhyConfig:
    """Adaptive physical-layer (VTAOC) parameters."""

    #: Number of VTAOC transmission modes.
    num_modes: int = constants.VTAOC_NUM_MODES
    #: Target BER maintained by the constant-BER adaptation (SCH).
    target_ber: float = constants.TARGET_BER
    #: Coding gain of the orthogonal coding stage, dB.
    coding_gain_db: float = 3.0
    #: Throughput of the FCH's fixed-rate code (``rho_f``), bits per symbol.
    fch_throughput: float = 1.0
    #: SCH local-mean symbol Es/Io (dB) experienced by a user whose FCH is
    #: exactly on its power-control target.  The per-user local-mean CSI is
    #: scaled from this reference by the achieved FCH quality, which is how
    #: the spatial dimension (good-channel users offer more throughput per
    #: resource unit) enters the burst admission problem.
    sch_reference_csi_db: float = 15.0
    #: Relative SCH/FCH symbol energy requirement ``gamma_s`` (linear),
    #: forward link.
    gamma_s_forward: float = 1.0
    #: Relative SCH/FCH symbol energy requirement ``gamma_s`` (linear),
    #: reverse link.
    gamma_s_reverse: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int("num_modes", self.num_modes)
        check_probability("target_ber", self.target_ber)
        check_positive("fch_throughput", self.fch_throughput)
        check_positive("gamma_s_forward", self.gamma_s_forward)
        check_positive("gamma_s_reverse", self.gamma_s_reverse)

    @property
    def sch_reference_csi(self) -> float:
        """SCH reference local-mean CSI as a linear ratio."""
        return float(db_to_linear(self.sch_reference_csi_db))


@dataclass(frozen=True)
class RadioConfig:
    """Radio-network (cells, propagation, power control) parameters."""

    #: Number of rings of cells around the centre cell (1 ring = 7 cells).
    num_rings: int = 1
    #: Cell radius (centre to vertex), metres.
    cell_radius_m: float = 1000.0
    #: Wrap the layout so edge cells see a full interference tier.
    wraparound: bool = True

    #: Path-loss exponent and reference loss of the log-distance model.
    path_loss_exponent: float = constants.PATH_LOSS_EXPONENT
    path_loss_reference_db: float = constants.PATH_LOSS_REFERENCE_DB
    path_loss_reference_distance_m: float = constants.PATH_LOSS_REFERENCE_DISTANCE_M
    #: Log-normal shadowing standard deviation (dB) and decorrelation distance.
    shadowing_std_db: float = constants.SHADOWING_STD_DB
    shadowing_decorrelation_m: float = constants.SHADOWING_DECORRELATION_DISTANCE_M
    #: Inter-site shadowing correlation for the same mobile.
    shadowing_site_correlation: float = 0.5

    #: Base-station power budget and overheads.
    bs_max_tx_power_w: float = constants.BS_MAX_TX_POWER_W
    bs_common_channel_fraction: float = constants.BS_COMMON_CHANNEL_FRACTION
    bs_pilot_fraction: float = 0.10
    #: Maximum fraction of the traffic power budget a single FCH may consume
    #: (per-link cap; edge users may be power-limited).
    fch_max_power_fraction: float = 0.10
    #: Mobile power amplifier limit, watts.
    ms_max_tx_power_w: float = constants.MS_MAX_TX_POWER_W
    #: Reverse-link rise-over-thermal ceiling, dB (defines ``L_max``).
    max_rise_over_thermal_db: float = constants.REVERSE_LINK_MAX_RISE_DB

    #: System bandwidth and FCH numerology.
    bandwidth_hz: float = constants.SYSTEM_BANDWIDTH_HZ
    chip_rate_hz: float = constants.CHIP_RATE_HZ
    fch_bit_rate_bps: float = constants.FCH_BIT_RATE_BPS
    #: FCH Eb/Io target, dB.
    fch_ebio_target_db: float = constants.FCH_EB_IO_TARGET_DB
    #: Downlink orthogonality factor (own-cell interference fraction).
    orthogonality_factor: float = 0.6
    #: Mobile receiver noise figure, dB.
    mobile_noise_figure_db: float = constants.MOBILE_NOISE_FIGURE_DB
    #: Base-station receiver noise figure, dB.
    bs_noise_figure_db: float = constants.BASE_STATION_NOISE_FIGURE_DB
    #: Reverse pilot overhead relative to the FCH power (``1/xi``).
    reverse_pilot_overhead: float = 0.25
    #: Rate of the low-rate dedicated control channel a data user keeps while
    #: waiting between bursts, relative to the full-rate FCH (cdma2000
    #: control-hold state).
    control_channel_rate_fraction: float = 0.125

    #: Soft hand-off parameters.
    handoff_add_threshold_db: float = constants.HANDOFF_ADD_THRESHOLD_DB
    handoff_drop_threshold_db: float = constants.HANDOFF_DROP_THRESHOLD_DB
    active_set_max_size: int = constants.ACTIVE_SET_MAX_SIZE
    reduced_active_set_size: int = constants.REDUCED_ACTIVE_SET_SIZE

    def __post_init__(self) -> None:
        check_positive("cell_radius_m", self.cell_radius_m)
        check_positive("bs_max_tx_power_w", self.bs_max_tx_power_w)
        check_probability("bs_common_channel_fraction", self.bs_common_channel_fraction)
        check_probability("bs_pilot_fraction", self.bs_pilot_fraction)
        check_probability("fch_max_power_fraction", self.fch_max_power_fraction)
        check_positive("ms_max_tx_power_w", self.ms_max_tx_power_w)
        check_positive("bandwidth_hz", self.bandwidth_hz)
        check_positive("fch_bit_rate_bps", self.fch_bit_rate_bps)
        check_probability("orthogonality_factor", self.orthogonality_factor)
        check_non_negative("reverse_pilot_overhead", self.reverse_pilot_overhead)
        if not 0.0 < self.control_channel_rate_fraction <= 1.0:
            raise ValueError("control_channel_rate_fraction must lie in (0, 1]")

    @property
    def num_cells(self) -> int:
        """Number of cells in the hexagonal layout (1 ring = 7 cells)."""
        return 1 + 3 * self.num_rings * (self.num_rings + 1)

    @property
    def fch_processing_gain(self) -> float:
        """FCH processing gain ``W / Rf``."""
        return self.bandwidth_hz / self.fch_bit_rate_bps

    @property
    def fch_ebio_target(self) -> float:
        """FCH Eb/Io target as a linear ratio."""
        return float(db_to_linear(self.fch_ebio_target_db))

    @property
    def bs_noise_power_w(self) -> float:
        """Thermal noise power at the base-station receiver."""
        return constants.thermal_noise_power_w(self.bandwidth_hz, self.bs_noise_figure_db)

    @property
    def mobile_noise_power_w(self) -> float:
        """Thermal noise power at the mobile receiver."""
        return constants.thermal_noise_power_w(
            self.bandwidth_hz, self.mobile_noise_figure_db
        )

    @property
    def fch_pilot_power_ratio(self) -> float:
        """``xi``: FCH-to-pilot transmit power ratio at the mobile."""
        return 1.0 / self.reverse_pilot_overhead


@dataclass(frozen=True)
class MacConfig:
    """Burst-admission MAC parameters."""

    #: Scheduling frame duration, seconds.
    frame_duration_s: float = constants.FRAME_DURATION_S
    #: Maximum spreading-gain ratio ``M`` (``m_j`` ranges over ``0..M``).
    max_spreading_gain_ratio: int = constants.MAX_SPREADING_GAIN_RATIO
    #: Minimum admitted burst duration, seconds (eq. (24): bursts shorter than
    #: this are not worth their signalling overhead).
    min_burst_duration_s: float = 0.080
    #: Maximum burst duration granted in one admission, seconds.
    max_burst_duration_s: float = 0.640
    #: Forward-link reduced-active-set power adjustment factor ``alpha^(FL)``.
    alpha_forward: float = 1.0
    #: Reverse-link reduced-active-set power adjustment factor ``alpha^(RL)``.
    alpha_reverse: float = 1.0
    #: Shadowing margin ``kappa`` applied to projected neighbour-cell
    #: interference (eq. (15)), linear.
    neighbor_margin: float = 1.5
    #: Fraction of the forward-link power headroom the admission control may
    #: hand to SCH bursts (the remainder is kept as a power-control margin so
    #: FCH links of moving users are not starved by committed bursts).
    forward_admission_margin: float = 0.85
    #: Fraction of the reverse-link interference headroom usable by bursts.
    reverse_admission_margin: float = 0.85
    #: Delay-penalty scaling factor ``lambda`` of eq. (21).
    delay_penalty_scale: float = 0.5
    #: Delay-penalty forgetting factor ``mu`` of eq. (21).
    delay_forgetting_factor: float = 0.05
    #: MAC state timers (eq. (23)).
    t_active_to_control_hold_s: float = constants.MAC_ACTIVE_TO_CONTROL_HOLD_S
    t2_s: float = constants.MAC_T2_S
    t3_s: float = constants.MAC_T3_S
    d1_penalty_s: float = constants.MAC_D1_PENALTY_S
    d2_penalty_s: float = constants.MAC_D2_PENALTY_S

    def __post_init__(self) -> None:
        check_positive("frame_duration_s", self.frame_duration_s)
        check_positive_int("max_spreading_gain_ratio", self.max_spreading_gain_ratio)
        check_positive("min_burst_duration_s", self.min_burst_duration_s)
        check_positive("max_burst_duration_s", self.max_burst_duration_s)
        if self.max_burst_duration_s < self.min_burst_duration_s:
            raise ValueError("max_burst_duration_s must be >= min_burst_duration_s")
        check_positive("alpha_forward", self.alpha_forward)
        check_positive("alpha_reverse", self.alpha_reverse)
        check_positive("neighbor_margin", self.neighbor_margin)
        check_probability("forward_admission_margin", self.forward_admission_margin)
        check_probability("reverse_admission_margin", self.reverse_admission_margin)
        check_non_negative("delay_penalty_scale", self.delay_penalty_scale)
        check_non_negative("delay_forgetting_factor", self.delay_forgetting_factor)
        if not self.t2_s < self.t3_s:
            raise ValueError("t2_s must be smaller than t3_s")
        check_non_negative("d1_penalty_s", self.d1_penalty_s)
        check_non_negative("d2_penalty_s", self.d2_penalty_s)


@dataclass(frozen=True)
class SystemConfig:
    """Complete system configuration (PHY + radio + MAC)."""

    phy: PhyConfig = field(default_factory=PhyConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    mac: MacConfig = field(default_factory=MacConfig)

    def with_overrides(self, **sections) -> "SystemConfig":
        """Return a copy with whole sections replaced.

        Example: ``config.with_overrides(radio=replace(config.radio, num_rings=2))``.
        """
        return replace(self, **sections)

    @property
    def num_cells(self) -> int:
        """Number of cells in the configured hexagonal layout."""
        return self.radio.num_cells

    @classmethod
    def small_test_system(cls) -> "SystemConfig":
        """A deliberately small configuration for fast unit/integration tests."""
        return cls(
            radio=RadioConfig(num_rings=1, cell_radius_m=800.0),
            mac=MacConfig(),
        )
