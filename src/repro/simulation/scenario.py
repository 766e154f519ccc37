"""Scenario configuration of the system-level simulations."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.config import SystemConfig
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_probability,
)

__all__ = ["TrafficConfig", "MobilityConfig", "PlacementConfig", "ScenarioConfig"]


@dataclass(frozen=True)
class TrafficConfig:
    """Traffic-mix parameters of one scenario.

    Attributes
    ----------
    mean_reading_time_s:
        Mean idle (reading) time between packet calls of a data user.
    packet_call_shape / packet_call_min_bits / packet_call_max_bits:
        Truncated-Pareto packet-call size parameters.
    forward_fraction:
        Probability that a packet call is a forward-link (downlink) burst;
        the remainder are reverse-link bursts.
    data_priority:
        Traffic-type priority ``Delta_j`` assigned to data bursts.
    """

    mean_reading_time_s: float = 4.0
    packet_call_shape: float = 1.8
    packet_call_min_bits: float = 24_000.0
    packet_call_max_bits: float = 1_200_000.0
    forward_fraction: float = 0.7
    data_priority: float = 0.0

    def __post_init__(self) -> None:
        check_positive("mean_reading_time_s", self.mean_reading_time_s)
        check_positive("packet_call_shape", self.packet_call_shape)
        check_positive("packet_call_min_bits", self.packet_call_min_bits)
        check_positive("packet_call_max_bits", self.packet_call_max_bits)
        check_probability("forward_fraction", self.forward_fraction)
        check_non_negative("data_priority", self.data_priority)


@dataclass(frozen=True)
class MobilityConfig:
    """User mobility parameters."""

    #: (low, high) uniform speed range in m/s (3 km/h – 50 km/h by default).
    speed_range_m_s: Tuple[float, float] = (0.83, 13.9)
    #: Mean time between direction changes.
    mean_epoch_s: float = 20.0

    def __post_init__(self) -> None:
        lo, hi = self.speed_range_m_s
        if lo < 0.0 or hi < lo:
            raise ValueError("speed_range_m_s must satisfy 0 <= low <= high")
        check_positive("mean_epoch_s", self.mean_epoch_s)


@dataclass(frozen=True)
class PlacementConfig:
    """User-placement model of one scenario.

    ``kind="uniform"`` (the default) drops every user uniformly inside its
    home cell — the paper's placement, bit-identical to the historic
    hard-wired behaviour.  ``kind="hotspot"`` concentrates a fraction of the
    users of the hotspot cell near its base station (see
    :class:`repro.simulation.placement.HotspotPlacement`); the hotspot
    parameters are ignored by the uniform model.
    """

    kind: str = "uniform"
    #: Probability that a hotspot-cell user is placed inside the hotspot disc.
    hotspot_fraction: float = 0.5
    #: Hotspot disc radius as a fraction of the cell radius.
    hotspot_radius_fraction: float = 0.3
    #: Index of the cell hosting the hotspot (0 = centre cell).
    hotspot_cell: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "hotspot"):
            raise ValueError(
                f"placement kind must be 'uniform' or 'hotspot', got {self.kind!r}"
            )
        check_probability("hotspot_fraction", self.hotspot_fraction)
        if not 0.0 < self.hotspot_radius_fraction <= 1.0:
            raise ValueError("hotspot_radius_fraction must lie in (0, 1]")
        check_non_negative_int("hotspot_cell", self.hotspot_cell)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one dynamic-simulation run.

    The per-user layer of the run (voice on/off activity, packet-call
    traffic, MAC state machines, mobility) always executes as
    structure-of-arrays fleets on their own seeded streams; see the fleet
    RNG contract in ``benchmarks/README.md``.  Specs saved with fields that
    no longer exist still load (see :func:`repro.registry.validate_spec`).

    Attributes
    ----------
    system:
        Radio/PHY/MAC configuration.
    num_data_users_per_cell / num_voice_users_per_cell:
        Population sizes (per cell; total = per-cell value times cell count).
    duration_s:
        Simulated time after the warm-up.
    warmup_s:
        Initial transient excluded from the metrics.
    seed:
        Master random seed.
    traffic / mobility / placement:
        Traffic-mix, mobility and user-placement parameters.
    trace_path:
        When set, the dynamic simulator records its telemetry event stream
        (run/frame/stage/admission events, see
        :mod:`repro.utils.recorder`) to this JSONL file.  ``None`` (the
        default) records nothing and keeps the frame loop on its
        hook-free fast path.  An explicit ``hooks=`` argument to
        :class:`~repro.simulation.dynamic.DynamicSystemSimulator` takes
        precedence over this path.
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    num_data_users_per_cell: int = 8
    num_voice_users_per_cell: int = 10
    duration_s: float = 30.0
    warmup_s: float = 2.0
    seed: int = 0
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        check_non_negative_int("num_data_users_per_cell", self.num_data_users_per_cell)
        check_non_negative_int("num_voice_users_per_cell", self.num_voice_users_per_cell)
        check_positive("duration_s", self.duration_s)
        check_non_negative("warmup_s", self.warmup_s)

    def with_load(self, num_data_users_per_cell: int) -> "ScenarioConfig":
        """Copy of the scenario with a different data-user population."""
        return replace(self, num_data_users_per_cell=num_data_users_per_cell)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy of the scenario with a different master seed."""
        return replace(self, seed=seed)

    @property
    def num_cells(self) -> int:
        """Number of cells in the scenario's hexagonal layout."""
        return self.system.num_cells

    @property
    def total_data_users(self) -> int:
        """Total number of data users across all cells."""
        return self.num_data_users_per_cell * self.num_cells

    @property
    def total_voice_users(self) -> int:
        """Total number of voice users across all cells."""
        return self.num_voice_users_per_cell * self.num_cells

    @classmethod
    def fast_test(cls, **overrides) -> "ScenarioConfig":
        """A deliberately tiny scenario for unit / integration tests."""
        defaults = dict(
            system=SystemConfig.small_test_system(),
            num_data_users_per_cell=3,
            num_voice_users_per_cell=3,
            duration_s=3.0,
            warmup_s=0.5,
            seed=7,
        )
        defaults.update(overrides)
        return cls(**defaults)
