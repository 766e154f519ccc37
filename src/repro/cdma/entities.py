"""Base-station and mobile-station entities."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.geometry.mobility import MobilityModel, StaticMobility
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["UserClass", "BaseStation", "MobileStation"]


class UserClass(enum.Enum):
    """Service class of a mobile user."""

    #: Circuit voice user: on/off activity, FCH only, background load.
    VOICE = "voice"
    #: High-speed packet-data user: FCH (or dedicated control channel) plus
    #: burst-admitted SCH.
    DATA = "data"


@dataclass
class BaseStation:
    """One cell site.

    Attributes
    ----------
    index:
        Cell index ``k``.
    position:
        Coordinates in metres.
    max_tx_power_w:
        Total forward-link power budget ``P_max``.
    common_channel_power_w:
        Power permanently consumed by pilot/paging/sync channels.
    pilot_power_w:
        Pilot channel power (part of the common channel power).
    noise_power_w:
        Thermal noise power at the base-station receiver (reverse link).
    max_rise_over_thermal_db:
        Reverse-link interference limit expressed as rise over thermal
        (defines ``L_max`` in eq. (16)).
    """

    index: int
    position: np.ndarray
    max_tx_power_w: float = constants.BS_MAX_TX_POWER_W
    common_channel_power_w: float = (
        constants.BS_MAX_TX_POWER_W * constants.BS_COMMON_CHANNEL_FRACTION
    )
    pilot_power_w: float = constants.BS_MAX_TX_POWER_W * 0.10
    noise_power_w: float = constants.thermal_noise_power_w(
        constants.SYSTEM_BANDWIDTH_HZ, constants.BASE_STATION_NOISE_FIGURE_DB
    )
    max_rise_over_thermal_db: float = constants.REVERSE_LINK_MAX_RISE_DB

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(2)
        check_positive("max_tx_power_w", self.max_tx_power_w)
        check_non_negative("common_channel_power_w", self.common_channel_power_w)
        check_positive("pilot_power_w", self.pilot_power_w)
        check_positive("noise_power_w", self.noise_power_w)
        if self.common_channel_power_w >= self.max_tx_power_w:
            raise ValueError("common channel power must be below the power budget")
        if self.pilot_power_w > self.common_channel_power_w:
            raise ValueError("pilot power cannot exceed the common channel power")

    @property
    def max_traffic_power_w(self) -> float:
        """Power available for traffic channels (``P_max`` minus overhead)."""
        return self.max_tx_power_w - self.common_channel_power_w

    @property
    def max_reverse_interference_w(self) -> float:
        """Reverse-link interference ceiling ``L_max`` (absolute power)."""
        rise = 10.0 ** (self.max_rise_over_thermal_db / 10.0)
        return self.noise_power_w * rise


@dataclass
class MobileStation:
    """One mobile user.

    Attributes
    ----------
    index:
        Mobile index ``j``.
    user_class:
        Voice or data.
    mobility:
        Mobility model providing the position over time.
    max_tx_power_w:
        Mobile power amplifier limit.
    fch_pilot_power_ratio:
        ``xi_j`` of eq. (10): ratio of the (full-rate) FCH transmit power to
        the reverse pilot transmit power at the mobile.
    fch_active:
        Initial FCH/DCCH activity (voice activity / data session active);
        inactive users contribute no FCH load.
    fch_rate_factor:
        Initial rate of the held dedicated channel relative to the
        full-rate FCH: 1.0 for a full-rate FCH (voice talk spurt, data user
        with a burst on air), a small fraction for the low-rate dedicated
        control channel a data user keeps while waiting between bursts.

    The two FCH fields are the state a :class:`repro.cdma.network.CdmaNetwork`
    reads when it is built; from then on the network's arrays hold the FCH
    state and :meth:`~repro.cdma.network.CdmaNetwork.set_fch_state` is their
    only writer, so later writes to these fields do not reach the network.
    Static drops set them before building the network
    (:mod:`repro.simulation.snapshot` and the ``admission-heavy`` benchmark
    workload do).
    """

    index: int
    user_class: UserClass
    mobility: MobilityModel
    max_tx_power_w: float = constants.MS_MAX_TX_POWER_W
    fch_pilot_power_ratio: float = 4.0
    fch_active: bool = True
    fch_rate_factor: float = 1.0

    def __post_init__(self) -> None:
        check_positive("max_tx_power_w", self.max_tx_power_w)
        check_positive("fch_pilot_power_ratio", self.fch_pilot_power_ratio)
        if not 0.0 < self.fch_rate_factor <= 1.0:
            raise ValueError("fch_rate_factor must lie in (0, 1]")

    @property
    def position(self) -> np.ndarray:
        """Current position (m)."""
        return self.mobility.position

    @classmethod
    def static(
        cls,
        index: int,
        position: np.ndarray,
        user_class: UserClass = UserClass.DATA,
        **kwargs,
    ) -> "MobileStation":
        """Create a non-moving mobile at ``position`` (snapshot analyses)."""
        return cls(
            index=index,
            user_class=user_class,
            mobility=StaticMobility(position),
            **kwargs,
        )
