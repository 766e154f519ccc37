"""The multi-cell wideband CDMA network.

:class:`CdmaNetwork` ties the substrate together: cell layout, link gains,
pilot measurements, soft hand-off, forward/reverse FCH power control and the
bookkeeping of granted SCH burst powers.  Its :meth:`CdmaNetwork.step` method
advances the radio network by one scheduling frame and produces a
:class:`NetworkSnapshot` containing every measurement the burst admission
layer needs (Figure 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cdma.entities import BaseStation, MobileStation, UserClass
from repro.cdma.handoff import ActiveSetState, SoftHandoffController, membership_matrix
from repro.cdma.linkgain import LinkGainMap
from repro.cdma.loading import ForwardLinkLoad, ReverseLinkLoad
from repro.cdma.pilot import forward_pilot_ec_io, mobile_received_power_w
from repro.cdma.powercontrol import (
    ForwardLinkPowerControl,
    PowerControlResult,
    ReverseLinkPowerControl,
)
from repro.channel.pathloss import LogDistancePathLoss
from repro.config import SystemConfig
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import StaticMobility

__all__ = ["CdmaNetwork", "NetworkSnapshot"]

#: Relative float tolerance of a burst-power release: a release may exceed
#: the committed power by at most ``RELEASE_RTOL * max(1 W, committed,
#: released)``, the rounding left by summing and subtracting the grants.
RELEASE_RTOL = 1e-9


def _released(committed: float, power_w: float, link: str, cell_index: int) -> float:
    """Committed burst power left after releasing ``power_w``.

    A rounding residue within :data:`RELEASE_RTOL` is clamped to exactly
    0.0; a negative release, or one beyond that tolerance (a double
    release), raises ``ValueError`` instead of being hidden by a clamp.
    """
    if power_w < 0.0:
        raise ValueError("power_w must be non-negative")
    remaining = committed - power_w
    if remaining < 0.0:
        if -remaining > RELEASE_RTOL * max(1.0, committed, power_w):
            raise ValueError(
                f"{link}-link release of {power_w!r} W at cell {cell_index} "
                f"exceeds the {committed!r} W committed there"
            )
        remaining = 0.0
    return remaining


@dataclass
class NetworkSnapshot:
    """Per-frame measurement snapshot consumed by the burst admission layer.

    Attributes
    ----------
    time_s:
        Simulation time of the snapshot.
    gains:
        Local-mean link gains, shape ``(J, K)``.
    forward_load / reverse_load:
        Loading snapshots (see :mod:`repro.cdma.loading`).
    handoff_states:
        Per-mobile soft hand-off state.
    serving_cells:
        Strongest-pilot cell per mobile.
    sch_mean_csi_forward / sch_mean_csi_reverse:
        Local-mean SCH symbol Es/Io per mobile on each link; drives the VTAOC
        average throughput ``delta_rho``.
    forward_pc / reverse_pc:
        Raw power-control results (achieved SIR, power-limited flags).
    active_set_matrix / reduced_active_set_matrix:
        Boolean soft-hand-off membership matrices, shape ``(J, K)``; consumed
        by the batched measurement kernels.  Optional: snapshots built by
        hand (tests, transcribed baselines) may omit them, in which case
        :meth:`active_membership` / :meth:`reduced_membership` materialise
        them on first use, from ``reduced_active_sets`` when given and from
        ``handoff_states`` otherwise.
    reduced_active_sets:
        Optional reduced active sets as cell indices, strongest pilot first,
        ``-1`` padded, shape ``(J, R)``.  The network passes these instead of
        the reduced-set matrix, so :meth:`reduced_membership_rows` scatters
        only the requesters' rows.

    A snapshot taken by :class:`CdmaNetwork` computes the ``(J, K)``
    measurements the admission layer reads per request on demand: the
    full-rate FCH allocations, both pilot Ec/Io matrices (see
    :mod:`repro.cdma.loading`) and the reduced-set membership.
    """

    time_s: float
    gains: np.ndarray
    forward_load: ForwardLinkLoad
    reverse_load: ReverseLinkLoad
    handoff_states: Sequence[ActiveSetState]
    serving_cells: np.ndarray
    sch_mean_csi_forward: np.ndarray
    sch_mean_csi_reverse: np.ndarray
    forward_pc: PowerControlResult
    reverse_pc: PowerControlResult
    active_set_matrix: Optional[np.ndarray] = None
    reduced_active_set_matrix: Optional[np.ndarray] = None
    reduced_active_sets: Optional[np.ndarray] = None

    @property
    def num_mobiles(self) -> int:
        """Number of mobiles in the snapshot."""
        return self.gains.shape[0]

    @property
    def num_cells(self) -> int:
        """Number of cells in the snapshot."""
        return self.gains.shape[1]

    def _membership_from_states(self, reduced: bool) -> np.ndarray:
        out = np.zeros((len(self.handoff_states), self.num_cells), dtype=bool)
        for j, state in enumerate(self.handoff_states):
            cells = state.reduced_active_set if reduced else state.active_set
            out[j, list(cells)] = True
        out.flags.writeable = False
        return out

    def active_membership(self) -> np.ndarray:
        """Boolean FCH active-set membership, shape ``(J, K)``."""
        if self.active_set_matrix is None:
            self.active_set_matrix = self._membership_from_states(reduced=False)
        return self.active_set_matrix

    def reduced_membership(self) -> np.ndarray:
        """Boolean reduced-active-set (SCH legs) membership, shape ``(J, K)``."""
        if self.reduced_active_set_matrix is None:
            self.reduced_active_set_matrix = (
                self._membership_from_states(reduced=True)
                if self.reduced_active_sets is None
                else membership_matrix(self.reduced_active_sets, self.num_cells)
            )
        return self.reduced_active_set_matrix

    def reduced_membership_rows(self, mobiles) -> np.ndarray:
        """Reduced-active-set membership of the ``mobiles``, shape ``(n, K)``."""
        if self.reduced_active_set_matrix is None and self.reduced_active_sets is not None:
            return membership_matrix(self.reduced_active_sets[mobiles], self.num_cells)
        return self.reduced_membership()[mobiles]

    def fch_outage_fraction(self) -> float:
        """Fraction of active FCH links that failed to reach their SIR target."""
        fwd = self.forward_pc.power_limited
        rev = self.reverse_pc.power_limited
        active = ~np.isnan(self.forward_pc.achieved_sir)
        if not np.any(active):
            return 0.0
        return float(np.mean((fwd | rev)[active]))


class CdmaNetwork:
    """Multi-cell CDMA radio network substrate.

    Parameters
    ----------
    config:
        System configuration (radio section drives this class).
    mobiles:
        The mobile stations (voice and data users).  Their ``fch_active``
        and ``fch_rate_factor`` fields are the initial FCH state, read once
        here; static drops (:mod:`repro.simulation.snapshot`, the
        ``admission-heavy`` benchmark workload) set them before building the
        network.  After construction :meth:`set_fch_state` is the only way
        to change the FCH state.
    rng:
        Random generator for the propagation processes.
    layout:
        Optional pre-built cell layout (built from ``config`` when omitted).
    mobility_fleet:
        The source of the positions of a moving population, e.g. the
        dynamic simulator's
        :class:`repro.geometry.mobility.RandomDirectionFleet`.  It must
        expose ``positions`` of shape ``(J, 2)``, adopted as the network's
        position storage, and ``advance(dt_s, out_moved=...)``, which
        :meth:`advance` calls once per frame.  The mobiles' own
        ``mobility`` models are then only views of the fleet.  Without a
        fleet the positions are the mobiles' fixed positions: every mobile
        must have a :class:`~repro.geometry.mobility.StaticMobility` model
        (``ValueError`` otherwise), and :meth:`advance` moves nobody.

    Notes
    -----
    Per-frame state is kept in structure-of-arrays form: static per-cell
    vectors (common/pilot/noise power, traffic budget) are precomputed once,
    and the per-mobile FCH activity/rate arrays are read from the mobiles
    once, at construction, and then written only by :meth:`set_fch_state`,
    so a ``snapshot()`` never re-scans the Python entity objects.
    """

    def __init__(
        self,
        config: SystemConfig,
        mobiles: Sequence[MobileStation],
        rng: np.random.Generator,
        layout: Optional[HexagonalCellLayout] = None,
        mobility_fleet=None,
    ) -> None:
        self.config = config
        radio = config.radio
        self.layout = (
            layout
            if layout is not None
            else HexagonalCellLayout(
                num_rings=radio.num_rings,
                cell_radius_m=radio.cell_radius_m,
                wraparound=radio.wraparound,
            )
        )
        self.mobiles: List[MobileStation] = list(mobiles)
        self.base_stations: List[BaseStation] = [
            BaseStation(
                index=k,
                position=self.layout.position_of(k),
                max_tx_power_w=radio.bs_max_tx_power_w,
                common_channel_power_w=radio.bs_max_tx_power_w
                * radio.bs_common_channel_fraction,
                pilot_power_w=radio.bs_max_tx_power_w * radio.bs_pilot_fraction,
                noise_power_w=radio.bs_noise_power_w,
                max_rise_over_thermal_db=radio.max_rise_over_thermal_db,
            )
            for k in range(self.layout.num_cells)
        ]
        self.link_gains = LinkGainMap(
            layout=self.layout,
            num_mobiles=len(self.mobiles),
            rng=rng,
            path_loss=LogDistancePathLoss(
                exponent=radio.path_loss_exponent,
                reference_loss_db=radio.path_loss_reference_db,
                reference_distance_m=radio.path_loss_reference_distance_m,
            ),
            shadowing_std_db=radio.shadowing_std_db,
            decorrelation_distance_m=radio.shadowing_decorrelation_m,
            site_correlation=radio.shadowing_site_correlation,
        )
        self.handoff = SoftHandoffController(
            num_mobiles=len(self.mobiles),
            add_threshold_db=radio.handoff_add_threshold_db,
            drop_threshold_db=radio.handoff_drop_threshold_db,
            max_active_set_size=radio.active_set_max_size,
            reduced_active_set_size=radio.reduced_active_set_size,
        )
        self.reverse_pc = ReverseLinkPowerControl(
            processing_gain=radio.fch_processing_gain,
            ebio_target=radio.fch_ebio_target,
            pilot_overhead=radio.reverse_pilot_overhead,
            max_tx_power_w=radio.ms_max_tx_power_w,
        )
        self.forward_pc = ForwardLinkPowerControl(
            processing_gain=radio.fch_processing_gain,
            ebio_target=radio.fch_ebio_target,
            orthogonality_factor=radio.orthogonality_factor,
            mobile_noise_power_w=radio.mobile_noise_power_w,
        )
        #: Committed SCH burst transmit power per cell (forward link), watts.
        self.forward_burst_power_w = np.zeros(self.num_cells)
        #: Committed SCH burst received power per cell (reverse link), watts.
        self.reverse_burst_power_w = np.zeros(self.num_cells)

        # -- structure-of-arrays state ------------------------------------------
        # Static per-cell vectors (base-station parameters never change after
        # construction): computed once instead of one list comprehension per
        # frame.
        bs = self.base_stations
        self._bs_common_power_w = np.asarray([b.common_channel_power_w for b in bs])
        self._bs_pilot_power_w = np.asarray([b.pilot_power_w for b in bs])
        self._bs_noise_power_w = np.asarray([b.noise_power_w for b in bs])
        self._bs_traffic_budget_w = np.asarray([b.max_traffic_power_w for b in bs])
        self._bs_max_reverse_interference_w = np.asarray(
            [b.max_reverse_interference_w for b in bs]
        )
        self._max_link_power_w = (
            radio.fch_max_power_fraction * self._bs_traffic_budget_w.min()
        )
        self._mobile_noise_power_w = radio.mobile_noise_power_w

        # Static per-mobile vectors.
        self._xi = np.asarray(
            [m.fch_pilot_power_ratio for m in self.mobiles], dtype=float
        )
        self._data_indices = np.asarray(
            [m.index for m in self.mobiles if m.user_class is UserClass.DATA],
            dtype=int,
        )
        self._voice_indices = np.asarray(
            [m.index for m in self.mobiles if m.user_class is UserClass.VOICE],
            dtype=int,
        )
        self._data_indices.flags.writeable = False
        self._voice_indices.flags.writeable = False

        # Dynamic per-mobile arrays, updated in place: FCH activity/rate by
        # set_fch_state (the mobiles' fields are only the initial state),
        # positions by the mobility fleet's advance.
        num_mobiles = len(self.mobiles)
        self._fch_active = np.asarray(
            [m.fch_active for m in self.mobiles], dtype=bool
        ).reshape(num_mobiles)
        self._fch_rate = np.asarray(
            [m.fch_rate_factor for m in self.mobiles], dtype=float
        ).reshape(num_mobiles)
        if mobility_fleet is not None:
            if mobility_fleet.positions.shape != (num_mobiles, 2):
                raise ValueError(
                    "mobility_fleet.positions must have shape (num_mobiles, 2)"
                )
            self._positions_arr = mobility_fleet.positions
        else:
            self._positions_arr = np.zeros((num_mobiles, 2))
            for j, mobile in enumerate(self.mobiles):
                if not isinstance(mobile.mobility, StaticMobility):
                    raise ValueError(
                        f"mobile {j} moves ({type(mobile.mobility).__name__}): "
                        "a network without a mobility_fleet holds static mobiles only"
                    )
                self._positions_arr[j] = mobile.mobility.position
        self._mobility_fleet = mobility_fleet
        # Distance travelled per mobile in the last advance; all zeros
        # without a fleet.
        self._moved_buf = np.zeros(num_mobiles)

        self._time_s = 0.0
        # Initialise positions/gains and hand-off from the starting locations.
        self.link_gains.set_positions(self._positions_arr)
        self._update_handoff()

    # -- basic accessors ---------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return self.layout.num_cells

    @property
    def num_mobiles(self) -> int:
        """Number of mobiles."""
        return len(self.mobiles)

    @property
    def time_s(self) -> float:
        """Current network time (advanced by :meth:`step`)."""
        return self._time_s

    def data_mobile_indices(self) -> np.ndarray:
        """Indices of the high-speed data users (cached; user classes are fixed)."""
        return self._data_indices

    def voice_mobile_indices(self) -> np.ndarray:
        """Indices of the voice users (cached; user classes are fixed)."""
        return self._voice_indices

    def _positions(self) -> np.ndarray:
        return self._positions_arr

    def _fch_active_mask(self) -> np.ndarray:
        return self._fch_active

    def _fch_rate_factors(self) -> np.ndarray:
        return self._fch_rate

    def set_fch_state(
        self, indices: np.ndarray, active: np.ndarray, rate_factor: np.ndarray
    ) -> None:
        """Set the FCH activity/rate of the mobiles at ``indices``.

        The only writer of the network's FCH state after construction (the
        :class:`MobileStation` fields are not updated): one vectorised
        assignment per array, read by the next :meth:`snapshot`.  The
        dynamic simulator calls it every frame for the voice and the data
        users.
        """
        indices = np.asarray(indices, dtype=int)
        self._fch_active[indices] = np.asarray(active, dtype=bool)
        self._fch_rate[indices] = np.asarray(rate_factor, dtype=float)

    def _update_handoff(self) -> None:
        gains = self.link_gains.local_mean_gain()
        if gains.shape[0] == 0:
            return
        total_power = self._bs_common_power_w + self.forward_burst_power_w
        pilots = forward_pilot_ec_io(
            gains, total_power, self._bs_pilot_power_w, self._mobile_noise_power_w
        )
        self.handoff.update(pilots)

    # -- main frame update ----------------------------------------------------------
    def advance(self, dt_s: float) -> None:
        """Advance mobility, propagation and hand-off by ``dt_s`` seconds.

        Power control is *not* run here; call :meth:`snapshot` to obtain the
        measurements at the new state.  The update order is mobility →
        propagation → hand-off.  Without a mobility fleet nobody moves, so
        the shadowing, which decorrelates with the distance travelled, keeps
        its values.
        """
        if dt_s < 0.0:
            raise ValueError("dt_s must be non-negative")
        if self._mobility_fleet is not None:
            self._mobility_fleet.advance(dt_s, out_moved=self._moved_buf)
        if self.num_mobiles > 0:
            self.link_gains.advance(self._positions_arr, self._moved_buf)
        self._time_s += dt_s
        self._update_handoff()

    def step(self, dt_s: float) -> NetworkSnapshot:
        """Advance the network by ``dt_s`` seconds and return the new snapshot.

        Convenience wrapper: :meth:`advance` followed by :meth:`snapshot`
        (mobility → propagation → hand-off → power control → measurements).
        """
        self.advance(dt_s)
        return self.snapshot()

    def snapshot(self) -> NetworkSnapshot:
        """Run power control at the current state and assemble the measurements."""
        radio = self.config.radio
        phy = self.config.phy
        gains = self.link_gains.local_mean_gain()
        num_mobiles, num_cells = gains.shape if gains.size else (0, self.num_cells)
        active = self._fch_active
        rate_factors = self._fch_rate
        active_set = self.handoff.active_set_matrix(self.num_cells)
        serving = (
            self.handoff.serving_cells()
            if num_mobiles > 0
            else np.zeros(0, dtype=int)
        )

        bs_common = self._bs_common_power_w
        bs_budget = self._bs_traffic_budget_w
        bs_noise = self._bs_noise_power_w
        bs_pilot = self._bs_pilot_power_w
        max_link_power = self._max_link_power_w

        # -- reverse link FCH power control -------------------------------------
        reverse_result = self.reverse_pc.solve(
            gains=gains,
            serving_cells=serving,
            active=active,
            noise_power_w=bs_noise,
            extra_received_power_w=self.reverse_burst_power_w,
            rate_factor=rate_factors,
        )
        # -- forward link FCH power control -------------------------------------
        forward_result = self.forward_pc.solve(
            gains=gains,
            active_set=active_set,
            active=active,
            base_power_w=bs_common,
            max_traffic_power_w=bs_budget,
            extra_traffic_power_w=self.forward_burst_power_w,
            max_link_power_w=max_link_power,
            rate_factor=rate_factors,
        )

        # -- loading snapshots ---------------------------------------------------------
        # Admission reads the (J, K) measurements only for the requesters, so
        # the loads keep their inputs and compute those rows on demand.
        xi = self._xi
        # The reverse pilot tracks the channel the way a *full-rate* FCH
        # would, so the burst measurements (eq. (10)) reconstruct the
        # full-rate FCH power from it regardless of the rate of the channel
        # currently held (DCCH vs FCH).
        fullrate_tx = np.where(
            active, reverse_result.tx_power_w / np.maximum(rate_factors, 1e-12), 0.0
        )
        mobile_pilot_tx = fullrate_tx / np.maximum(xi, 1e-12)
        forward_load = ForwardLinkLoad.measured(
            max_traffic_power_w=bs_budget,
            # FCH allocations + committed bursts.
            current_power_w=forward_result.total_power_w - bs_common,
            fch_allocation_w=forward_result.tx_power_w,
            rate_factor=rate_factors,
        )
        reverse_load = ReverseLinkLoad.measured(
            max_interference_w=self._bs_max_reverse_interference_w,
            current_interference_w=reverse_result.total_power_w,
            fch_pilot_power_ratio=xi,
            gains=gains,
            mobile_pilot_tx_power_w=mobile_pilot_tx,
            bs_pilot_power_w=bs_pilot,
            mobile_received_power_w=mobile_received_power_w(
                gains, forward_result.total_power_w, self._mobile_noise_power_w
            ),
        )

        # -- SCH local-mean CSI per mobile -----------------------------------------------
        # A user whose FCH is exactly on target experiences the reference SCH
        # CSI; power-limited (cell-edge) users are scaled down proportionally.
        target = radio.fch_ebio_target
        with np.errstate(invalid="ignore"):
            fwd_quality = np.clip(
                np.nan_to_num(forward_result.achieved_sir / target, nan=1.0), 0.0, 1.0
            )
            rev_quality = np.clip(
                np.nan_to_num(reverse_result.achieved_sir / target, nan=1.0), 0.0, 1.0
            )
        sch_csi_forward = phy.sch_reference_csi * fwd_quality
        sch_csi_reverse = phy.sch_reference_csi * rev_quality

        return NetworkSnapshot(
            time_s=self._time_s,
            gains=gains,
            forward_load=forward_load,
            reverse_load=reverse_load,
            handoff_states=self.handoff.states,
            serving_cells=serving,
            sch_mean_csi_forward=sch_csi_forward,
            sch_mean_csi_reverse=sch_csi_reverse,
            forward_pc=forward_result,
            reverse_pc=reverse_result,
            active_set_matrix=active_set,
            reduced_active_sets=self.handoff.reduced_active_sets(),
        )

    # -- burst power bookkeeping --------------------------------------------------------
    def commit_forward_burst_power(self, cell_index: int, power_w: float) -> None:
        """Reserve forward-link SCH power at ``cell_index`` for a granted burst."""
        if power_w < 0.0:
            raise ValueError("power_w must be non-negative")
        self.forward_burst_power_w[cell_index] += power_w

    def release_forward_burst_power(self, cell_index: int, power_w: float) -> None:
        """Release previously committed forward-link SCH power.

        Raises ``ValueError`` on a negative ``power_w`` or on a release
        beyond what the cell has committed (see :func:`_released`).
        """
        self.forward_burst_power_w[cell_index] = _released(
            self.forward_burst_power_w[cell_index], power_w, "forward", cell_index
        )

    def commit_reverse_burst_power(self, cell_index: int, power_w: float) -> None:
        """Account the extra reverse-link received power of a granted burst."""
        if power_w < 0.0:
            raise ValueError("power_w must be non-negative")
        self.reverse_burst_power_w[cell_index] += power_w

    def release_reverse_burst_power(self, cell_index: int, power_w: float) -> None:
        """Release previously accounted reverse-link burst power.

        Raises ``ValueError`` like :meth:`release_forward_burst_power`.
        """
        self.reverse_burst_power_w[cell_index] = _released(
            self.reverse_burst_power_w[cell_index], power_w, "reverse", cell_index
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CdmaNetwork(cells={self.num_cells}, mobiles={self.num_mobiles}, "
            f"time={self._time_s:.3f} s)"
        )
