"""The dynamic system simulation (abstract + Section 1 of the paper).

"...the system is evaluated by dynamic simulations which takes into account
of the user mobility, power control, and soft hand-off."

:class:`DynamicSystemSimulator` runs a frame-by-frame multi-cell simulation:

* voice users toggle their FCH activity with the on/off model;
* data users generate packet calls (bursts) according to the WWW traffic
  model; every packet call becomes a burst request on the forward or the
  reverse link;
* every scheduling frame the burst admission controller (measurement +
  scheduling sub-layers) decides which pending requests get a supplemental
  channel and at which spreading-gain ratio; the committed SCH powers are
  held in the network for the burst duration and therefore shape the power
  control and interference of the following frames;
* users move, shadowing evolves, soft hand-off active sets are updated, FCH
  power control runs every frame (the fast fading is averaged analytically
  by the VTAOC layer, so the frame carries only local-mean gains).

The per-user layer (voice activity, packet-call traffic, MAC states,
mobility) runs as structure-of-arrays fleets
(:class:`repro.traffic.VoiceFleet`, :class:`repro.traffic.DataTrafficFleet`,
:class:`repro.mac.MacStateFleet`,
:class:`repro.geometry.mobility.RandomDirectionFleet`), each on its own seeded
random stream; FCH activity is pushed into the network with
:meth:`repro.cdma.network.CdmaNetwork.set_fch_state`.

The per-packet-call delay (arrival until the last bit is served), carried
throughput, loading and outage statistics are gathered by
:class:`repro.simulation.metrics.MetricsCollector`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cdma.entities import MobileStation, UserClass
from repro.cdma.network import CdmaNetwork, NetworkSnapshot
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import FleetMemberMobility, RandomDirectionFleet
from repro.mac.admission import BurstAdmissionController
from repro.mac.requests import BurstGrant, BurstRequest, LinkDirection
from repro.mac.schedulers.base import BurstScheduler
from repro.mac.states import MacStateFleet
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.placement import placement_from_config
from repro.simulation.scenario import ScenarioConfig
from repro.traffic.data import DataTrafficFleet, TruncatedParetoSize
from repro.traffic.voice import VoiceFleet
from repro.utils.hooks import SimHooks
from repro.utils.recorder import EventRecorder, JsonlSink, current_recorder
from repro.utils.rng import RngFactory

__all__ = ["DynamicSystemSimulator"]


@dataclass
class _ActiveBurst:
    """A granted burst currently on air."""

    grant: BurstGrant
    end_s: float


class DynamicSystemSimulator:
    """Frame-by-frame dynamic simulation of the complete system.

    Parameters
    ----------
    scenario:
        Scenario configuration (population, traffic, mobility, duration).
    scheduler:
        Scheduling policy under test.
    hooks:
        Optional :class:`repro.utils.hooks.SimHooks` observer of the frame
        pipeline: it receives ``record(kind, time_s, **fields)`` for
        ``run_start``/``run_end``, a ``stage_enter``/``stage_exit`` pair
        (with wall time) around each stage of every frame, one ``frame`` per
        frame and one ``admission`` per decision.  An
        :class:`~repro.utils.recorder.EventRecorder` is such an observer.
        When ``None`` (the default) the simulator resolves a recorder
        instead: a ``scenario.trace_path`` records the run to that JSONL
        file, else an ambient recorder installed via
        :func:`repro.utils.recorder.use_recorder` (the campaign engine's
        channel) is used; with neither, the frame loop runs hook-free and
        reads no clock.

    Every frame runs nine named stages in this order, each through
    :meth:`_stage`: ``voice``, ``arrivals``, ``bursts``, ``data_activity``,
    ``snapshot`` (power control and measurements), ``admission``,
    ``metrics``, ``mac`` and ``network`` (mobility, propagation and
    hand-off, :meth:`repro.cdma.network.CdmaNetwork.advance`).
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        scheduler: BurstScheduler,
        hooks: Optional[SimHooks] = None,
    ) -> None:
        self.scenario = scenario
        self.scheduler = scheduler
        #: Recorder owned by this simulator (created for ``trace_path``);
        #: closed — and its trace file published — at the end of :meth:`run`.
        self._owned_recorder: Optional[EventRecorder] = None
        if hooks is None:
            if scenario.trace_path:
                self._owned_recorder = EventRecorder(
                    JsonlSink(scenario.trace_path, atomic=True)
                )
                hooks = self._owned_recorder
            else:
                hooks = current_recorder()
        self.hooks = hooks
        self._rng_factory = RngFactory(scenario.seed)
        system = scenario.system
        self.system = system
        radio = system.radio

        self.layout = HexagonalCellLayout(
            num_rings=radio.num_rings,
            cell_radius_m=radio.cell_radius_m,
            wraparound=radio.wraparound,
        )
        bounds = self.layout.bounding_box()
        # RNG contract: RngFactory.child keys each stream by its spawn
        # position, so the order below is fixed.  The mobility, traffic and
        # burst-direction streams are unused but still spawned: dropping them
        # would move every later stream and change every result.
        placement_rng = self._rng_factory.child("placement")
        self._rng_factory.child("mobility")
        propagation_rng = self._rng_factory.child("propagation")
        self._rng_factory.child("traffic")
        self._rng_factory.child("burst-direction")
        fleet_mobility_rng = self._rng_factory.child("fleet-mobility")
        fleet_voice_rng = self._rng_factory.child("fleet-voice")
        fleet_data_rng = self._rng_factory.child("fleet-data")

        # -- population --------------------------------------------------------
        # Placement first, then the mobility fleet, then the entity objects,
        # which carry only the placement and the static radio parameters:
        # the fleets and the network's arrays own the per-user state.  The
        # placement model is pluggable (scenario.placement); the default
        # uniform model issues exactly one layout.random_position_in_cell call
        # per user, so the placement stream is consumed bit-identically to
        # the historic hard-wired loop.
        placement_model = placement_from_config(scenario.placement)
        self.data_user_indices: List[int] = []
        self.voice_user_indices: List[int] = []
        user_classes: List[UserClass] = []
        positions: List[np.ndarray] = []
        index = 0
        for cell in range(self.layout.num_cells):
            for _ in range(scenario.num_data_users_per_cell):
                positions.append(
                    placement_model.position(self.layout, cell, placement_rng)
                )
                user_classes.append(UserClass.DATA)
                self.data_user_indices.append(index)
                index += 1
            for _ in range(scenario.num_voice_users_per_cell):
                positions.append(
                    placement_model.position(self.layout, cell, placement_rng)
                )
                user_classes.append(UserClass.VOICE)
                self.voice_user_indices.append(index)
                index += 1
        num_users = index

        self.mobility_fleet = RandomDirectionFleet(
            np.asarray(positions, dtype=float).reshape(num_users, 2),
            bounds,
            speed_m_s=scenario.mobility.speed_range_m_s,
            mean_epoch_s=scenario.mobility.mean_epoch_s,
            rng=fleet_mobility_rng,
        )
        self.mobiles: List[MobileStation] = [
            MobileStation(
                index=j,
                user_class=user_classes[j],
                mobility=FleetMemberMobility(self.mobility_fleet, j),
                fch_pilot_power_ratio=radio.fch_pilot_power_ratio,
            )
            for j in range(num_users)
        ]

        self.network = CdmaNetwork(
            config=system,
            mobiles=self.mobiles,
            rng=propagation_rng,
            layout=self.layout,
            mobility_fleet=self.mobility_fleet,
        )
        self._bs_noise_power_w = np.asarray(
            [bs.noise_power_w for bs in self.network.base_stations]
        )
        self.controller = BurstAdmissionController(system, scheduler)

        # -- traffic ----------------------------------------------------------------
        size_distribution = TruncatedParetoSize(
            shape=scenario.traffic.packet_call_shape,
            minimum_bits=scenario.traffic.packet_call_min_bits,
            maximum_bits=scenario.traffic.packet_call_max_bits,
        )
        self._data_idx_arr = np.asarray(self.data_user_indices, dtype=int)
        self._voice_idx_arr = np.asarray(self.voice_user_indices, dtype=int)
        self._voice_full_rate = np.ones(self._voice_idx_arr.size)
        self.data_fleet = DataTrafficFleet(
            num_sources=len(self.data_user_indices),
            mean_reading_time_s=scenario.traffic.mean_reading_time_s,
            size_distribution=size_distribution,
            forward_fraction=scenario.traffic.forward_fraction,
            rng=fleet_data_rng,
        )
        self.voice_fleet = VoiceFleet(
            num_sources=len(self.voice_user_indices), rng=fleet_voice_rng
        )

        # -- MAC / bookkeeping ------------------------------------------------------------
        self.mac_fleet = MacStateFleet(
            num_users=len(self.data_user_indices), config=system.mac
        )
        # Mobile index -> position in the data-user arrays (fleet addressing).
        self._data_local = np.full(num_users, -1, dtype=int)
        self._data_local[self._data_idx_arr] = np.arange(self._data_idx_arr.size)
        self.pending: Dict[LinkDirection, List[BurstRequest]] = {
            LinkDirection.FORWARD: [],
            LinkDirection.REVERSE: [],
        }
        self.active_bursts: List[_ActiveBurst] = []
        # Incremental bursting/waiting membership: counts per mobile index,
        # maintained at request arrival / grant / completion time so
        # :meth:`_update_data_activity` never rebuilds the sets per frame.
        self._bursting_count = np.zeros(num_users, dtype=int)
        self._waiting_count = np.zeros(num_users, dtype=int)
        self.metrics = MetricsCollector(warmup_s=scenario.warmup_s)

    # -- traffic handling -----------------------------------------------------------------
    def _enqueue_request(
        self, mobile_index: int, link: LinkDirection, size_bits: float, arrival_s: float
    ) -> None:
        """Create one burst request and register it with the pending queue."""
        request = BurstRequest(
            mobile_index=mobile_index,
            link=link,
            size_bits=size_bits,
            arrival_time_s=arrival_s,
            priority=self.scenario.traffic.data_priority,
        )
        self.pending[link].append(request)
        self._waiting_count[mobile_index] += 1
        self.metrics.record_packet_call_arrival(arrival_s, size_bits)

    def _pull_arrivals(self, now_s: float) -> None:
        arrivals = self.data_fleet.pull_arrivals(now_s)
        if len(arrivals) == 0:
            return
        mobile_indices = self._data_idx_arr[arrivals.user_indices]
        for j, arrival_s, size, forward in zip(
            mobile_indices.tolist(),
            arrivals.arrival_times_s.tolist(),
            arrivals.size_bits.tolist(),
            arrivals.is_forward.tolist(),
        ):
            link = LinkDirection.FORWARD if forward else LinkDirection.REVERSE
            self._enqueue_request(j, link, size, arrival_s)

    def _update_voice_activity(self, dt_s: float) -> None:
        active = self.voice_fleet.advance(dt_s)
        self.network.set_fch_state(self._voice_idx_arr, active, self._voice_full_rate)

    def _update_data_activity(self) -> None:
        """Data users hold a dedicated channel sized to their current traffic.

        Between packet calls (the reading time) a cdma2000 data user drops to
        the Control-Hold/Dormant MAC states and does not load the network at
        all; while it merely *waits* for a burst grant it keeps a low-rate
        dedicated control channel (``control_channel_rate_fraction`` of a
        full-rate FCH), but only while its MAC state still holds one (Active
        / Control-Hold): users that timed out into Suspended/Dormant stop
        loading the network and pay the setup-delay penalty of eq. (23) when
        their burst is eventually granted.  While a burst is on air the
        full-rate FCH runs alongside the SCH.  This keeps the background load
        physical (well below the reverse-link pole capacity) while preserving
        the pilot and FCH measurements the burst admission needs.

        Bursting / waiting membership comes from the incremental per-mobile
        counters maintained at arrival / grant / completion time, so no
        per-frame set rebuild over the active bursts and pending queues is
        needed.
        """
        control_rate = self.system.radio.control_channel_rate_fraction
        data_idx = self._data_idx_arr
        bursting_mask = self._bursting_count[data_idx] > 0
        waiting_mask = self._waiting_count[data_idx] > 0
        holds_dcch = waiting_mask & self.mac_fleet.holds_dedicated_channel()
        active = bursting_mask | holds_dcch
        rate = np.where(~bursting_mask & holds_dcch, control_rate, 1.0)
        self.network.set_fch_state(data_idx, active, rate)

    # -- burst lifecycle ------------------------------------------------------------------------
    def _complete_bursts(self, now_s: float) -> None:
        still_active: List[_ActiveBurst] = []
        for burst in self.active_bursts:
            if burst.end_s > now_s + 1e-9:
                still_active.append(burst)
                continue
            grant = burst.grant
            request = grant.request
            for cell, power in grant.forward_power_w.items():
                self.network.release_forward_burst_power(cell, power)
            for cell, power in grant.reverse_power_w.items():
                self.network.release_reverse_burst_power(cell, power)
            self._bursting_count[request.mobile_index] -= 1
            request.account_served_bits(grant.bits_to_serve)
            if request.completed:
                self.metrics.record_packet_call_completion(
                    request.arrival_time_s, burst.end_s, request.size_bits, request.link
                )
            else:
                # Remaining bits go back to the pending queue; the waiting
                # time keeps accumulating from the original arrival.
                self.pending[request.link].append(request)
                self._waiting_count[request.mobile_index] += 1
        self.active_bursts = still_active

    def _run_admission(self, snapshot: NetworkSnapshot, now_s: float) -> None:
        hooks = self.hooks
        for link in (LinkDirection.FORWARD, LinkDirection.REVERSE):
            pending = self.pending[link]
            if not pending:
                continue
            decision, grants = self.controller.decide(snapshot, pending, link)
            if hooks is not None:
                hooks.record(
                    "admission",
                    now_s,
                    link=link.value,
                    num_pending=len(pending),
                    num_granted=len(grants),
                    objective_value=float(decision.objective_value),
                    optimal=bool(decision.optimal),
                )
            granted_ids = set()
            for grant in grants:
                request = grant.request
                granted_ids.add(request.request_id)
                # MAC setup penalty: waking a Suspended/Dormant user delays the
                # effective completion of its burst (eq. (23)).
                local = self._data_local[request.mobile_index]
                penalty = self.mac_fleet.setup_penalty_s(local)
                end_s = grant.end_s + penalty
                for cell, power in grant.forward_power_w.items():
                    self.network.commit_forward_burst_power(cell, power)
                for cell, power in grant.reverse_power_w.items():
                    self.network.commit_reverse_burst_power(cell, power)
                self.active_bursts.append(_ActiveBurst(grant=grant, end_s=end_s))
                self._bursting_count[request.mobile_index] += 1
                self._waiting_count[request.mobile_index] -= 1
                self.mac_fleet.touch(local)
            self.pending[link] = [
                r for r in pending if r.request_id not in granted_ids
            ]
            self.metrics.record_admission(
                now_s,
                num_pending=len(pending),
                num_granted=len(grants),
                granted_ms=decision.assignment,
            )

    def _update_mac_states(self, dt_s: float) -> None:
        self.mac_fleet.advance(dt_s, self._bursting_count[self._data_idx_arr] > 0)

    def _record_frame(
        self, snapshot: NetworkSnapshot, now_s: float, frame_index: int
    ) -> None:
        pending_count = sum(len(v) for v in self.pending.values())
        self.metrics.record_frame(
            now_s,
            pending_requests=pending_count,
            forward_utilisation=float(np.mean(snapshot.forward_load.utilisation())),
            reverse_rise_db=float(
                np.mean(snapshot.reverse_load.rise_over_thermal_db(self._bs_noise_power_w))
            ),
            fch_outage_fraction=snapshot.fch_outage_fraction(),
        )
        if self.hooks is not None:
            self.hooks.record(
                "frame",
                now_s,
                frame_index=frame_index,
                pending_requests=pending_count,
                active_bursts=len(self.active_bursts),
            )

    # -- main loop ----------------------------------------------------------------------------------
    def _stage(self, name: str, now_s: float, fn, *args):
        """Run one named stage of the frame and return what ``fn`` returns.

        Without hooks this is the call itself; with hooks the stage is
        bracketed by ``stage_enter``/``stage_exit`` (with its wall time).
        """
        hooks = self.hooks
        if hooks is None:
            return fn(*args)
        hooks.record("stage_enter", now_s, stage=name)
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed_s = time.perf_counter() - t0
        hooks.record("stage_exit", now_s, stage=name, elapsed_s=elapsed_s)
        return result

    def run(self) -> SimulationResult:
        """Run the simulation and return the summary result."""
        hooks = self.hooks
        scenario = self.scenario
        network = self.network
        stage = self._stage
        frame_s = self.system.mac.frame_duration_s
        total_time = scenario.warmup_s + scenario.duration_s
        num_frames = int(math.ceil(total_time / frame_s))
        if hooks is not None:
            hooks.record(
                "run_start",
                network.time_s,
                frames=num_frames,
                frame_duration_s=frame_s,
                scheduler=self.scheduler.name,
                num_data_users=len(self.data_user_indices),
                num_voice_users=len(self.voice_user_indices),
            )

        try:
            # Every stage callable is looked up here, frame by frame, so a
            # method replaced on its class after construction still runs.
            for frame_index in range(num_frames):
                now = network.time_s
                stage("voice", now, self._update_voice_activity, frame_s)
                stage("arrivals", now, self._pull_arrivals, now)
                stage("bursts", now, self._complete_bursts, now)
                stage("data_activity", now, self._update_data_activity)
                snapshot = stage("snapshot", now, network.snapshot)
                stage("admission", now, self._run_admission, snapshot, now)
                stage("metrics", now, self._record_frame, snapshot, now, frame_index)
                stage("mac", now, self._update_mac_states, frame_s)
                stage("network", now, network.advance, frame_s)
            if hooks is not None:
                hooks.record("run_end", network.time_s, frames=num_frames)
        finally:
            if self._owned_recorder is not None:
                # Publish the trace_path file (the atomic sink renames on
                # close); a second run() records nothing further.
                self._owned_recorder.close()

        return self.metrics.summarise(
            scheduler=self.scheduler.name,
            num_data_users=len(self.data_user_indices),
            num_voice_users=len(self.voice_user_indices),
            handoff_events=self.network.handoff.handoff_events,
        )
