"""The burst admission controller: measurement + scheduling, per link.

:class:`BurstAdmissionController` is what the dynamic simulator calls once per
scheduling frame and per link.  It

1. builds the :class:`SchedulingInput` for the pending requests of that link
   from the current :class:`~repro.cdma.network.NetworkSnapshot` — the
   admissible region (measurement sub-layer), the per-request relative VTAOC
   throughput ``delta_rho_j``, the burst-duration upper bounds and the
   overall request delays ``w_j = t_w + D_s`` — each evaluated queue-wide in
   array operations (the per-request references are kept as parity oracles
   in ``tests/oracles/measurement.py``);
2. invokes the configured scheduling policy (JABA-SD or a baseline); and
3. converts the resulting assignment into :class:`~repro.mac.requests.BurstGrant`
   objects, including the per-cell power/interference commitments that the
   network must hold for the burst duration.

Burst start times are always the next frame boundary (spatial dimension
only), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cdma.network import NetworkSnapshot
from repro.config import SystemConfig
from repro.mac.constraints import BurstDurationConstraint
from repro.mac.measurement import (
    AdmissibleRegion,
    ForwardLinkMeasurement,
    ReverseLinkMeasurement,
    _mobile_indices,
)
from repro.mac.requests import BurstGrant, BurstRequest, LinkDirection
from repro.mac.schedulers.base import BurstScheduler, SchedulingDecision
from repro.mac.states import setup_delay_penalties
from repro.phy.modes import ModeTable
from repro.phy.vtaoc import VtaocCodec

__all__ = ["SchedulingInput", "BurstAdmissionController"]


@dataclass
class SchedulingInput:
    """Everything a scheduling policy needs for one link and one frame.

    Attributes
    ----------
    requests:
        Pending burst requests of the link (column order of the region).
    region:
        Admissible region produced by the measurement sub-layer.
    delta_rho:
        Relative average SCH throughput per request (eq. (4)).
    upper_bounds:
        Per-request upper bound on ``m_j`` (eq. (24) plus ``M``).
    waiting_times_s:
        Overall request delays ``w_j = t_w + D_s`` (eq. (22)).
    priorities:
        Traffic-type priorities ``Delta_j``.
    config:
        MAC configuration (objective parameters, frame length, ...).
    now_s:
        Decision time.
    """

    requests: List[BurstRequest]
    region: AdmissibleRegion
    delta_rho: np.ndarray
    upper_bounds: np.ndarray
    waiting_times_s: np.ndarray
    priorities: np.ndarray
    config: "object"
    now_s: float

    def __post_init__(self) -> None:
        n = len(self.requests)
        self.delta_rho = np.asarray(self.delta_rho, dtype=float).reshape(n)
        self.upper_bounds = np.asarray(self.upper_bounds, dtype=int).reshape(n)
        self.waiting_times_s = np.asarray(self.waiting_times_s, dtype=float).reshape(n)
        self.priorities = np.asarray(self.priorities, dtype=float).reshape(n)
        if self.region.num_requests != n:
            raise ValueError("region column count must match the number of requests")


class BurstAdmissionController:
    """Joint measurement + scheduling controller for one scheduling policy.

    Parameters
    ----------
    config:
        Full system configuration.
    scheduler:
        Scheduling policy (JABA-SD or a baseline).
    vtaoc:
        Adaptive codec used to map local-mean CSI to ``delta_rho``; built
        from the PHY configuration when omitted.
    scrm_max_pilots:
        Number of neighbour pilots carried in the SCRM message.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheduler: BurstScheduler,
        vtaoc: Optional[VtaocCodec] = None,
        scrm_max_pilots: int = 8,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.vtaoc = (
            vtaoc
            if vtaoc is not None
            else VtaocCodec(
                mode_table=ModeTable.default(config.phy.num_modes),
                target_ber=config.phy.target_ber,
                coding_gain_db=config.phy.coding_gain_db,
            )
        )
        self.forward_measurement = ForwardLinkMeasurement(config.phy, config.mac)
        self.reverse_measurement = ReverseLinkMeasurement(
            config.phy, config.mac, scrm_max_pilots=scrm_max_pilots
        )
        self.duration_constraint = BurstDurationConstraint(
            config.mac, config.radio.fch_bit_rate_bps
        )

    # -- building the scheduling problem ---------------------------------------------
    def _delta_rho(
        self, snapshot: NetworkSnapshot, requests: Sequence[BurstRequest]
    ) -> np.ndarray:
        if not requests:
            return np.zeros(0, dtype=float)
        # One gather + one vectorised VTAOC evaluation for the whole queue
        # (bit-identical to the per-request loop of tests/oracles).
        j_idx = _mobile_indices(requests)
        forward = np.fromiter(
            (r.link is LinkDirection.FORWARD for r in requests),
            dtype=bool,
            count=len(requests),
        )
        mean_csi = np.where(
            forward,
            snapshot.sch_mean_csi_forward[j_idx],
            snapshot.sch_mean_csi_reverse[j_idx],
        )
        return np.asarray(
            self.vtaoc.relative_average_throughput(
                mean_csi, self.config.phy.fch_throughput
            ),
            dtype=float,
        )

    def build_input(
        self,
        snapshot: NetworkSnapshot,
        requests: Sequence[BurstRequest],
        link: LinkDirection,
    ) -> SchedulingInput:
        """Assemble the scheduling problem of ``link`` for the pending requests."""
        requests = list(requests)
        for request in requests:
            if request.link is not link:
                raise ValueError("all requests must belong to the given link")
        if link is LinkDirection.FORWARD:
            region = self.forward_measurement.build(snapshot, requests)
        else:
            region = self.reverse_measurement.build(snapshot, requests)
        delta_rho = self._delta_rho(snapshot, requests)
        sizes = np.fromiter(
            (r.remaining_bits for r in requests), dtype=float, count=len(requests)
        )
        upper = (
            self.duration_constraint.upper_bounds(sizes, delta_rho)
            if requests
            else np.zeros(0, dtype=int)
        )
        now = snapshot.time_s
        # Eq. (22): w_j = t_w + D_s, evaluated queue-wide (the step-function
        # penalty of eq. (23) selects exact constants, so this is
        # bit-identical to the per-request form).
        arrivals = np.fromiter(
            (r.arrival_time_s for r in requests), dtype=float, count=len(requests)
        )
        raw_waiting = np.maximum(0.0, now - arrivals)
        waiting = raw_waiting + setup_delay_penalties(raw_waiting, self.config.mac)
        priorities = np.fromiter(
            (r.priority for r in requests), dtype=float, count=len(requests)
        )
        return SchedulingInput(
            requests=requests,
            region=region,
            delta_rho=delta_rho,
            upper_bounds=upper,
            waiting_times_s=waiting,
            priorities=priorities,
            config=self.config.mac,
            now_s=now,
        )

    # -- the admission decision -----------------------------------------------------------
    def decide(
        self,
        snapshot: NetworkSnapshot,
        requests: Sequence[BurstRequest],
        link: LinkDirection,
    ) -> Tuple[SchedulingDecision, List[BurstGrant]]:
        """Run one admission decision; return the raw decision and the grants."""
        problem = self.build_input(snapshot, requests, link)
        decision = self.scheduler.assign(problem)
        assignment = decision.assignment
        if len(assignment) != len(problem.requests):
            raise RuntimeError("scheduler returned an assignment of the wrong length")
        if np.any(assignment < 0) or np.any(assignment > problem.upper_bounds):
            raise RuntimeError("scheduler violated the per-request bounds")
        if len(assignment) and not problem.region.admits(assignment):
            raise RuntimeError("scheduler produced an inadmissible assignment")

        grants: List[BurstGrant] = []
        mac = self.config.mac
        fch_rate = self.config.radio.fch_bit_rate_bps
        for col, (request, m) in enumerate(zip(problem.requests, assignment)):
            m = int(m)
            if m < 1:
                continue
            delta_rho = float(problem.delta_rho[col])
            rate_bps = m * delta_rho * fch_rate
            if rate_bps <= 0.0:
                continue
            # Burst lasts until the packet call drains or the maximum grant
            # duration elapses, whichever comes first, and always at least one
            # frame (quantised to whole frames, starting at the next boundary).
            drain_s = request.remaining_bits / rate_bps
            duration_s = min(mac.max_burst_duration_s, drain_s)
            frames = max(1, int(np.ceil(duration_s / mac.frame_duration_s - 1e-9)))
            duration_s = frames * mac.frame_duration_s
            bits_to_serve = min(request.remaining_bits, rate_bps * duration_s)

            committed = problem.region.matrix[:, col] * m
            per_cell = {
                int(k): float(committed[k])
                for k in np.nonzero(committed > 0.0)[0]
            }
            grants.append(
                BurstGrant(
                    request=request,
                    m=m,
                    rate_bps=rate_bps,
                    start_s=snapshot.time_s,
                    duration_s=duration_s,
                    bits_to_serve=bits_to_serve,
                    forward_power_w=per_cell if link is LinkDirection.FORWARD else {},
                    reverse_power_w=per_cell if link is LinkDirection.REVERSE else {},
                )
            )
        return decision, grants
