"""Reference admission builders: one request and one cell at a time.

These are the per-request scalar bodies of the measurement builders
(``build_scalar``) and of ``BurstAdmissionController._delta_rho``, kept
verbatim as parity oracles after the queue-wide kernels became the only
production path.  Call them with the production object as the first
argument: ``forward_build(builder, snapshot, requests)``,
``reverse_build(builder, snapshot, requests)`` and
``delta_rho(controller, snapshot, requests)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cdma.network import NetworkSnapshot
from repro.mac.measurement import AdmissibleRegion, _check_links, relative_path_loss
from repro.mac.requests import BurstRequest, LinkDirection

__all__ = ["forward_build", "reverse_build", "delta_rho"]


def forward_build(
    builder, snapshot: NetworkSnapshot, requests: Sequence[BurstRequest]
) -> AdmissibleRegion:
    """Reference implementation: one request and one cell at a time.

    Reads the hand-off membership through the same snapshot accessors as
    the batched kernel so the two paths cannot silently diverge on a
    snapshot whose ``handoff_states`` and membership matrices disagree.
    """
    _check_links(requests, LinkDirection.FORWARD)
    num_cells = snapshot.num_cells
    num_requests = len(requests)
    matrix = np.zeros((num_cells, num_requests), dtype=float)
    fch_power = snapshot.forward_load.fch_power_w
    gamma_s = builder.phy.gamma_s_forward
    alpha = builder.mac.alpha_forward
    reduced_membership = snapshot.reduced_membership()

    for col, request in enumerate(requests):
        j = request.mobile_index
        reduced_set = [int(k) for k in np.nonzero(reduced_membership[j])[0]]
        for k in reduced_set:
            # Eq. (6): one unit of m costs gamma_s * P_{j,k} * alpha at
            # every reduced-active-set cell.  When the FCH allocation of
            # a leg is zero (e.g. the leg was just added), fall back to
            # the serving-cell allocation so the cost is never free.
            p_jk = float(fch_power[j, k])
            if p_jk <= 0.0:
                p_jk = float(fch_power[j, snapshot.serving_cells[j]])
            matrix[k, col] = gamma_s * p_jk * alpha

    return AdmissibleRegion(
        matrix=matrix, bounds=builder._bounds(snapshot), link=LinkDirection.FORWARD
    )


def reverse_build(
    builder, snapshot: NetworkSnapshot, requests: Sequence[BurstRequest]
) -> AdmissibleRegion:
    """Reference implementation: one request and one cell at a time.

    Reads the host cell and hand-off membership through the same snapshot
    accessors as the batched kernel so the two paths cannot silently
    diverge on a snapshot whose ``handoff_states`` and
    ``serving_cells``/membership matrices disagree.
    """
    _check_links(requests, LinkDirection.REVERSE)
    num_cells = snapshot.num_cells
    num_requests = len(requests)
    matrix = np.zeros((num_cells, num_requests), dtype=float)

    reverse_load = snapshot.reverse_load
    l_k = reverse_load.current_interference_w
    t_rl = reverse_load.reverse_pilot_strength
    t_fl = reverse_load.forward_pilot_strength
    xi = reverse_load.fch_pilot_power_ratio
    gamma_s = builder.phy.gamma_s_reverse
    alpha = builder.mac.alpha_reverse
    kappa = builder.mac.neighbor_margin
    active_membership = snapshot.active_membership()

    for col, request in enumerate(requests):
        j = request.mobile_index
        host = int(snapshot.serving_cells[j])
        soft_handoff_cells = set(
            int(k) for k in np.nonzero(active_membership[j])[0]
        )
        # Eq. (10): FCH received power at the host cell reconstructed from
        # the reverse pilot measurement and the FCH/pilot power ratio.
        x_fch_host = l_k[host] * xi[j] * t_rl[j, host]
        # A deep-shadowed mobile may report a zero forward pilot for its
        # own host cell; eq. (14)'s relative path loss is then undefined
        # and the base station has no usable neighbour estimate, so the
        # projected terms are skipped rather than raising.
        host_pilot_usable = not t_fl[j, host] <= 0.0

        # Neighbour cells considered: those whose forward pilot the mobile
        # reports in its SCRM message (the strongest `scrm_max_pilots`).
        reported = np.argsort(t_fl[j])[::-1][: builder.scrm_max_pilots]

        for k in range(num_cells):
            if k in soft_handoff_cells:
                # Eq. (12): same-cell / soft-hand-off measurement.
                matrix[k, col] = gamma_s * l_k[k] * xi[j] * t_rl[j, k] * alpha
            elif k in reported and host_pilot_usable:
                # Eq. (15): projected interference through the relative
                # path loss of eq. (14), with shadowing margin kappa.
                delta_p = relative_path_loss(t_fl[j], host, k)
                matrix[k, col] = gamma_s * x_fch_host * alpha * delta_p * kappa
            # Cells that are neither in soft hand-off nor reported in the
            # SCRM are not constrained (the base station has no estimate
            # for them) — exactly as in the paper.

    return AdmissibleRegion(
        matrix=matrix, bounds=builder._bounds(snapshot), link=LinkDirection.REVERSE
    )


def delta_rho(
    controller, snapshot: NetworkSnapshot, requests: Sequence[BurstRequest]
) -> np.ndarray:
    """The per-request ``delta_rho`` loop of the controller (verbatim)."""
    values = np.zeros(len(requests), dtype=float)
    for i, request in enumerate(requests):
        j = request.mobile_index
        mean_csi = (
            snapshot.sch_mean_csi_forward[j]
            if request.link is LinkDirection.FORWARD
            else snapshot.sch_mean_csi_reverse[j]
        )
        values[i] = controller.vtaoc.relative_average_throughput(
            float(mean_csi), controller.config.phy.fch_throughput
        )
    return values
