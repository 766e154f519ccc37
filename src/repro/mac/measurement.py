"""Measurement sub-layer: building the admissible regions (Section 3.1).

The measurement sub-layer converts the radio-network measurements accompanying
each burst request into the linear constraints of the scheduling problem:

* **Forward link** (power limited): admitting request ``j`` with
  spreading-gain ratio ``m_j`` consumes extra forward power
  ``Delta P = m_j * gamma_s * P_{j,k} * alpha_j^{FL}`` at every base station
  ``k`` in the request's reduced active set (eq. (6)); summing over the
  concurrent requests of all cells yields ``A m <= P_max - P_k`` (eqs. (7)/(8)).

* **Reverse link** (interference limited): the extra received interference at
  a cell in soft hand-off with the requester follows from the reverse pilot
  strength measurement (eqs. (9)–(12)); for neighbour cells *not* in soft
  hand-off the interference is projected through the relative path loss
  estimated from the forward pilot strengths reported in the SCRM message
  (eqs. (13)–(15)), inflated by a shadowing margin.  Collecting the terms
  gives ``B m <= L_max - L_k`` (eqs. (16)–(18)).

Both regions are represented by :class:`AdmissibleRegion`, whose matrix/bound
pair feeds directly into :class:`repro.opt.problem.BoundedIntegerProgram`.

Each builder evaluates its equations for the *whole* pending queue in a
handful of NumPy operations (one gather of per-request rows, boolean
membership matrices, a row-wise top-``scrm_max_pilots`` selection and one
vectorised relative-path-loss matrix), so the per-frame admission cost does
not scale with the queue length in Python.  The per-request rows come from
the snapshot's row accessors, which compute only those rows for a snapshot
taken by the network (the whole ``(J, K)`` matrices are never built there).
The kernels must stay bit-identical (``np.array_equal``) to the per-request
transcription of eqs. (6)–(18) kept as a parity oracle in
``tests/oracles/measurement.py``; ``tests/test_mac_measurement.py`` and
``benchmarks/bench_admission_queue.py`` compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import constants
from repro.cdma.network import NetworkSnapshot
from repro.config import MacConfig, PhyConfig
from repro.mac.requests import BurstRequest, LinkDirection

__all__ = [
    "AdmissibleRegion",
    "relative_path_loss",
    "ForwardLinkMeasurement",
    "ReverseLinkMeasurement",
]


@dataclass(frozen=True)
class AdmissibleRegion:
    """Linear admissible region ``matrix @ m <= bounds`` of one link.

    Attributes
    ----------
    matrix:
        Per-unit resource consumption, shape ``(num_cells, num_requests)``
        (``A`` of eq. (8) or ``B`` of eq. (18)).
    bounds:
        Remaining resource per cell (``P_max - P_k`` or ``L_max - L_k``),
        clipped at zero, shape ``(num_cells,)``.
    link:
        Which link the region belongs to.
    """

    matrix: np.ndarray
    bounds: np.ndarray
    link: LinkDirection

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (cells x requests)")
        if bounds.shape != (matrix.shape[0],):
            raise ValueError("bounds must have one entry per cell")
        if np.any(matrix < 0.0):
            raise ValueError("admissible-region coefficients must be non-negative")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "bounds", np.maximum(bounds, 0.0))

    @property
    def num_requests(self) -> int:
        """Number of concurrent burst requests covered by the region."""
        return self.matrix.shape[1]

    @property
    def num_cells(self) -> int:
        """Number of cells contributing constraints."""
        return self.matrix.shape[0]

    def admits(self, assignment: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Check whether an integer assignment lies inside the region."""
        assignment = np.asarray(assignment, dtype=float)
        if assignment.shape != (self.num_requests,):
            raise ValueError("assignment has the wrong length")
        usage = self.matrix @ assignment
        return bool(
            np.all(usage <= self.bounds + tolerance * np.maximum(1.0, self.bounds))
        )

    def resource_usage(self, assignment: np.ndarray) -> np.ndarray:
        """Per-cell resource consumed by an assignment."""
        return self.matrix @ np.asarray(assignment, dtype=float)


def relative_path_loss(
    forward_pilot_strength: np.ndarray, host_cell: int, neighbor_cell: int
) -> float:
    """Relative path loss ``delta P_{k,k'}`` between neighbour and host cell.

    Eq. (14): the path loss towards a cell is inversely proportional to its
    forward pilot strength (eq. (13)), hence the *relative* path loss of the
    neighbour ``k'`` with respect to the host ``k`` is the ratio of the
    forward pilot strengths ``t^{FL}_{j,k'} / t^{FL}_{j,k}``.

    Parameters
    ----------
    forward_pilot_strength:
        Forward pilot Ec/Io reported by the mobile, shape ``(num_cells,)``.
    host_cell / neighbor_cell:
        Cell indices ``k`` and ``k'``.
    """
    strengths = np.asarray(forward_pilot_strength, dtype=float)
    host = float(strengths[host_cell])
    neighbor = float(strengths[neighbor_cell])
    if host <= 0.0:
        raise ValueError("host-cell pilot strength must be positive")
    return max(neighbor, 0.0) / host


def _mobile_indices(requests: Sequence[BurstRequest]) -> np.ndarray:
    """Gather the per-request mobile indices as one int array."""
    return np.fromiter(
        (r.mobile_index for r in requests), dtype=np.int64, count=len(requests)
    )


def _check_links(requests: Sequence[BurstRequest], link: LinkDirection) -> None:
    for request in requests:
        if request.link is not link:
            raise ValueError(
                f"{'Forward' if link is LinkDirection.FORWARD else 'Reverse'}"
                f"LinkMeasurement received a "
                f"{'reverse' if link is LinkDirection.FORWARD else 'forward'} request"
            )


class ForwardLinkMeasurement:
    """Builds the forward-link admissible region (eqs. (6)–(8)).

    Parameters
    ----------
    phy / mac:
        Configuration sections providing ``gamma_s`` and ``alpha``.
    """

    def __init__(self, phy: PhyConfig, mac: MacConfig) -> None:
        self.phy = phy
        self.mac = mac

    def _bounds(self, snapshot: NetworkSnapshot) -> np.ndarray:
        return snapshot.forward_load.headroom_w() * self.mac.forward_admission_margin

    def build(
        self, snapshot: NetworkSnapshot, requests: Sequence[BurstRequest]
    ) -> AdmissibleRegion:
        """Admissible region of the given forward-link requests (eq. (6))."""
        _check_links(requests, LinkDirection.FORWARD)
        num_cells = snapshot.num_cells
        num_requests = len(requests)
        if num_requests == 0:
            matrix = np.zeros((num_cells, 0), dtype=float)
        else:
            gamma_s = self.phy.gamma_s_forward
            alpha = self.mac.alpha_forward
            j_idx = _mobile_indices(requests)
            membership = snapshot.reduced_membership_rows(j_idx)  # (n, K)
            power = snapshot.forward_load.fch_power_rows(j_idx)  # (n, K)
            serving = np.asarray(snapshot.serving_cells, dtype=np.int64)[j_idx]
            serving_power = power[np.arange(num_requests), serving]  # (n,)
            # Eq. (6): one unit of m costs gamma_s * P_{j,k} * alpha at every
            # reduced-active-set cell.  A zero-power leg (e.g. one just added)
            # falls back to the serving-cell allocation so the cost is never
            # free; the `<=` mask mirrors the per-request oracle exactly
            # (including the propagation of non-finite values).
            effective = np.where(power <= 0.0, serving_power[:, np.newaxis], power)
            matrix = np.where(membership, gamma_s * effective * alpha, 0.0).T
        return AdmissibleRegion(
            matrix=matrix, bounds=self._bounds(snapshot), link=LinkDirection.FORWARD
        )


class ReverseLinkMeasurement:
    """Builds the reverse-link admissible region (eqs. (9)–(18)).

    Parameters
    ----------
    phy / mac:
        Configuration sections providing ``gamma_s``, ``alpha`` and ``kappa``.
    scrm_max_pilots:
        Number of neighbour pilots carried in the SCRM (supplemental channel
        request message); paper footnote 6, :data:`repro.constants.SCRM_MAX_PILOTS`.
    """

    def __init__(
        self,
        phy: PhyConfig,
        mac: MacConfig,
        scrm_max_pilots: int = constants.SCRM_MAX_PILOTS,
    ) -> None:
        if scrm_max_pilots < 1:
            raise ValueError("scrm_max_pilots must be at least 1")
        self.phy = phy
        self.mac = mac
        self.scrm_max_pilots = int(scrm_max_pilots)

    def _bounds(self, snapshot: NetworkSnapshot) -> np.ndarray:
        return snapshot.reverse_load.headroom_w() * self.mac.reverse_admission_margin

    def build(
        self, snapshot: NetworkSnapshot, requests: Sequence[BurstRequest]
    ) -> AdmissibleRegion:
        """Admissible region of the given reverse-link requests (eqs. (9)–(18))."""
        _check_links(requests, LinkDirection.REVERSE)
        num_cells = snapshot.num_cells
        num_requests = len(requests)
        if num_requests == 0:
            return AdmissibleRegion(
                matrix=np.zeros((num_cells, 0), dtype=float),
                bounds=self._bounds(snapshot),
                link=LinkDirection.REVERSE,
            )

        reverse_load = snapshot.reverse_load
        l_k = reverse_load.current_interference_w
        gamma_s = self.phy.gamma_s_reverse
        alpha = self.mac.alpha_reverse
        kappa = self.mac.neighbor_margin

        j_idx = _mobile_indices(requests)
        rows = np.arange(num_requests)
        host = np.asarray(snapshot.serving_cells, dtype=np.int64)[j_idx]
        soft = snapshot.active_membership()[j_idx]  # (n, K)
        t_rl = reverse_load.reverse_pilot_rows(j_idx)  # (n, K)
        t_fl = reverse_load.forward_pilot_rows(j_idx)  # (n, K)
        xi = reverse_load.fch_pilot_power_ratio[j_idx]  # (n,)

        # Eq. (12): soft-hand-off cells measure the requester directly.
        soft_term = gamma_s * l_k[np.newaxis, :] * xi[:, np.newaxis] * t_rl * alpha

        # SCRM-reported neighbours: row-wise top-scrm_max_pilots by forward
        # pilot strength.  A descending argsort (not argpartition) keeps the
        # membership of tied pilots at the selection boundary bit-identical
        # to the per-request oracle.
        width = min(self.scrm_max_pilots, num_cells)
        order = np.argsort(t_fl, axis=1)[:, ::-1][:, :width]
        reported = np.zeros((num_requests, num_cells), dtype=bool)
        reported[rows[:, np.newaxis], order] = True

        # Eqs. (10)/(14)/(15): host-cell FCH power projected through the
        # relative path loss, inflated by the shadowing margin.  Requests
        # whose host-cell forward pilot is non-positive (deep shadow) have no
        # usable neighbour estimate and keep those cells unconstrained.
        x_fch_host = l_k[host] * xi * t_rl[rows, host]  # (n,)
        t_host = t_fl[rows, host]
        host_usable = ~(t_host <= 0.0)
        safe_host = np.where(host_usable, t_host, 1.0)
        delta_p = np.maximum(t_fl, 0.0) / safe_host[:, np.newaxis]
        neighbor_term = gamma_s * x_fch_host[:, np.newaxis] * alpha * delta_p * kappa
        neighbor_mask = reported & ~soft & host_usable[:, np.newaxis]

        matrix = np.where(soft, soft_term, np.where(neighbor_mask, neighbor_term, 0.0)).T
        return AdmissibleRegion(
            matrix=matrix, bounds=self._bounds(snapshot), link=LinkDirection.REVERSE
        )
