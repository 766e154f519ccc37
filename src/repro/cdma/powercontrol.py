"""SIR-based power control for the fundamental channels.

The paper's dynamic simulation "takes into account of ... power control".  At
the system level we model the closed-loop power control in its quasi-static
(per-frame) form: at each scheduling frame the transmit powers of all FCHs
are set so every link just meets its Eb/Io target given the interference
created by everybody else.  Every solve starts from that frame's inputs
alone.

Both links' map from the ``K`` per-cell totals to the totals they imply is a
standard interference function (R. D. Yates, "A framework for uplink power
control in cellular radio systems", IEEE JSAC 13(7), 1995), so it has one
fixed point.  It is also the pointwise minimum of affine maps, one per
*piece*: a choice of which links are capped and which cells are saturated.

* Reverse link: a capped mobile transmits at the power-amplifier limit, an
  uncapped one in proportion to its serving cell's total.
* Forward link: a capped leg gets the per-link cap, an uncapped one its share
  of the power its mobile's interference calls for; a saturated cell uses
  all the room its committed SCH power leaves, ``max(budget - committed,
  0)``, an unsaturated one the sum over its legs.

With the piece fixed the map is ``x = A x + b`` with ``A >= 0``, one ``K x
K`` linear solve, and every piece lies above the true map, so a positive
solution of a piece bounds the fixed point from above.  The solvers run
policy iteration (R. A. Howard, *Dynamic Programming and Markov Processes*,
1960) over the pieces:

1. Round 1 solves the piece with nothing capped and nothing saturated.  Its
   solution is positive exactly when the active links are below pole
   capacity.  If it is not, the result is flagged ``infeasible`` and the
   rounds start instead from the all-capped, all-saturated point, an upper
   bound that needs no solve.
2. The next round solves the piece that binds at that point: the links over
   their cap and the cells over their budget.  Every later round solves the
   binding piece intersected with the current one.  Each such piece maps
   the current point to or below itself, so its solution is again positive
   and lies at or below the current point: the iterates fall, links and
   cells only leave the capped and saturated sets, and the rounds stop when
   the sets repeat.  The map then equals the piece there, so the point is
   the fixed point itself, not an approximation of it.

That takes at most one round per link (per leg on the forward link) and per
cell, plus two; 1-3 at the paper's scale.  Each round builds ``A`` as a
segmented sum over the rows that its piece leaves free: the uncapped
mobiles, grouped by serving cell, on the reverse link; the uncapped legs of
unsaturated cells, grouped by cell, on the forward link.  Past pole capacity
most rows are capped, so the later rounds are cheap, and no ``A`` carries
the rounding of rows added and taken out again.  The Yates sweeps the
solvers replaced are the parity oracle in ``tests/oracles/powercontrol.py``.

Forward and reverse links are power-limited and interference-limited
respectively (Section 3.1), and are therefore handled by separate solvers:

* :class:`ReverseLinkPowerControl` — mobiles adjust their FCH (plus reverse
  pilot) transmit power towards their serving base station; produces the
  total received power ``L_k`` of every cell.
* :class:`ForwardLinkPowerControl` — each base station allocates FCH power to
  every mobile in its active set; produces the per-cell transmit power ``P_k``
  and the per-mobile-per-cell FCH allocations ``P_{j,k}`` used by the
  forward-link burst measurements (eq. (6)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "PowerControlResult",
    "ReverseLinkPowerControl",
    "ForwardLinkPowerControl",
]


@dataclass
class PowerControlResult:
    """Outcome of one power-control fixed-point computation.

    Attributes
    ----------
    tx_power_w:
        Reverse link: per-mobile transmit power (FCH only), shape ``(J,)``.
        Forward link: per-mobile-per-cell FCH allocation, shape ``(J, K)``.
    total_power_w:
        Reverse link: total received power ``L_k`` per cell (including
        noise), shape ``(K,)``.  Forward link: total transmit power ``P_k``
        per cell, shape ``(K,)``.
    achieved_sir:
        Achieved FCH Eb/Io (linear) per mobile, shape ``(J,)``; ``nan`` for
        inactive mobiles.
    power_limited:
        Boolean per-mobile flag set when the power limit prevented the link
        from reaching its target (outage).
    iterations:
        Number of rounds (pieces whose fixed point was taken).
    infeasible:
        The active links were past pole capacity: with no link capped and no
        cell saturated they would have no positive fixed point, so the caps
        and budgets decide the powers.
    """

    tx_power_w: np.ndarray
    total_power_w: np.ndarray
    achieved_sir: np.ndarray
    power_limited: np.ndarray
    iterations: int
    infeasible: bool


def _grouped_sum(values: np.ndarray, groups: np.ndarray, num_groups: int) -> np.ndarray:
    """Row sums of ``values`` per group; ``groups`` must be sorted."""
    out = np.zeros((num_groups, values.shape[1]))
    if groups.size:
        first = np.empty(groups.size, dtype=bool)
        first[0] = True
        np.not_equal(groups[1:], groups[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        out[groups[starts]] = np.add.reduceat(values, starts, axis=0)
    return out


def _solve_piece(coupling: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The solution of ``x = coupling @ x + offset``, ``nan`` if singular."""
    num_cells = offset.size
    try:
        return np.linalg.solve(np.eye(num_cells) - coupling, offset)
    except np.linalg.LinAlgError:
        return np.full(num_cells, np.nan)


def _certified(point: np.ndarray, offset: np.ndarray) -> bool:
    """Whether a piece's solution certifies that its ``A`` has spectral radius < 1.

    Every cell whose row of ``A`` is nonzero has a positive offset, so the
    solution must be positive there; a cell with a zero offset and a zero
    row sits at exactly zero.
    """
    return bool((point[offset > 0.0] > 0.0).all() and np.isfinite(point).all())


def _fixed_point(
    link: str,
    max_rounds: int,
    num_switches: int,
    piece_map: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    binding_at: Callable[[np.ndarray], Tuple[np.ndarray, Any]],
) -> Tuple[np.ndarray, Any, int, bool]:
    """The fixed point of a power-control map, by policy iteration over its pieces.

    A piece is a boolean vector over the map's switches (capped links, then
    saturated cells); ``piece_map(piece)`` returns the ``(A, b)`` of the
    affine map ``x -> A x + b`` it selects (``A`` is zero when every switch
    is on), and ``binding_at(x)`` the piece that attains the map at ``x``
    together with the map's intermediate values there.  Returns the fixed
    point, those values at it, the number of rounds and whether round 1
    found the links past pole capacity.
    """
    piece = np.zeros(num_switches, dtype=bool)
    coupling, offset = piece_map(piece)
    point = _solve_piece(coupling, offset)
    rounds = 1
    infeasible = not _certified(point, offset)
    if infeasible:
        piece = np.ones(num_switches, dtype=bool)
        point = piece_map(piece)[1]
        rounds = 2
    binding, evaluation = binding_at(point)
    if infeasible:
        binding &= piece
    while not (binding == piece).all():
        if rounds >= max_rounds:
            raise RuntimeError(
                f"{link} power control did not reach its fixed point "
                f"within {max_rounds} rounds"
            )
        piece = binding
        coupling, offset = piece_map(piece)
        point = _solve_piece(coupling, offset)
        rounds += 1
        if not _certified(point, offset):
            # Each piece maps the previous point to or below itself, so its
            # solution is positive; only a rounding breakdown gets here.
            raise RuntimeError(f"{link} power control lost its bound in round {rounds}")
        binding, evaluation = binding_at(point)
        binding &= piece
    return point, evaluation, rounds, infeasible


class ReverseLinkPowerControl:
    """Reverse-link (uplink) FCH power control.

    Parameters
    ----------
    processing_gain:
        FCH processing gain ``W / Rf``.
    ebio_target:
        FCH Eb/Io target (linear).
    pilot_overhead:
        Fraction of additional transmit power spent on the reverse pilot,
        expressed relative to the FCH power (``1 / xi_j`` with the paper's
        notation); included in the interference the mobile generates.
    max_tx_power_w:
        Mobile power amplifier limit (applied to FCH + pilot).
    iterations:
        Cap on the rounds of one solve; a solve that would need more raises
        :class:`RuntimeError`.

    Notes
    -----
    A piece is the set of mobiles at the power cap.  Uncapped mobile ``j``
    transmits ``q_j / (1 + q_j) * L_s / g_js`` into its serving cell ``s``,
    so column ``s`` of ``A`` sums, over the uncapped mobiles that ``s``
    serves, the power every cell receives per watt of ``L_s``; a capped
    mobile adds its received power to ``b``.

    On the ``fleet-20k`` benchmark (J≈2e4 on 19 cells) every solve is
    ``infeasible`` and takes 6-8 rounds: the failed round 1, the all-capped
    start and 4-6 solves.  About 95 % of the active FCH rows end at the
    mobile power cap and the rise over thermal reaches ~50 dB: the load is
    past pole capacity, so the caps, not the targets, set the powers.
    """

    def __init__(
        self,
        processing_gain: float,
        ebio_target: float,
        pilot_overhead: float = 0.25,
        max_tx_power_w: float = 0.2,
        iterations: int = 30,
    ) -> None:
        self.processing_gain = check_positive("processing_gain", processing_gain)
        self.ebio_target = check_positive("ebio_target", ebio_target)
        if pilot_overhead < 0.0:
            raise ValueError("pilot_overhead must be non-negative")
        self.pilot_overhead = float(pilot_overhead)
        self.max_tx_power_w = check_positive("max_tx_power_w", max_tx_power_w)
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        self.iterations = int(iterations)

    def solve(
        self,
        gains: np.ndarray,
        serving_cells: np.ndarray,
        active: np.ndarray,
        noise_power_w: np.ndarray,
        extra_received_power_w: Optional[np.ndarray] = None,
        rate_factor: Optional[np.ndarray] = None,
    ) -> PowerControlResult:
        """Solve the reverse-link power-control fixed point.

        Parameters
        ----------
        gains:
            Local-mean link gains, shape ``(J, K)``.
        serving_cells:
            Index of each mobile's serving cell, shape ``(J,)``.
        active:
            Boolean mask of mobiles whose FCH currently carries traffic.
        noise_power_w:
            Thermal noise power at each base station, shape ``(K,)``; must be
            positive, or the all-zero powers would be a fixed point too.
        extra_received_power_w:
            Additional received power per cell not controlled here (granted
            reverse SCH bursts), shape ``(K,)``; non-negative.
        rate_factor:
            Per-mobile dedicated-channel rate relative to the full-rate FCH
            (1.0 = full rate, e.g. 0.125 for the low-rate control channel a
            data user keeps while waiting between bursts); scales the user's
            load factor accordingly.

        Notes
        -----
        Only the connectable rows (active, with a nonzero serving-cell gain)
        take part; every other mobile transmits nothing.
        """
        gains = np.asarray(gains, dtype=float)
        num_mobiles, num_cells = gains.shape
        serving = np.asarray(serving_cells, dtype=int).reshape(num_mobiles)
        active = np.asarray(active, dtype=bool).reshape(num_mobiles)
        noise = np.asarray(noise_power_w, dtype=float).reshape(num_cells)
        extra = (
            np.zeros(num_cells)
            if extra_received_power_w is None
            else np.asarray(extra_received_power_w, dtype=float).reshape(num_cells)
        )
        rate = (
            np.ones(num_mobiles)
            if rate_factor is None
            else np.asarray(rate_factor, dtype=float).reshape(num_mobiles)
        )
        if not ((rate > 0.0) & (rate <= 1.0)).all():
            raise ValueError("rate_factor entries must lie in (0, 1]")
        if not (noise > 0.0).all():
            raise ValueError("noise_power_w must be positive in every cell")
        if not (extra >= 0.0).all():
            raise ValueError("extra_received_power_w must be non-negative")

        overhead = 1.0 + self.pilot_overhead
        tx_cap = self.max_tx_power_w / overhead
        noise_extra = noise + extra

        # The rows that transmit (active, with a nonzero serving-cell gain),
        # gathered once and grouped by serving cell.
        rows = np.flatnonzero(active)
        own_gain = gains[rows, serving[rows]]
        connectable = own_gain > 0.0
        rows, own_gain = rows[connectable], own_gain[connectable]
        order = np.argsort(serving[rows], kind="stable")
        rows, own_gain = rows[order], own_gain[order]
        row_gains = np.take(gains, rows, axis=0)
        row_serving = serving[rows]
        # Received FCH power needed at the serving cell so that
        # (pg / rate) * S / (L - S) = target  =>  S = (q / (1 + q)) * L: an
        # uncapped row transmits ``slope * L_s``.
        q = self.ebio_target * rate[rows] / self.processing_gain
        slope = q / (1.0 + q) / own_gain
        emitted_per_watt = overhead * slope

        def piece_map(capped):
            # Column s of A: the power every cell receives per watt of L_s
            # from the uncapped rows that s serves.
            uncapped = ~capped
            received = row_gains[uncapped]
            received *= emitted_per_watt[uncapped][:, np.newaxis]
            coupling_t = _grouped_sum(received, row_serving[uncapped], num_cells)
            offset = noise_extra + (overhead * tx_cap) * (row_gains.T @ capped)
            return coupling_t.T, offset

        def binding_at(totals):
            need = slope * totals[row_serving]
            return need > tx_cap, need

        totals, need, rounds, infeasible = _fixed_point(
            "reverse", self.iterations, rows.size, piece_map, binding_at
        )

        # The powers at the fixed point, by the map's own formulas.
        row_tx = np.minimum(need, tx_cap)
        totals = noise_extra + row_gains.T @ (row_tx * overhead)
        tx = np.zeros(num_mobiles)
        tx[rows] = row_tx
        received = np.zeros(num_mobiles)
        received[rows] = row_tx * own_gain
        interference = totals[serving] - received
        with np.errstate(divide="ignore", invalid="ignore"):
            achieved = np.where(
                active & (interference > 0.0),
                (self.processing_gain / rate)
                * received
                / np.maximum(interference, 1e-300),
                np.nan,
            )
        limited = active & (tx >= tx_cap - 1e-12) & (
            achieved < self.ebio_target * (1.0 - 1e-6)
        )
        return PowerControlResult(
            tx_power_w=tx,
            total_power_w=totals,
            achieved_sir=achieved,
            power_limited=limited,
            iterations=rounds,
            infeasible=infeasible,
        )


class ForwardLinkPowerControl:
    """Forward-link (downlink) FCH power allocation.

    Parameters
    ----------
    processing_gain:
        FCH processing gain ``W / Rf``.
    ebio_target:
        FCH Eb/Io target (linear).
    orthogonality_factor:
        Fraction of the *own-cell* transmit power that appears as
        interference after despreading (0 = perfectly orthogonal downlink,
        1 = fully non-orthogonal).  Typical urban value ~0.6.
    mobile_noise_power_w:
        Thermal noise power at the mobile receiver.
    iterations:
        Cap on the rounds of one solve; a solve that would need more raises
        :class:`RuntimeError`.

    Notes
    -----
    A piece is the set of capped legs and the set of saturated cells.  An
    uncapped leg of mobile ``j`` on cell ``k`` gets ``w_jk * I_j``, with
    ``I_j`` the mobile's interference, affine in the cell totals; so row
    ``k`` of ``A`` sums ``w_jk`` times the mobile's interference gains over
    the cell's uncapped legs, and is zero for a saturated cell.
    """

    def __init__(
        self,
        processing_gain: float,
        ebio_target: float,
        orthogonality_factor: float = 0.6,
        mobile_noise_power_w: float = 1e-13,
        iterations: int = 30,
    ) -> None:
        self.processing_gain = check_positive("processing_gain", processing_gain)
        self.ebio_target = check_positive("ebio_target", ebio_target)
        if not 0.0 <= orthogonality_factor <= 1.0:
            raise ValueError("orthogonality_factor must lie in [0, 1]")
        self.orthogonality_factor = float(orthogonality_factor)
        self.mobile_noise_power_w = check_positive(
            "mobile_noise_power_w", mobile_noise_power_w
        )
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        self.iterations = int(iterations)

    def solve(
        self,
        gains: np.ndarray,
        active_set: np.ndarray,
        active: np.ndarray,
        base_power_w: np.ndarray,
        max_traffic_power_w: np.ndarray,
        extra_traffic_power_w: Optional[np.ndarray] = None,
        max_link_power_w: Optional[float] = None,
        rate_factor: Optional[np.ndarray] = None,
    ) -> PowerControlResult:
        """Solve the forward-link power-allocation fixed point.

        Parameters
        ----------
        gains:
            Local-mean link gains, shape ``(J, K)``.
        active_set:
            Boolean FCH active-set membership, shape ``(J, K)``; the FCH power
            of a soft-hand-off user is split across its legs.
        active:
            Boolean mask of mobiles whose FCH currently carries traffic.
        base_power_w:
            Power of the always-on common channels per cell, shape ``(K,)``.
        max_traffic_power_w:
            Traffic-power budget per cell (``P_max`` minus overhead), shape
            ``(K,)``.
        extra_traffic_power_w:
            Already-committed traffic power per cell (granted forward SCH
            bursts), shape ``(K,)``; non-negative.
        max_link_power_w:
            Optional non-negative cap on the FCH power of a single link (per
            leg); links that hit the cap show up as ``power_limited``
            (forward-link outage for cell-edge users).
        rate_factor:
            Per-mobile dedicated-channel rate relative to the full-rate FCH;
            scales the per-link power requirement.

        Notes
        -----
        Only the active rows take part; inactive mobiles get no allocation
        and a ``nan`` Eb/Io.  A saturated cell scales its legs'
        allocations into the room its committed SCH power leaves, so its
        power stays at ``P_max``.
        """
        gains = np.asarray(gains, dtype=float)
        num_mobiles, num_cells = gains.shape
        active_set = np.asarray(active_set, dtype=bool).reshape(num_mobiles, num_cells)
        active = np.asarray(active, dtype=bool).reshape(num_mobiles)
        base = np.asarray(base_power_w, dtype=float).reshape(num_cells)
        budget = np.asarray(max_traffic_power_w, dtype=float).reshape(num_cells)
        extra = (
            np.zeros(num_cells)
            if extra_traffic_power_w is None
            else np.asarray(extra_traffic_power_w, dtype=float).reshape(num_cells)
        )
        rate = (
            np.ones(num_mobiles)
            if rate_factor is None
            else np.asarray(rate_factor, dtype=float).reshape(num_mobiles)
        )
        if not ((rate > 0.0) & (rate <= 1.0)).all():
            raise ValueError("rate_factor entries must lie in (0, 1]")
        if not (extra >= 0.0).all():
            raise ValueError("extra_traffic_power_w must be non-negative")
        if max_link_power_w is not None and not max_link_power_w >= 0.0:
            raise ValueError("max_link_power_w must be non-negative")
        link_cap = np.inf if max_link_power_w is None else float(max_link_power_w)
        noise = self.mobile_noise_power_w
        base_extra = base + extra
        room = np.maximum(budget - extra, 0.0)

        # The active rows, gathered once.
        rows = np.flatnonzero(active)
        row_gains = np.take(gains, rows, axis=0)
        row_set = np.take(active_set, rows, axis=0)
        row_rate = rate[rows]
        serving = np.argmax(np.where(row_set, row_gains, -np.inf), axis=1)
        # Interference seen by each mobile: other-cell power fully, own
        # (strongest-leg) cell scaled by the orthogonality factor.
        interference_gains = row_gains.copy()
        interference_gains[np.arange(rows.size), serving] *= self.orthogonality_factor
        # The legs, grouped by cell, and the FCH power of each per watt of
        # interference: the total received FCH power needed is
        # q * interference, split evenly over the mobile's active set.
        leg_cell, leg_row = np.nonzero((row_set & (row_gains > 0.0)).T)
        num_legs = leg_row.size
        share = self.ebio_target * row_rate / self.processing_gain
        share /= np.maximum(row_set.sum(axis=1), 1)
        leg_gain = row_gains[leg_row, leg_cell]
        leg_weight = share[leg_row] / leg_gain
        leg_noise = noise * leg_weight

        def leg_sums(values):
            return np.bincount(leg_cell, weights=values, minlength=num_cells)

        def piece_map(piece):
            # The legs before the cells; a saturated cell's legs drop out.
            capped, saturated = piece[:num_legs], piece[num_legs:]
            live = ~(capped | saturated[leg_cell])
            allocated = np.take(interference_gains, leg_row[live], axis=0)
            allocated *= leg_weight[live][:, np.newaxis]
            coupling = _grouped_sum(allocated, leg_cell[live], num_cells)
            offset = base_extra + leg_sums(np.where(capped, link_cap, leg_noise))
            return coupling, np.where(saturated, base_extra + room, offset)

        def binding_at(totals):
            interference = interference_gains @ totals + noise
            demand = leg_weight * interference[leg_row]
            leg_alloc = np.minimum(demand, link_cap)
            fch = leg_sums(leg_alloc)
            overloaded = fch + extra > budget
            # An overloaded cell's total does not depend on its legs, so they
            # keep their status until it leaves saturation: a round that
            # would only move them solves the same map again.
            capped = (demand > link_cap) | overloaded[leg_cell]
            piece = np.concatenate((capped, overloaded))
            return piece, (interference, leg_alloc, fch, overloaded)

        # Without a link cap no leg binds, so the legs of the all-capped
        # start leave the capped set once their cell leaves saturation.
        totals, at_fixed_point, rounds, infeasible = _fixed_point(
            "forward", self.iterations, num_legs + num_cells, piece_map, binding_at
        )

        # The allocations at the fixed point, by the map's own formulas: a
        # cell over its budget scales its FCH allocations down proportionally
        # into the room its committed SCH power leaves (the overloaded users
        # will show as power limited).
        interference, leg_alloc, fch, overloaded = at_fixed_point
        scale = np.where(overloaded, room / np.maximum(fch, 1e-300), 1.0)
        leg_alloc *= scale[leg_cell]
        totals = base_extra + scale * fch
        received_fch = np.bincount(
            leg_row, weights=leg_alloc * leg_gain, minlength=rows.size
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            row_achieved = (
                (self.processing_gain / row_rate)
                * received_fch
                / np.maximum(interference, 1e-300)
            )
        alloc = np.zeros((num_mobiles, num_cells))
        alloc[rows[leg_row], leg_cell] = leg_alloc
        achieved = np.full(num_mobiles, np.nan)
        achieved[rows] = row_achieved
        # Outage definition: more than ~1.25 dB below the Eb/Io target.  Small
        # shortfalls caused by the proportional scaling of a momentarily
        # saturated cell are absorbed by the link margin and interleaving and
        # are not counted as coverage loss.
        limited = active & (achieved < 0.75 * self.ebio_target)
        return PowerControlResult(
            tx_power_w=alloc,
            total_power_w=totals,
            achieved_sir=achieved,
            power_limited=limited,
            iterations=rounds,
            infeasible=infeasible,
        )
