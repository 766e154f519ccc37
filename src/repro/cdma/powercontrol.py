"""SIR-based power control for the fundamental channels.

The paper's dynamic simulation "takes into account of ... power control".  At
the system level we model the closed-loop power control in its quasi-static
(per-frame) form: at each scheduling frame the transmit powers of all FCHs
are set so every link just meets its Eb/Io target given the interference
created by everybody else.  This fixed point is computed with the standard
interference-function iteration (Yates), which converges monotonically and is
vectorised over all mobiles/cells.  Every solve starts cold, from the noise
floor (reverse) or the common-channel power (forward), so a frame's powers
depend on that frame's inputs alone.

Only mobiles whose FCH carries traffic take part in the fixed point (about
a fifth of the population in the paper's scenarios), so both solvers gather
those rows once per solve, iterate on them alone and scatter the result back
into the full-size outputs.  Each sweep's product over those rows is one
BLAS matrix-vector product: the per-cell received power on the reverse link,
the per-mobile interference on the forward link, whose per-leg allocations
are then capped and summed per cell elementwise.  The products sum in
another order than the elementwise sweeps they replaced, kept as the parity
oracle in ``tests/oracles/powercontrol.py`` and matched to ``rtol=1e-12``.
Every result reports the last sweep's ``residual`` and whether it
``converged``.

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
from typing import Optional

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
        Number of fixed-point iterations performed.
    residual:
        Largest relative change of a per-cell total in the last iteration.
    converged:
        ``residual < tolerance``: the iteration stopped at the fixed point,
        not at its iteration cap.
    """

    tx_power_w: np.ndarray
    total_power_w: np.ndarray
    achieved_sir: np.ndarray
    power_limited: np.ndarray
    iterations: int
    residual: float
    converged: bool


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
    iterations / tolerance:
        Fixed-point iteration controls.

    Notes
    -----
    A solve that ends at the iteration cap (``converged=False``) is not
    necessarily slow.  At J≈2e4 on 19 cells (frame 11 of the ``fleet-20k``
    benchmark, seed 2001), 3 749 of the 3 953 active FCH rows end at the
    mobile power cap and the largest rise over thermal is 51.0 dB.  The
    residual shrinks about ×0.65 per sweep (3.2e-4 at sweep 25, below 1e-12
    at sweep 71), to a fixed point where those links are power limited: the
    load is past pole capacity, so the link is infeasible, not slow, and
    more iterations would not serve it.
    """

    def __init__(
        self,
        processing_gain: float,
        ebio_target: float,
        pilot_overhead: float = 0.25,
        max_tx_power_w: float = 0.2,
        iterations: int = 30,
        tolerance: float = 1e-6,
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
        self.tolerance = check_positive("tolerance", tolerance)

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
            Thermal noise power at each base station, shape ``(K,)``.
        extra_received_power_w:
            Additional received power per cell not controlled here (granted
            reverse SCH bursts), shape ``(K,)``.
        rate_factor:
            Per-mobile dedicated-channel rate relative to the full-rate FCH
            (1.0 = full rate, e.g. 0.125 for the low-rate control channel a
            data user keeps while waiting between bursts); scales the user's
            load factor accordingly.

        Notes
        -----
        The Yates iterations run on the connectable rows only (active, with
        a nonzero serving-cell gain); every other mobile transmits nothing.
        Each sweep sums the received power per cell as one matrix-vector
        product over those rows.
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
        if np.any(rate <= 0.0) or np.any(rate > 1.0):
            raise ValueError("rate_factor entries must lie in (0, 1]")

        q = self.ebio_target * rate / self.processing_gain
        own_gain = gains[np.arange(num_mobiles), serving]
        totals = noise + extra
        iterations_done = 0
        overhead = 1.0 + self.pilot_overhead
        # Loop invariants.
        q_fraction = q / (1.0 + q)
        connectable = active & (own_gain > 0.0)
        own_gain_safe = np.maximum(own_gain, 1e-300)
        tx_cap = self.max_tx_power_w / overhead
        noise_extra = noise + extra

        # The rows that transmit, gathered once for the whole iteration.
        rows = np.flatnonzero(connectable)
        row_gains = gains[rows]
        row_serving = serving[rows]
        row_q_fraction = q_fraction[rows]
        row_own_gain_safe = own_gain_safe[rows]
        row_tx = np.zeros(rows.size)
        for iteration in range(self.iterations):
            iterations_done = iteration + 1
            # Received FCH power needed at the serving cell so that
            # (pg / rate) * S / (L - S) = target  =>  S = (q / (1 + q)) * L.
            required_rx = row_q_fraction * totals[row_serving]
            # Power limit applies to FCH plus pilot overhead.
            new_tx = np.minimum(required_rx / row_own_gain_safe, tx_cap)
            # Received power per cell: one matrix-vector product over the rows.
            new_totals = noise_extra + row_gains.T @ (new_tx * overhead)
            delta = (np.abs(new_totals - totals) / np.maximum(new_totals, 1e-300)).max()
            row_tx, totals = new_tx, new_totals
            if delta < self.tolerance:
                break

        tx = np.zeros(num_mobiles)
        tx[rows] = row_tx
        received = tx * own_gain
        interference = totals[serving] - received
        with np.errstate(divide="ignore", invalid="ignore"):
            achieved = np.where(
                active & (interference > 0.0),
                (self.processing_gain / rate)
                * received
                / np.maximum(interference, 1e-300),
                np.nan,
            )
        limited = active & (tx >= self.max_tx_power_w / overhead - 1e-12) & (
            achieved < self.ebio_target * (1.0 - 1e-6)
        )
        return PowerControlResult(
            tx_power_w=tx,
            total_power_w=totals,
            achieved_sir=achieved,
            power_limited=limited,
            iterations=iterations_done,
            residual=float(delta),
            converged=bool(delta < self.tolerance),
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
    iterations / tolerance:
        Fixed-point iteration controls.
    """

    def __init__(
        self,
        processing_gain: float,
        ebio_target: float,
        orthogonality_factor: float = 0.6,
        mobile_noise_power_w: float = 1e-13,
        iterations: int = 30,
        tolerance: float = 1e-6,
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
        self.tolerance = check_positive("tolerance", tolerance)

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
            bursts), shape ``(K,)``.
        max_link_power_w:
            Optional cap on the FCH power of a single link (per leg); links
            that hit the cap show up as ``power_limited`` (forward-link
            outage for cell-edge users).
        rate_factor:
            Per-mobile dedicated-channel rate relative to the full-rate FCH;
            scales the per-link power requirement.

        Notes
        -----
        The Yates iterations and the final Eb/Io run on the active rows only;
        inactive mobiles get no allocation and a ``nan`` Eb/Io.  Each sweep
        takes the interference of every mobile as one matrix-vector product
        (gains with the serving column scaled by the orthogonality factor);
        the per-leg allocations it implies are capped and summed per cell
        elementwise.
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
        if np.any(rate <= 0.0) or np.any(rate > 1.0):
            raise ValueError("rate_factor entries must lie in (0, 1]")

        totals = base + extra
        iterations_done = 0
        base_extra = base + extra

        # The active rows, gathered once, and the loop invariants.
        rows = np.flatnonzero(active)
        row_gains = gains[rows]
        row_set = active_set[rows]
        row_rate = rate[rows]
        legs = np.maximum(row_set.sum(axis=1), 1)
        serving = np.argmax(np.where(row_set, row_gains, -np.inf), axis=1)
        q = self.ebio_target * row_rate / self.processing_gain
        own_index = np.arange(rows.size)
        # Interference seen by each mobile: other-cell power fully, own
        # (strongest-leg) cell scaled by the orthogonality factor.
        interference_gains = row_gains.copy()
        interference_gains[own_index, serving] *= self.orthogonality_factor
        # FCH power of each leg per watt of interference: the total received
        # FCH power needed is q * interference, split evenly over the legs.
        weight = np.where(
            row_set & (row_gains > 0.0),
            (q / legs)[:, np.newaxis] / np.maximum(row_gains, 1e-300),
            0.0,
        )

        for iteration in range(self.iterations):
            iterations_done = iteration + 1
            interference = interference_gains @ totals + self.mobile_noise_power_w
            row_alloc = weight * interference[:, np.newaxis]
            if max_link_power_w is not None:
                np.minimum(row_alloc, max_link_power_w, out=row_alloc)
            fch = row_alloc.sum(axis=0)
            # If a cell exceeds its budget, scale its FCH allocations down
            # proportionally into the room its committed SCH power leaves
            # (the overloaded users will show as power limited).
            scale = np.where(
                fch + extra > budget,
                np.maximum(budget - extra, 0.0) / np.maximum(fch, 1e-300),
                1.0,
            )
            new_totals = base_extra + scale * fch
            delta = (np.abs(new_totals - totals) / np.maximum(new_totals, 1e-300)).max()
            totals = new_totals
            if delta < self.tolerance:
                break

        # The allocation of the last iteration, and the Eb/Io it achieves
        # against the final cell powers.
        row_alloc *= scale[np.newaxis, :]
        interference = interference_gains @ totals + self.mobile_noise_power_w
        received_fch = (row_alloc * row_gains).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            row_achieved = (
                (self.processing_gain / row_rate)
                * received_fch
                / np.maximum(interference, 1e-300)
            )
        alloc = np.zeros((num_mobiles, num_cells))
        alloc[rows] = row_alloc
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
            iterations=iterations_done,
            residual=float(delta),
            converged=bool(delta < self.tolerance),
        )
