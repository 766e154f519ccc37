"""Reference power-control solves: Yates sweeps over all ``J`` rows.

These are the solvers' ``solve`` bodies from before they gathered the active
rows, kept as parity oracles for the exact piecewise-linear solves that
replaced the sweeps.  The sweeps only approach the fixed point, so the
oracles take their sweep cap and stopping tolerance as arguments and report
how far they got in a :class:`YatesResult`.  Run to ``tolerance=1e-13``
with a cap high enough to reach it, they match the production solves to
``rtol=1e-9``.  ``start_total_power_w`` replaces the cold start (noise floor
on the reverse link, common-channel plus committed power on the forward
link); with ``iterations=1`` it applies the map once to a given point.
``forward_solve`` scales a saturated cell's FCH allocations into the room its
committed SCH power leaves, as the production solver does.  Call them with a
controller instance as the first argument:
``reverse_solve(pc, gains, serving, active, noise, tolerance=1e-13)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["YatesResult", "reverse_solve", "forward_solve"]

#: Sweep cap of the reference solves: far above the ~100 sweeps the slowest
#: captured solve (J≈2e4 on 19 cells, past pole capacity) needs for 1e-13.
REFERENCE_ITERATIONS = 100_000


@dataclass
class YatesResult:
    """A :class:`~repro.cdma.powercontrol.PowerControlResult` of the sweeps.

    ``iterations`` counts sweeps, ``residual`` is the last sweep's largest
    relative change of a per-cell total and ``converged`` is ``residual <
    tolerance``.
    """

    tx_power_w: np.ndarray
    total_power_w: np.ndarray
    achieved_sir: np.ndarray
    power_limited: np.ndarray
    iterations: int
    residual: float
    converged: bool


def reverse_solve(
    pc,
    gains: np.ndarray,
    serving_cells: np.ndarray,
    active: np.ndarray,
    noise_power_w: np.ndarray,
    extra_received_power_w: Optional[np.ndarray] = None,
    rate_factor: Optional[np.ndarray] = None,
    *,
    tolerance: float,
    iterations: int = REFERENCE_ITERATIONS,
    start_total_power_w: Optional[np.ndarray] = None,
) -> YatesResult:
    """The solve before the row gather."""
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

    q = pc.ebio_target * rate / pc.processing_gain
    own_gain = gains[np.arange(num_mobiles), serving]
    tx = np.zeros(num_mobiles, dtype=float)
    totals = noise + extra if start_total_power_w is None else start_total_power_w
    iterations_done = 0
    overhead = 1.0 + pc.pilot_overhead
    # Loop invariants.
    q_fraction = q / (1.0 + q)
    connectable = active & (own_gain > 0.0)
    own_gain_safe = np.maximum(own_gain, 1e-300)
    tx_cap = pc.max_tx_power_w / overhead
    noise_extra = noise + extra
    received = np.empty_like(gains)

    for iteration in range(iterations):
        iterations_done = iteration + 1
        # Received FCH power needed at the serving cell so that
        # (pg / rate) * S / (L - S) = target  =>  S = (q / (1 + q)) * L.
        required_rx = q_fraction * totals[serving]
        new_tx = np.where(connectable, required_rx / own_gain_safe, 0.0)
        # Power limit applies to FCH plus pilot overhead.
        new_tx = np.minimum(new_tx, tx_cap)
        np.multiply(gains, (new_tx * overhead)[:, np.newaxis], out=received)
        new_totals = noise_extra + received.sum(axis=0)
        delta = (np.abs(new_totals - totals) / np.maximum(new_totals, 1e-300)).max()
        tx, totals = new_tx, new_totals
        if delta < tolerance:
            break

    received = tx * own_gain
    interference = totals[serving] - received
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = np.where(
            active & (interference > 0.0),
            (pc.processing_gain / rate)
            * received
            / np.maximum(interference, 1e-300),
            np.nan,
        )
    limited = active & (tx >= pc.max_tx_power_w / overhead - 1e-12) & (
        achieved < pc.ebio_target * (1.0 - 1e-6)
    )
    return YatesResult(
        tx_power_w=tx,
        total_power_w=totals,
        achieved_sir=achieved,
        power_limited=limited,
        iterations=iterations_done,
        residual=float(delta),
        converged=bool(delta < tolerance),
    )


def forward_solve(
    pc,
    gains: np.ndarray,
    active_set: np.ndarray,
    active: np.ndarray,
    base_power_w: np.ndarray,
    max_traffic_power_w: np.ndarray,
    extra_traffic_power_w: Optional[np.ndarray] = None,
    max_link_power_w: Optional[float] = None,
    rate_factor: Optional[np.ndarray] = None,
    *,
    tolerance: float,
    iterations: int = REFERENCE_ITERATIONS,
    start_total_power_w: Optional[np.ndarray] = None,
) -> YatesResult:
    """The solve before the row gather."""
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

    legs = active_set.sum(axis=1)
    legs = np.maximum(legs, 1)
    alloc = np.zeros((num_mobiles, num_cells), dtype=float)
    totals = base + extra if start_total_power_w is None else start_total_power_w
    serving = np.argmax(np.where(active_set, gains, -np.inf), axis=1)
    iterations_done = 0
    q = pc.ebio_target * rate / pc.processing_gain
    # Loop invariants and reused iteration buffers.
    rows = np.arange(num_mobiles)
    allocatable = active_set & active[:, np.newaxis] & (gains > 0.0)
    gains_safe = np.maximum(gains, 1e-300)
    own_fraction = 1.0 - pc.orthogonality_factor
    base_extra = base + extra
    received_all = np.empty_like(gains)

    with np.errstate(divide="ignore"):
        for iteration in range(iterations):
            iterations_done = iteration + 1
            # Interference seen by each mobile: other-cell power fully,
            # own (strongest-leg) cell scaled by the orthogonality factor.
            np.multiply(gains, totals[np.newaxis, :], out=received_all)
            own = received_all[rows, serving]
            interference = (
                received_all.sum(axis=1)
                - own_fraction * own
                + pc.mobile_noise_power_w
            )
            required_rx = q * interference  # total received FCH power needed
            per_leg_rx = required_rx / legs
            new_alloc = np.where(
                allocatable, per_leg_rx[:, np.newaxis] / gains_safe, 0.0
            )
            if max_link_power_w is not None:
                np.minimum(new_alloc, max_link_power_w, out=new_alloc)
            fch = new_alloc.sum(axis=0)
            # If a cell exceeds its budget, scale its FCH allocations down
            # proportionally into the room its committed SCH power leaves
            # (the overloaded users will show as power limited).
            scale = np.where(
                fch + extra > budget,
                np.maximum(budget - extra, 0.0) / np.maximum(fch, 1e-300),
                1.0,
            )
            new_alloc *= scale[np.newaxis, :]
            new_totals = base_extra + new_alloc.sum(axis=0)
            delta = (
                np.abs(new_totals - totals) / np.maximum(new_totals, 1e-300)
            ).max()
            alloc, totals = new_alloc, new_totals
            if delta < tolerance:
                break

    # Achieved Eb/Io with the final allocation.
    received_all = gains * totals[np.newaxis, :]
    own = received_all[rows, serving]
    interference = (
        received_all.sum(axis=1)
        - (1.0 - pc.orthogonality_factor) * own
        + pc.mobile_noise_power_w
    )
    received_fch = (alloc * gains).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = np.where(
            active,
            (pc.processing_gain / rate)
            * received_fch
            / np.maximum(interference, 1e-300),
            np.nan,
        )
    # Outage definition: more than ~1.25 dB below the Eb/Io target.  Small
    # shortfalls caused by the proportional scaling of a momentarily
    # saturated cell are absorbed by the link margin and interleaving and
    # are not counted as coverage loss.
    limited = active & (achieved < 0.75 * pc.ebio_target)
    return YatesResult(
        tx_power_w=alloc,
        total_power_w=totals,
        achieved_sir=achieved,
        power_limited=limited,
        iterations=iterations_done,
        residual=float(delta),
        converged=bool(delta < tolerance),
    )
