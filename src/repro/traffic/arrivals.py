"""Batched renewal-arrival kernel of the data-traffic fleet."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["pull_renewal_arrivals_batch"]


def pull_renewal_arrivals_batch(
    next_arrival_s: np.ndarray,
    until_s: float,
    mean_interarrival_s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pop the due arrivals of a whole population of renewal processes.

    ``next_arrival_s`` holds each process's next absolute arrival time and is
    advanced **in place**: every due process (``next_arrival_s <= until_s``)
    emits its arrival and redraws an exponential inter-arrival gap, round by
    round, until no process is due any more.  The per-round gap draws are
    batched from the single ``rng`` stream, so one frame costs a handful of
    array ops regardless of the population size.

    Returns
    -------
    ``(process_indices, arrival_times_s)`` of all emitted arrivals, ordered
    by arrival time (ties broken by process index).  Both are empty arrays
    when nothing is due.
    """
    check_positive("mean_interarrival_s", mean_interarrival_s)
    emitted_idx = []
    emitted_t = []
    while True:
        due = np.flatnonzero(next_arrival_s <= until_s)
        if due.size == 0:
            break
        emitted_idx.append(due)
        emitted_t.append(next_arrival_s[due].copy())
        next_arrival_s[due] += rng.exponential(
            mean_interarrival_s, size=due.size
        )
    if not emitted_idx:
        return np.zeros(0, dtype=int), np.zeros(0)
    indices = np.concatenate(emitted_idx)
    times = np.concatenate(emitted_t)
    order = np.lexsort((indices, times))
    return indices[order], times[order]
