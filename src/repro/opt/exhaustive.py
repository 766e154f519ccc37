"""Exhaustive enumeration of small bounded integer programs.

Used as ground truth in the solver tests and, at run time, for very small
scheduling instances where enumeration is cheaper than branch-and-bound
bookkeeping.

The integer box is enumerated in vectorized chunks: candidate blocks come
from ``np.unravel_index`` over a flat point range (the same lexicographic
order as ``itertools.product``), feasibility is one matrix product per block,
and the first-strict-improver selection rule of the per-point loop kept as a
parity oracle in ``tests/oracles/opt.py`` is replayed inside each block.
"""

from __future__ import annotations

import numpy as np

from repro.opt.problem import BoundedIntegerProgram, IntegerSolution

__all__ = ["solve_exhaustive"]

#: Refuse to enumerate spaces larger than this (protects against accidents).
MAX_ENUMERATION_POINTS = 2_000_000

#: Candidate points evaluated per vectorized block.
_CHUNK = 65_536


def solve_exhaustive(problem: BoundedIntegerProgram) -> IntegerSolution:
    """Enumerate every feasible integer point and return the best one.

    Raises
    ------
    ValueError
        If the integer box contains more than :data:`MAX_ENUMERATION_POINTS`
        points.
    """
    if problem.search_space_size() > MAX_ENUMERATION_POINTS:
        raise ValueError(
            "search space too large for exhaustive enumeration "
            f"({problem.search_space_size():.3g} points)"
        )
    if not problem.num_variables:
        # The empty box holds one point, the empty assignment, which the
        # chunked enumeration below cannot represent.
        return IntegerSolution(
            values=np.zeros(0, dtype=int),
            objective=0.0,
            optimal=True,
            nodes_explored=1,
        )
    dims = problem.upper_bounds + 1
    total = int(np.prod(dims))
    matrix_t = problem.constraint_matrix.T
    # The oracle's feasibility threshold (is_feasible with its default
    # tolerance), evaluated once for all constraint rows.
    threshold = -1e-9 * np.maximum(1.0, problem.constraint_bounds)

    best_values = np.zeros(problem.num_variables, dtype=int)
    best_objective = problem.objective_value(best_values)
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total))
        candidates = np.stack(np.unravel_index(flat, dims), axis=1).astype(float)
        slack = problem.constraint_bounds - candidates @ matrix_t
        feasible = np.nonzero(np.all(slack >= threshold, axis=1))[0]
        if not feasible.size:
            continue
        objectives = candidates[feasible] @ problem.objective
        # Replay the oracle's strictly-improving scan in enumeration order.
        position = 0
        while position < objectives.size:
            better = np.nonzero(objectives[position:] > best_objective + 1e-12)[0]
            if not better.size:
                break
            position += int(better[0])
            best_objective = float(objectives[position])
            best_values = candidates[feasible[position]].astype(int)
            position += 1
    return IntegerSolution(
        values=best_values,
        objective=best_objective,
        optimal=True,
        nodes_explored=total,
    )
