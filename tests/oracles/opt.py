"""Reference solvers for the scheduling integer program.

These are the scalar back-ends of :mod:`repro.opt` — the per-index greedy,
the scalar rounding repair, the row-loop simplex, the per-node
branch-and-bound and the per-point enumeration — kept verbatim as parity
oracles after the vectorized kernels became the only production path.  The
production solvers must return identical values (and, for
branch-and-bound, visit the same nodes).  Every oracle calls the other
oracles, never a production kernel, except for the SciPy LP back-end,
which both paths share.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

import numpy as np

from repro.opt import lp as _lp
from repro.opt.lp import LpSolution, SimplexIterationLimitError
from repro.opt.problem import BoundedIntegerProgram, IntegerSolution

__all__ = [
    "efficiency",
    "solve_greedy",
    "round_lp_solution",
    "solve_near_optimal",
    "simplex_lp",
    "solve_lp_relaxation",
    "solve_branch_and_bound",
    "solve_exhaustive",
]

_INTEGRALITY_TOL = 1e-6


def _is_integral(values: np.ndarray) -> bool:
    return bool(np.all(np.abs(values - np.round(values)) <= _INTEGRALITY_TOL))


# -- greedy and rounding ---------------------------------------------------------


def efficiency(problem: BoundedIntegerProgram, index: int) -> float:
    """Objective gain per unit of normalised resource consumption."""
    gain = problem.objective[index]
    if gain <= 0.0:
        return -np.inf
    column = problem.constraint_matrix[:, index]
    bounds = np.maximum(problem.constraint_bounds, 1e-300)
    # Normalised cost: the largest fraction of any single resource consumed
    # by one unit of this variable.
    cost = float(np.max(column / bounds)) if column.size else 0.0
    if cost <= 0.0:
        return np.inf
    return gain / cost


def solve_greedy(problem: BoundedIntegerProgram) -> IntegerSolution:
    """The original per-index implementation (parity oracle)."""
    n = problem.num_variables
    values = np.zeros(n, dtype=float)
    order = sorted(range(n), key=lambda j: -efficiency(problem, j))
    for j in order:
        if problem.objective[j] <= 0.0:
            continue
        room = problem.max_increment(values, j)
        if room > 0:
            values[j] += room
    return IntegerSolution(
        values=values.astype(int),
        objective=problem.objective_value(values),
        optimal=False,
        nodes_explored=0,
    )


def round_lp_solution(
    problem: BoundedIntegerProgram, lp_values: np.ndarray
) -> IntegerSolution:
    """Round an LP point down, then repair upwards one index at a time."""
    lp_values = np.asarray(lp_values, dtype=float).ravel()
    if lp_values.shape != (problem.num_variables,):
        raise ValueError("lp_values has the wrong length")
    values = np.floor(np.clip(lp_values, 0.0, problem.upper_bounds) + 1e-9)
    if not problem.is_feasible(values):  # degenerate numerical case
        values = np.zeros_like(values)
    fractions = lp_values - np.floor(lp_values)
    order = np.argsort(-fractions)
    for j in order:
        if problem.objective[j] <= 0.0:
            continue
        room = problem.max_increment(values, int(j))
        if room > 0:
            values[int(j)] += room
    return IntegerSolution(
        values=values.astype(int),
        objective=problem.objective_value(values),
        optimal=False,
        nodes_explored=0,
    )


def solve_near_optimal(problem: BoundedIntegerProgram) -> IntegerSolution:
    """Best of the scalar greedy and the rounded scalar-simplex LP."""
    greedy = solve_greedy(problem)
    if problem.num_variables == 0:
        return greedy
    try:
        lp = solve_lp_relaxation(problem, use_scipy=False)
    except SimplexIterationLimitError:
        return greedy
    if lp.status != "optimal":  # pragma: no cover - box relaxation is always feasible
        return greedy
    rounded = round_lp_solution(problem, lp.values)
    best = rounded if rounded.objective >= greedy.objective else greedy
    return IntegerSolution(
        values=best.values,
        objective=best.objective,
        optimal=False,
        nodes_explored=0,
    )


# -- LP relaxation ---------------------------------------------------------------


def solve_lp_relaxation(
    problem: BoundedIntegerProgram,
    lower_bounds: Optional[np.ndarray] = None,
    upper_bounds: Optional[np.ndarray] = None,
    use_scipy: bool = True,
) -> LpSolution:
    """:func:`repro.opt.lp.solve_lp_relaxation` on the row-loop simplex.

    The SciPy back-end is shared with the production path.
    """
    if use_scipy:
        return _lp.solve_lp_relaxation(
            problem, lower_bounds, upper_bounds, use_scipy=True
        )
    lo = (
        np.zeros(problem.num_variables)
        if lower_bounds is None
        else np.asarray(lower_bounds, dtype=float)
    )
    hi = (
        problem.upper_bounds.astype(float)
        if upper_bounds is None
        else np.asarray(upper_bounds, dtype=float)
    )
    if np.any(lo > hi + 1e-12):
        return LpSolution(values=lo, objective=-np.inf, status="infeasible")
    return simplex_lp(problem, lo, hi)


def simplex_lp(
    problem: BoundedIntegerProgram,
    lower_bounds: np.ndarray,
    upper_bounds: np.ndarray,
    max_iterations: Optional[int] = None,
) -> LpSolution:
    """:func:`repro.opt.lp.simplex_lp` on the row-loop simplex."""
    lo = np.asarray(lower_bounds, dtype=float)
    hi = np.asarray(upper_bounds, dtype=float)
    b = problem.constraint_bounds - problem.constraint_matrix @ lo
    if np.any(b < -1e-9):
        return LpSolution(values=lo, objective=-np.inf, status="infeasible")
    return _simplex_scalar(problem, lo, hi, b, max_iterations)


def _simplex_scalar(
    problem: BoundedIntegerProgram,
    lo: np.ndarray,
    hi: np.ndarray,
    b: np.ndarray,
    max_iterations: Optional[int] = None,
) -> LpSolution:
    """The original row-loop implementation (parity oracle)."""
    c = problem.objective
    a = problem.constraint_matrix
    b = np.maximum(b, 0.0)
    box = hi - lo

    n = problem.num_variables
    # Constraint rows: resource constraints plus upper-bound rows.
    a_full = np.vstack([a, np.eye(n)])
    b_full = np.concatenate([b, box])
    m = a_full.shape[0]

    # Simplex tableau with slack variables (standard form, origin feasible).
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a_full
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_full
    tableau[-1, :n] = -c  # maximise c'x  <=>  minimise -c'x
    basis = list(range(n, n + m))

    budget = 200 * (n + m) if max_iterations is None else max_iterations
    for _ in range(budget):
        reduced = tableau[-1, :-1]
        pivot_col = int(np.argmin(reduced))
        if reduced[pivot_col] >= -1e-10:
            break  # optimal
        column = tableau[:m, pivot_col]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(column > 1e-12, tableau[:m, -1] / column, np.inf)
        pivot_row = int(np.argmin(ratios))
        if not np.isfinite(ratios[pivot_row]):
            break  # unbounded cannot happen with the explicit box; be safe
        pivot = tableau[pivot_row, pivot_col]
        tableau[pivot_row, :] /= pivot
        for row in range(m + 1):
            if row != pivot_row and abs(tableau[row, pivot_col]) > 1e-14:
                tableau[row, :] -= tableau[row, pivot_col] * tableau[pivot_row, :]
        basis[pivot_row] = pivot_col
    else:
        raise SimplexIterationLimitError(
            f"simplex exhausted its {budget}-pivot budget without certifying "
            f"optimality (n={n}, m={m})"
        )

    x_shifted = np.zeros(n + m)
    for row, var in enumerate(basis):
        x_shifted[var] = tableau[row, -1]
    values = lo + x_shifted[:n]
    return LpSolution(
        values=values, objective=float(problem.objective @ values), status="optimal"
    )


# -- branch-and-bound ------------------------------------------------------------


def solve_branch_and_bound(
    problem: BoundedIntegerProgram,
    max_nodes: int = 20_000,
    gap_tolerance: float = 0.0,
    use_scipy_lp: bool = False,
) -> IntegerSolution:
    """:func:`repro.opt.branch_and_bound.solve_branch_and_bound`, per node."""
    if gap_tolerance < 0.0:
        raise ValueError("gap_tolerance must be non-negative")
    n = problem.num_variables
    if n == 0:
        return IntegerSolution(values=np.zeros(0, dtype=int), objective=0.0, optimal=True)
    return _solve_scalar(problem, max_nodes, gap_tolerance, use_scipy_lp)


def _solve_scalar(
    problem: BoundedIntegerProgram,
    max_nodes: int,
    gap_tolerance: float,
    use_scipy_lp: bool,
) -> IntegerSolution:
    """The original per-node implementation (parity oracle)."""
    n = problem.num_variables

    # Incumbents: greedy and rounded LP.  Both are always feasible.
    incumbent = solve_greedy(problem)
    best_values = incumbent.values.astype(float)
    best_objective = incumbent.objective

    root_lo = np.zeros(n)
    root_hi = problem.upper_bounds.astype(float)
    root_lp = solve_lp_relaxation(problem, root_lo, root_hi, use_scipy=use_scipy_lp)
    if root_lp.status == "infeasible":  # cannot happen with a valid problem box
        return IntegerSolution(
            values=np.zeros(n, dtype=int), objective=0.0, optimal=True
        )
    rounded = round_lp_solution(problem, root_lp.values)
    if rounded.objective > best_objective:
        best_objective = rounded.objective
        best_values = rounded.values.astype(float)

    def accept(bound: float) -> bool:
        """Should a node with this bound still be explored?"""
        threshold = best_objective * (1.0 + gap_tolerance) if best_objective > 0 else (
            best_objective + gap_tolerance
        )
        return bound > threshold + 1e-12

    counter = itertools.count()
    heap = [(-root_lp.objective, next(counter), root_lo, root_hi, root_lp)]
    nodes = 0
    exhausted = False

    while heap:
        neg_bound, _, lo, hi, lp = heapq.heappop(heap)
        bound = -neg_bound
        if not accept(bound):
            continue
        nodes += 1
        if nodes > max_nodes:
            exhausted = True
            break

        values = np.clip(lp.values, lo, hi)
        if _is_integral(values):
            candidate = np.round(values)
            if problem.is_feasible(candidate) and (
                problem.objective_value(candidate) > best_objective + 1e-12
            ):
                best_objective = problem.objective_value(candidate)
                best_values = candidate
            continue

        # Cheap incumbent update from the fractional point.
        repaired = round_lp_solution(problem, values)
        if repaired.objective > best_objective + 1e-12:
            best_objective = repaired.objective
            best_values = repaired.values.astype(float)

        # Branch on the most fractional variable.
        fractional = np.abs(values - np.round(values))
        branch_var = int(np.argmax(fractional))
        floor_val = math.floor(values[branch_var] + _INTEGRALITY_TOL)

        # Down branch: x_branch <= floor.
        hi_down = hi.copy()
        hi_down[branch_var] = float(floor_val)
        if hi_down[branch_var] >= lo[branch_var] - 1e-12:
            lp_down = solve_lp_relaxation(problem, lo, hi_down, use_scipy=use_scipy_lp)
            if lp_down.status == "optimal" and accept(lp_down.objective):
                heapq.heappush(
                    heap, (-lp_down.objective, next(counter), lo, hi_down, lp_down)
                )

        # Up branch: x_branch >= floor + 1.
        lo_up = lo.copy()
        lo_up[branch_var] = float(floor_val + 1)
        if lo_up[branch_var] <= hi[branch_var] + 1e-12:
            lp_up = solve_lp_relaxation(problem, lo_up, hi, use_scipy=use_scipy_lp)
            if lp_up.status == "optimal" and accept(lp_up.objective):
                heapq.heappush(
                    heap, (-lp_up.objective, next(counter), lo_up, hi, lp_up)
                )

    proven_optimal = (not exhausted) and gap_tolerance == 0.0
    return IntegerSolution(
        values=np.round(best_values).astype(int),
        objective=float(best_objective),
        optimal=proven_optimal,
        nodes_explored=nodes,
    )


# -- exhaustive enumeration ------------------------------------------------------


def solve_exhaustive(problem: BoundedIntegerProgram) -> IntegerSolution:
    """The original per-point loop (parity oracle).

    Unlike :func:`repro.opt.exhaustive.solve_exhaustive` it does not refuse
    large boxes; callers keep the inputs small.
    """
    ranges = [range(int(u) + 1) for u in problem.upper_bounds]
    best_values = np.zeros(problem.num_variables, dtype=int)
    best_objective = problem.objective_value(best_values)
    explored = 0
    for candidate in itertools.product(*ranges):
        explored += 1
        values = np.asarray(candidate, dtype=float)
        if not problem.is_feasible(values):
            continue
        objective = problem.objective_value(values)
        if objective > best_objective + 1e-12:
            best_objective = objective
            best_values = np.asarray(candidate, dtype=int)
    return IntegerSolution(
        values=best_values,
        objective=best_objective,
        optimal=True,
        nodes_explored=explored,
    )
