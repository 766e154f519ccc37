"""Greedy and rounding heuristics for the scheduling integer program.

:func:`solve_greedy` implements the fast JABA-SD variant: requests are ranked
by marginal efficiency (objective gain per unit of the most-loaded resource
they consume) and each is raised to the largest feasible integer level in
that order.  The result is always feasible and is used both as a stand-alone
scheduler (the "greedy" entry of experiment F6) and as the incumbent that
seeds the branch-and-bound solver.

Both entry points are vectorized: the efficiency ranking is one matrix
reduction instead of ``n`` per-index Python calls, and the sequential raise
loop only visits variables that can still move.  They return values
**identical** to the per-index scalar implementations kept as parity oracles
in ``tests/oracles/opt.py`` (the kernels evaluate the same floating-point
expressions in the same order).
"""

from __future__ import annotations

import numpy as np

from repro.opt.problem import BoundedIntegerProgram, IntegerSolution

__all__ = ["solve_greedy", "round_lp_solution", "solve_near_optimal"]


def _efficiencies(problem: BoundedIntegerProgram) -> np.ndarray:
    """Objective gain per unit of normalised resource consumption, per variable.

    The normalised cost of a variable is the largest fraction of any single
    resource consumed by one unit of it.  Identical floats to the per-index
    oracle.
    """
    gains = problem.objective
    if problem.num_constraints:
        bounds = np.maximum(problem.constraint_bounds, 1e-300)
        costs = np.max(problem.constraint_matrix / bounds[:, None], axis=0)
    else:
        costs = np.zeros(problem.num_variables)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = gains / costs
    return np.where(gains <= 0.0, -np.inf, np.where(costs <= 0.0, np.inf, ratios))


def _raise_greedily(
    problem: BoundedIntegerProgram, values: np.ndarray, order: np.ndarray
) -> None:
    """Raise each variable of ``order`` to its largest feasible level.

    The sequential dependence is real (each raise consumes slack the next
    decision must see), but the rooms of *all* variables are evaluated in
    one queue-wide
    :meth:`~repro.opt.problem.BoundedIntegerProgram.max_increments` ratio
    test, refreshed only when a raise actually changes the assignment.
    Between raises the cached rooms stay exact, and a cached room of 0 can
    never recover (slack only shrinks while the variable's own bound is
    untouched), so skipped variables match the oracle's 0-increment no-ops
    bit for bit.
    """
    rooms = None
    for j in order:
        if rooms is None:  # lazily refreshed: only when a raise staled it
            rooms = problem.max_increments(values)
        room = rooms[j]
        if room <= 0:
            continue
        values[j] += room
        rooms = None


def solve_greedy(problem: BoundedIntegerProgram) -> IntegerSolution:
    """Greedy marginal-efficiency heuristic (always feasible, not optimal).

    Ranks all variables with one matrix reduction and prunes dead variables
    from the raise loop.
    """
    n = problem.num_variables
    values = np.zeros(n, dtype=float)
    if n:
        # Stable argsort of the negated efficiencies == the oracle's stable
        # Python sort with key -efficiency (ties keep index order).
        efficiencies = _efficiencies(problem)
        order = np.argsort(-efficiencies, kind="stable")
        # The oracle skips non-positive objective entries inside its loop.
        order = order[problem.objective[order] > 0.0]
        _raise_greedily(problem, values, order)
    return IntegerSolution(
        values=values.astype(int),
        objective=problem.objective_value(values),
        optimal=False,
        nodes_explored=0,
    )


def solve_near_optimal(problem: BoundedIntegerProgram) -> IntegerSolution:
    """Best of the greedy heuristic and the rounded LP relaxation.

    This is the solver the dynamic simulations use for JABA-SD: on the burst
    scheduling instances it is empirically within a fraction of a percent of
    the exact optimum (experiment F6 quantifies the gap) at a small, bounded
    cost per frame — one LP plus two linear-time repair passes.

    If the simplex exhausts its pivot budget
    (:class:`~repro.opt.lp.SimplexIterationLimitError`) the LP leg is dropped
    and the greedy solution — always feasible — is returned on its own.
    """
    from repro.opt.lp import SimplexIterationLimitError, solve_lp_relaxation

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


def round_lp_solution(
    problem: BoundedIntegerProgram, lp_values: np.ndarray
) -> IntegerSolution:
    """Round an LP-relaxation point down, then greedily repair upwards.

    Flooring a feasible continuous point keeps it feasible (the constraint
    matrix is non-negative); the repair pass then re-invests any slack
    created by the rounding, visiting variables in decreasing fractional
    part, pruned with one queue-wide room evaluation.
    """
    lp_values = np.asarray(lp_values, dtype=float).ravel()
    if lp_values.shape != (problem.num_variables,):
        raise ValueError("lp_values has the wrong length")
    values = np.floor(np.clip(lp_values, 0.0, problem.upper_bounds) + 1e-9)
    if not problem.is_feasible(values):  # degenerate numerical case
        values = np.zeros_like(values)
    fractions = lp_values - np.floor(lp_values)
    order = np.argsort(-fractions)
    order = order[problem.objective[order] > 0.0]
    _raise_greedily(problem, values, order)
    return IntegerSolution(
        values=values.astype(int),
        objective=problem.objective_value(values),
        optimal=False,
        nodes_explored=0,
    )
