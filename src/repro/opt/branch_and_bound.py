"""Branch-and-bound solver for the bounded integer program.

This is the optimal engine behind the JABA-SD scheduler.  Standard best-bound
branch-and-bound on the variable box:

* the LP relaxation (with the branching bounds applied) yields an upper
  bound for each node — solved with the package's own dense simplex by
  default, which is faster than calling out to SciPy for the tiny problems
  produced by burst scheduling;
* the incumbent is seeded with the greedy heuristic and the rounded LP
  optimum;
* nodes whose bound does not beat the incumbent (by more than the optional
  relative ``gap_tolerance``) are pruned;
* branching splits on the most fractional variable of the node's LP optimum.

The number of concurrent burst requests per decision (``Nd``) is modest, but
a node budget still protects the dynamic simulation against pathological
instances; when it is exhausted the best incumbent is returned with
``optimal=False``.

The back-end is vectorized: node relaxations use the batched simplex with a
shared :class:`~repro.opt.lp.SimplexScratch`, both child bounds of a
branching level are evaluated in one :func:`~repro.opt.lp.solve_children_lp`
sweep, and the incumbent repairs use the vectorized rounding kernels.  It
visits the same nodes in the same order as the per-node scalar
implementation kept as a parity oracle in ``tests/oracles/opt.py`` and
returns identical solutions: the kernels evaluate the same floating-point
expressions, and children are pushed in the oracle's (down, up) tie-break
order.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.opt.greedy import round_lp_solution, solve_greedy
from repro.opt.lp import SimplexScratch, solve_children_lp, solve_lp_relaxation
from repro.opt.problem import BoundedIntegerProgram, IntegerSolution

__all__ = ["solve_branch_and_bound"]

_INTEGRALITY_TOL = 1e-6


def _is_integral(values: np.ndarray) -> bool:
    return bool(np.all(np.abs(values - np.round(values)) <= _INTEGRALITY_TOL))


def solve_branch_and_bound(
    problem: BoundedIntegerProgram,
    max_nodes: int = 20_000,
    gap_tolerance: float = 0.0,
    use_scipy_lp: bool = False,
) -> IntegerSolution:
    """Solve ``problem`` by LP-based branch-and-bound.

    Parameters
    ----------
    problem:
        The bounded integer program.
    max_nodes:
        Node budget; when exhausted the best incumbent found so far is
        returned with ``optimal=False``.
    gap_tolerance:
        Relative optimality gap at which the search stops early.  ``0`` means
        prove optimality exactly; ``0.01`` accepts a solution within 1 % of
        the best remaining bound (still flagged ``optimal=False`` unless the
        gap closed completely).
    use_scipy_lp:
        Use SciPy's HiGHS for the node relaxations instead of the built-in
        dense simplex (the built-in solver is faster on these small
        instances).
    """
    if gap_tolerance < 0.0:
        raise ValueError("gap_tolerance must be non-negative")
    n = problem.num_variables
    if n == 0:
        return IntegerSolution(values=np.zeros(0, dtype=int), objective=0.0, optimal=True)
    scratch = SimplexScratch()

    # Incumbents: greedy and rounded LP.  Both are always feasible.
    incumbent = solve_greedy(problem)
    best_values = incumbent.values.astype(float)
    best_objective = incumbent.objective

    root_lo = np.zeros(n)
    root_hi = problem.upper_bounds.astype(float)
    root_lp = solve_lp_relaxation(
        problem, root_lo, root_hi, use_scipy=use_scipy_lp, scratch=scratch
    )
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

        hi_down = hi.copy()
        hi_down[branch_var] = float(floor_val)
        lo_up = lo.copy()
        lo_up[branch_var] = float(floor_val + 1)

        # Both child bounds of this branching level in one LP sweep over the
        # shared scratch template (children pushed in the oracle's order).
        if use_scipy_lp:
            children = [
                solve_lp_relaxation(problem, c_lo, c_hi, use_scipy=True, scratch=scratch)
                if not np.any(c_lo > c_hi + 1e-12)
                else None
                for c_lo, c_hi in ((lo, hi_down), (lo_up, hi))
            ]
        else:
            children = solve_children_lp(
                problem, ((lo, hi_down), (lo_up, hi)), scratch=scratch
            )
        for child_lp, c_lo, c_hi in zip(children, (lo, lo_up), (hi_down, hi)):
            if child_lp is None or child_lp.status != "optimal":
                continue
            if accept(child_lp.objective):
                heapq.heappush(
                    heap, (-child_lp.objective, next(counter), c_lo, c_hi, child_lp)
                )

    proven_optimal = (not exhausted) and gap_tolerance == 0.0
    return IntegerSolution(
        values=np.round(best_values).astype(int),
        objective=float(best_objective),
        optimal=proven_optimal,
        nodes_explored=nodes,
    )
