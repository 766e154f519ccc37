"""LP relaxation of the bounded integer program.

The branch-and-bound solver needs upper bounds from the continuous (LP)
relaxation of sub-problems.  The default implementation wraps
``scipy.optimize.linprog`` (HiGHS); a small, self-contained dense
revised-simplex implementation is provided as a fallback so the package keeps
working if SciPy's LP backend is unavailable, and as an independent
cross-check in the tests.

The built-in simplex is the hot path of branch-and-bound.  The pivot
elimination is a single rank-1 matrix update instead of a Python loop over
tableau rows, the basic-solution extraction is one fancy-indexed gather, and
the tableau is carved out of a reusable :class:`SimplexScratch` buffer whose
constant block (constraint rows, slack identity, objective row) is assembled
once per problem and copied per node instead of rebuilt with
``vstack``/``eye`` allocations.  It performs the same floating-point
operations in the same order as the row-loop simplex kept as a parity oracle
in ``tests/oracles/opt.py``, and returns identical solutions.
:func:`solve_children_lp` evaluates all child relaxations of one
branch-and-bound level in one sweep over the shared scratch template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.opt.problem import BoundedIntegerProgram

__all__ = [
    "LpSolution",
    "SimplexIterationLimitError",
    "SimplexScratch",
    "solve_lp_relaxation",
    "solve_children_lp",
    "simplex_lp",
]


class SimplexIterationLimitError(RuntimeError):
    """The simplex pivot budget ran out before optimality was certified.

    The simplex bounds its pivot loop at ``200 * (n + m)`` iterations
    (a degenerate-cycling guard far above the typical pivot count for these
    box-constrained relaxations).  Exhausting the budget means the tableau's
    final basic solution is feasible but *not certified optimal*, so instead
    of silently returning it the solver raises this error.  Callers that can
    degrade gracefully — the JABA-SD scheduler's near-optimal mode — catch it
    and fall back to the greedy solution, which is always feasible.
    """


@dataclass(frozen=True)
class LpSolution:
    """Solution of an LP relaxation.

    Attributes
    ----------
    values:
        Optimal (continuous) variable values.
    objective:
        Optimal objective value.
    status:
        ``"optimal"`` or ``"infeasible"`` (the relaxations solved here are
        always bounded because the variables live in a box).
    """

    values: np.ndarray
    objective: float
    status: str


class SimplexScratch:
    """Reusable buffers for the dense simplex.

    One instance serves every node relaxation of a branch-and-bound run: the
    constant tableau block of a problem (constraint rows, upper-bound rows,
    slack identity and reduced-cost row) is assembled once and copied into a
    working buffer per solve, so the per-node cost is a single ``O(size)``
    copy instead of ``zeros`` + ``vstack`` + ``eye`` allocations.
    """

    def __init__(self) -> None:
        self._template: Optional[np.ndarray] = None
        self._tableau: Optional[np.ndarray] = None
        self._problem: Optional[BoundedIntegerProgram] = None

    def tableau_for(self, problem: BoundedIntegerProgram) -> np.ndarray:
        """A working tableau pre-filled with the problem's constant block."""
        n = problem.num_variables
        m = problem.num_constraints + n
        if self._problem is not problem:
            template = np.zeros((m + 1, n + m + 1))
            template[: problem.num_constraints, :n] = problem.constraint_matrix
            template[problem.num_constraints : m, :n] = np.eye(n)
            template[:m, n : n + m] = np.eye(m)
            template[-1, :n] = -problem.objective
            self._template = template
            self._tableau = np.empty_like(template)
            self._problem = problem
        np.copyto(self._tableau, self._template)
        return self._tableau


def solve_lp_relaxation(
    problem: BoundedIntegerProgram,
    lower_bounds: Optional[np.ndarray] = None,
    upper_bounds: Optional[np.ndarray] = None,
    use_scipy: bool = True,
    scratch: Optional[SimplexScratch] = None,
) -> LpSolution:
    """Solve the continuous relaxation of ``problem``.

    ``lower_bounds`` / ``upper_bounds`` override the box (used by
    branch-and-bound to impose branching decisions); ``scratch`` optionally
    reuses tableau buffers across repeated solves.
    """
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

    if use_scipy:
        try:
            from scipy.optimize import linprog

            result = linprog(
                c=-problem.objective,
                A_ub=problem.constraint_matrix,
                b_ub=problem.constraint_bounds,
                bounds=list(zip(lo, hi)),
                method="highs",
            )
            if result.status == 2:  # infeasible
                return LpSolution(values=lo, objective=-np.inf, status="infeasible")
            if result.success:
                return LpSolution(
                    values=np.asarray(result.x, dtype=float),
                    objective=float(-result.fun),
                    status="optimal",
                )
        except Exception:  # pragma: no cover - fall back to the simplex below
            pass
    return simplex_lp(problem, lo, hi, scratch=scratch)


def solve_children_lp(
    problem: BoundedIntegerProgram,
    boxes: Sequence[Tuple[np.ndarray, np.ndarray]],
    scratch: Optional[SimplexScratch] = None,
) -> List[LpSolution]:
    """Solve the relaxations of all children of one branching level.

    One sweep over the shared scratch template: the constant tableau block is
    assembled once, each child only rewrites the right-hand-side column and
    runs the vectorized pivot loop.  Children whose branching bounds cross
    (``lo > hi``) are reported infeasible without touching the tableau.
    """
    scratch = scratch if scratch is not None else SimplexScratch()
    solutions: List[LpSolution] = []
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi + 1e-12):
            solutions.append(LpSolution(values=lo, objective=-np.inf, status="infeasible"))
            continue
        solutions.append(simplex_lp(problem, lo, hi, scratch=scratch))
    return solutions


def simplex_lp(
    problem: BoundedIntegerProgram,
    lower_bounds: np.ndarray,
    upper_bounds: np.ndarray,
    scratch: Optional[SimplexScratch] = None,
    max_iterations: Optional[int] = None,
) -> LpSolution:
    """Dense Dantzig-rule simplex on the slack-form relaxation.

    The variable box is handled by shifting to ``x' = x - lo`` and adding the
    explicit upper-bound rows ``x' <= hi - lo``; the resulting standard-form
    problem ``max c'x', A'x' <= b', x' >= 0`` always has the origin as a basic
    feasible starting point when ``b' >= 0``, which holds whenever the fixed
    lower bounds are themselves feasible.  If they are not, the sub-problem is
    reported infeasible (which is exactly what branch-and-bound needs).

    ``max_iterations`` overrides the default ``200 * (n + m)`` pivot budget;
    exhausting the budget raises :class:`SimplexIterationLimitError` rather
    than returning an uncertified solution.

    The eliminations of one pivot are a rank-1 update over the whole tableau
    with the row-loop oracle's small-coefficient skip (factors below its
    1e-14 threshold are zeroed, making their row update an exact no-op), so
    every intermediate tableau equals the oracle's.
    """
    lo = np.asarray(lower_bounds, dtype=float)
    hi = np.asarray(upper_bounds, dtype=float)
    b = problem.constraint_bounds - problem.constraint_matrix @ lo
    if np.any(b < -1e-9):
        return LpSolution(values=lo, objective=-np.inf, status="infeasible")
    scratch = scratch if scratch is not None else SimplexScratch()
    n = problem.num_variables
    m = problem.num_constraints + n

    tableau = scratch.tableau_for(problem)
    tableau[: problem.num_constraints, -1] = np.maximum(b, 0.0)
    tableau[problem.num_constraints : m, -1] = hi - lo
    basis = np.arange(n, n + m)

    rows = tableau[:m]
    rhs = tableau[:m, -1]
    reduced = tableau[-1, :-1]
    ratios = np.empty(m)
    mask = np.empty(m, dtype=bool)
    abs_factors = np.empty(m + 1)
    budget = 200 * (n + m) if max_iterations is None else max_iterations
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(budget):
            pivot_col = int(reduced.argmin())
            if reduced[pivot_col] >= -1e-10:
                break  # optimal
            column = rows[:, pivot_col]
            # Same floats as the oracle's ``where(column > eps, rhs/column,
            # inf)`` select, without allocating fresh buffers per pivot.
            np.greater(column, 1e-12, out=mask)
            ratios.fill(np.inf)
            np.divide(rhs, column, out=ratios, where=mask)
            pivot_row = int(ratios.argmin())
            if not np.isfinite(ratios[pivot_row]):
                break  # unbounded cannot happen with the explicit box; be safe
            pivot = tableau[pivot_row, pivot_col]
            pivot_vals = tableau[pivot_row, :]
            pivot_vals /= pivot
            # Eliminate only the rows the oracle touches (|factor| > 1e-14);
            # the simplex tableau stays sparse in the pivot column, so this
            # sub-matrix rank-1 update is far cheaper than a dense one.
            np.abs(tableau[:, pivot_col], out=abs_factors)
            abs_factors[pivot_row] = 0.0
            update = np.nonzero(abs_factors > 1e-14)[0]
            if update.size:
                tableau[update] -= tableau[update, pivot_col, None] * pivot_vals[None, :]
            basis[pivot_row] = pivot_col
        else:
            raise SimplexIterationLimitError(
                f"simplex exhausted its {budget}-pivot budget without "
                f"certifying optimality (n={n}, m={m})"
            )

    x_shifted = np.zeros(n + m)
    x_shifted[basis] = rhs
    values = lo + x_shifted[:n]
    return LpSolution(
        values=values, objective=float(problem.objective @ values), status="optimal"
    )
