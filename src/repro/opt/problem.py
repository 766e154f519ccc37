"""Bounded integer linear program used by the scheduling sub-layer.

The canonical form is::

    maximise    c' m
    subject to  A m <= b        (resource / admissible-region constraints)
                0 <= m <= u     (per-variable integer bounds)
                m integer

with non-negative constraint coefficients ``A`` and right-hand sides ``b``
(resources can only be consumed), which is the structure produced by the
forward- and reverse-link admissible regions of the paper (eqs. (7) and
(17)) together with the burst-duration bound (24).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoundedIntegerProgram", "IntegerSolution"]


@dataclass(frozen=True)
class IntegerSolution:
    """Result of an integer-program solver.

    Attributes
    ----------
    values:
        Integer variable assignment ``m``.
    objective:
        Objective value ``c' m``.
    optimal:
        True when the solver proved optimality; heuristics set this to
        False.
    nodes_explored:
        Search nodes visited (branch-and-bound) or 0 for closed-form /
        heuristic solvers.
    """

    values: np.ndarray
    objective: float
    optimal: bool
    nodes_explored: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=int).copy()
        )


class BoundedIntegerProgram:
    """Container and validator for the bounded integer program.

    Parameters
    ----------
    objective:
        Coefficient vector ``c`` (length ``n``).
    constraint_matrix:
        Matrix ``A`` of shape ``(m, n)`` with non-negative entries.
    constraint_bounds:
        Right-hand side ``b`` of length ``m`` (non-negative).
    upper_bounds:
        Integer upper bounds ``u`` per variable (non-negative).
    """

    def __init__(
        self,
        objective: np.ndarray,
        constraint_matrix: np.ndarray,
        constraint_bounds: np.ndarray,
        upper_bounds: np.ndarray,
    ) -> None:
        c = np.asarray(objective, dtype=float).ravel()
        a = np.asarray(constraint_matrix, dtype=float)
        b = np.asarray(constraint_bounds, dtype=float).ravel()
        u = np.asarray(upper_bounds, dtype=float).ravel()

        if a.ndim != 2:
            raise ValueError("constraint_matrix must be 2-D")
        num_constraints, num_variables = a.shape
        if c.shape != (num_variables,):
            raise ValueError("objective length must match the number of variables")
        if b.shape != (num_constraints,):
            raise ValueError("constraint_bounds length must match the constraints")
        if u.shape != (num_variables,):
            raise ValueError("upper_bounds length must match the number of variables")
        if np.any(a < 0.0):
            raise ValueError("constraint_matrix entries must be non-negative")
        if np.any(u < 0.0):
            raise ValueError("upper_bounds must be non-negative")
        if np.any(~np.isfinite(c)) or np.any(~np.isfinite(a)) or np.any(~np.isfinite(b)):
            raise ValueError("problem data must be finite")

        self.objective = c
        self.constraint_matrix = a
        # Negative right-hand sides can only arise from measurement noise on
        # an already-overloaded cell; clamp to zero (nothing can be admitted).
        self.constraint_bounds = np.maximum(b, 0.0)
        self.upper_bounds = np.floor(u).astype(int)
        # Lazily-built caches shared by the vectorized solver kernels.
        self._positive_mask: np.ndarray | None = None
        self._safe_columns: np.ndarray | None = None

    # -- cached kernels shared by the vectorized solvers -------------------------
    @property
    def positive_mask(self) -> np.ndarray:
        """Boolean mask of strictly positive constraint coefficients."""
        if self._positive_mask is None:
            self._positive_mask = self.constraint_matrix > 0.0
        return self._positive_mask

    @property
    def safe_columns(self) -> np.ndarray:
        """Constraint matrix with non-positive entries replaced by 1.

        Matches the divisor ``np.where(column > 0, column, 1)`` of
        :meth:`max_increment`, so ratio tests over the full matrix produce the
        same floats as the per-column oracle.
        """
        if self._safe_columns is None:
            self._safe_columns = np.where(
                self.positive_mask, self.constraint_matrix, 1.0
            )
        return self._safe_columns

    # -- basic properties --------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        """Number of linear constraints."""
        return self.constraint_matrix.shape[0]

    # -- evaluation helpers --------------------------------------------------------
    def objective_value(self, values: np.ndarray) -> float:
        """Objective ``c' m`` of an assignment."""
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != (self.num_variables,):
            raise ValueError("assignment has the wrong length")
        return float(self.objective @ values)

    def is_feasible(self, values: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Check integrality-free feasibility of an assignment."""
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != (self.num_variables,):
            raise ValueError("assignment has the wrong length")
        if np.any(values < -tolerance):
            return False
        if np.any(values > self.upper_bounds + tolerance):
            return False
        slack = self.constraint_bounds - self.constraint_matrix @ values
        return bool(np.all(slack >= -tolerance * np.maximum(1.0, self.constraint_bounds)))

    def slack(self, values: np.ndarray) -> np.ndarray:
        """Remaining resource per constraint for an assignment."""
        values = np.asarray(values, dtype=float).ravel()
        return self.constraint_bounds - self.constraint_matrix @ values

    def max_increment(self, values: np.ndarray, index: int) -> int:
        """Largest integer increase of variable ``index`` keeping feasibility."""
        values = np.asarray(values, dtype=float).ravel()
        slack = self.slack(values)
        column = self.constraint_matrix[:, index]
        room_bound = self.upper_bounds[index] - values[index]
        if room_bound <= 0:
            return 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(column > 0.0, slack / np.where(column > 0.0, column, 1.0), np.inf)
        # ``initial=inf``: with no resource rows only the box limits the raise.
        room_resources = np.floor(np.min(ratios, initial=np.inf) + 1e-12)
        return int(max(0, min(room_bound, room_resources)))

    def max_increments(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`max_increment` for every variable at once.

        Element ``j`` equals ``max_increment(values, j)`` exactly (same
        division, reduction and rounding order), evaluated with one matrix
        ratio test instead of ``n`` per-column Python calls.  Because the
        constraint matrix is non-negative and ``values`` only ever grow
        during a greedy raise, an entry that reaches 0 stays 0 — callers use
        this to prune variables from sequential repair loops.
        """
        values = np.asarray(values, dtype=float).ravel()
        slack = self.constraint_bounds - self.constraint_matrix @ values
        if self.num_constraints:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    self.positive_mask, slack[:, None] / self.safe_columns, np.inf
                )
            room_resources = np.floor(ratios.min(axis=0) + 1e-12)
        else:  # no resource rows: only the variable box limits the raise
            room_resources = np.full(self.num_variables, np.inf)
        # min() with the finite box bound keeps the result finite even for
        # all-zero columns (whose resource room is +inf).
        room_bound = self.upper_bounds - values
        room = np.maximum(0.0, np.minimum(room_bound, room_resources))
        return room.astype(int)

    def search_space_size(self) -> float:
        """Number of points in the integer box (``prod(u_j + 1)``)."""
        return float(np.prod(self.upper_bounds.astype(float) + 1.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BoundedIntegerProgram(variables={self.num_variables}, "
            f"constraints={self.num_constraints})"
        )
