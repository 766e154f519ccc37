"""JABA-SD: jointly adaptive burst admission over the spatial dimension.

This is the paper's proposed scheduler.  The *jointly adaptive* part is that
the scheduling decision consumes physical-layer adaptivity: each request's
objective weight is its relative average VTAOC throughput ``delta_rho_j``,
i.e. a function of the user's current local-mean CSI, while its resource cost
(the admissible-region column) reflects the user's current power/interference
situation.  The *spatial dimension* part is that the scheduler chooses *which*
of the concurrent requests to serve and at what spreading-gain ratio, leaving
the burst start times at the earliest frame boundary (the temporal dimension
is explicitly out of scope in the paper; see
:class:`repro.mac.schedulers.temporal.TemporalExtensionScheduler` for the
future-work extension).

Solver back-ends
----------------
``solver="optimal"``
    Branch-and-bound to proven optimality (eq. (19)/(20) integer program).
    Used in the solver ablation (experiment F6) and whenever the number of
    concurrent requests is small.
``solver="near-optimal"`` (default)
    Best of the greedy heuristic and the rounded LP relaxation.  On
    burst-scheduling instances this lands within a fraction of a percent of
    the optimum at a bounded per-frame cost, which is what the dynamic
    simulations use.
``solver="greedy"``
    Pure marginal-efficiency heuristic (the cheap JABA-SD variant).
``solver="exhaustive"``
    Exact enumeration; only for tiny instances (tests).

Every decision depends only on the current frame's scheduling input: no
state is carried from one decision to the next.
"""

from __future__ import annotations

from typing import Literal, Union

from repro.mac.objectives import DelayAwareObjective, ThroughputObjective
from repro.mac.schedulers.base import BurstScheduler, SchedulingDecision
from repro.registry import register
from repro.opt import (
    BoundedIntegerProgram,
    IntegerSolution,
    SimplexIterationLimitError,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
    solve_near_optimal,
)

__all__ = ["JabaSdScheduler"]

ObjectiveName = Literal["J1", "J2"]
SolverName = Literal["optimal", "near-optimal", "greedy", "exhaustive"]


@register(
    "scheduler",
    "jaba-sd",
    defaults={"objective": "J1"},
    summary="The paper's jointly adaptive burst admission (spatial dimension)",
)
class JabaSdScheduler(BurstScheduler):
    """The jointly adaptive burst admission (spatial dimension) scheduler.

    Parameters
    ----------
    objective:
        ``"J1"`` (throughput, eq. (19)) or ``"J2"`` (throughput/delay
        trade-off, eq. (20)), or an objective instance.
    solver:
        ``"near-optimal"`` (default), ``"optimal"``, ``"greedy"`` or
        ``"exhaustive"`` — see the module docstring.
    max_nodes:
        Node budget of the branch-and-bound solver (``"optimal"`` mode).
    """

    def __init__(
        self,
        objective: Union[ObjectiveName, ThroughputObjective, DelayAwareObjective] = "J1",
        solver: SolverName = "near-optimal",
        max_nodes: int = 200_000,
    ) -> None:
        if isinstance(objective, str):
            if objective == "J1":
                objective = ThroughputObjective()
            elif objective == "J2":
                objective = DelayAwareObjective()
            else:
                raise ValueError("objective must be 'J1' or 'J2'")
        self.objective = objective
        if solver not in ("optimal", "near-optimal", "greedy", "exhaustive"):
            raise ValueError(
                "solver must be 'optimal', 'near-optimal', 'greedy' or 'exhaustive'"
            )
        self.solver = solver
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_nodes = int(max_nodes)
        self.name = f"JABA-SD({self.objective.name}/{solver})"

    def _solve(self, ip: BoundedIntegerProgram) -> IntegerSolution:
        # LP-backed solvers can exhaust the simplex pivot budget on degenerate
        # instances (SimplexIterationLimitError).  A scheduler must produce
        # *some* admissible decision every frame, so that error degrades to
        # the greedy solution — always feasible, merely sub-optimal — instead
        # of aborting the whole simulation.
        try:
            return self._solve_with_backend(ip)
        except SimplexIterationLimitError:
            return solve_greedy(ip)

    def _solve_with_backend(self, ip: BoundedIntegerProgram) -> IntegerSolution:
        if self.solver == "greedy":
            return solve_greedy(ip)
        if self.solver == "exhaustive":
            return solve_exhaustive(ip)
        if self.solver == "optimal":
            return solve_branch_and_bound(ip, max_nodes=self.max_nodes)
        return solve_near_optimal(ip)

    def assign(self, problem) -> SchedulingDecision:
        num_requests = len(problem.requests)
        if num_requests == 0:
            return self.empty_decision()
        weights = self.objective.weights(
            problem.delta_rho,
            problem.priorities,
            problem.waiting_times_s,
            problem.config,
        )
        ip = BoundedIntegerProgram(
            objective=weights,
            constraint_matrix=problem.region.matrix,
            constraint_bounds=problem.region.bounds,
            upper_bounds=problem.upper_bounds,
        )
        solution = self._solve(ip)
        return SchedulingDecision(
            assignment=solution.values,
            objective_value=float(solution.objective),
            optimal=bool(solution.optimal),
        )
