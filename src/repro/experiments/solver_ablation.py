"""Experiment F6 — scheduling-solver ablation: optimal vs. heuristic JABA-SD.

The paper formulates burst scheduling as an integer program and proposes an
optimal algorithm.  This experiment quantifies, on *realistic* scheduling
instances extracted from Monte-Carlo network drops, how the solver back-ends
compare in solution quality and run time as the number of concurrent burst
requests grows:

* ``optimal`` — branch-and-bound to proven optimality;
* ``near-optimal`` — greedy + rounded LP (the per-frame solver used by the
  dynamic simulations);
* ``greedy`` — pure marginal-efficiency heuristic.

Expected shape: the near-optimal solver stays within a fraction of a percent
of the optimum at negligible cost, while the exact solver's run time grows
quickly with the number of requests; the greedy heuristic loses a few percent
of objective value.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.experiments.common import ExperimentResult
from repro.mac.admission import BurstAdmissionController
from repro.mac.objectives import ThroughputObjective
from repro.mac.requests import BurstRequest, LinkDirection
from repro.mac.schedulers import JabaSdScheduler
from repro.opt import (
    BoundedIntegerProgram,
    solve_branch_and_bound,
    solve_greedy,
    solve_near_optimal,
)
from repro.simulation.snapshot import SnapshotSimulator
from repro.utils.stats import RunningStats

__all__ = ["run_solver_ablation", "main"]


def _build_instance(
    config: SystemConfig,
    num_requests: int,
    seed: int,
    burst_size_bits: float,
) -> BoundedIntegerProgram:
    """Extract one realistic scheduling integer program from a network drop."""
    num_cells = 1 + 3 * config.radio.num_rings * (config.radio.num_rings + 1)
    per_cell = max(1, int(np.ceil(num_requests / num_cells)))
    simulator = SnapshotSimulator(
        config=config,
        scheduler=JabaSdScheduler("J1"),
        num_data_users_per_cell=per_cell,
        num_voice_users_per_cell=8,
        burst_size_bits=burst_size_bits,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    network = simulator._build_drop(rng)
    snapshot = network.snapshot()
    data_indices = network.data_mobile_indices()[:num_requests]
    requests = [
        BurstRequest(
            mobile_index=int(j),
            link=LinkDirection.FORWARD,
            size_bits=burst_size_bits,
            arrival_time_s=0.0,
        )
        for j in data_indices
    ]
    controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
    problem = controller.build_input(snapshot, requests, LinkDirection.FORWARD)
    weights = ThroughputObjective().weights(
        problem.delta_rho, problem.priorities, problem.waiting_times_s, problem.config
    )
    return BoundedIntegerProgram(
        objective=weights,
        constraint_matrix=problem.region.matrix,
        constraint_bounds=problem.region.bounds,
        upper_bounds=problem.upper_bounds,
    )


def run_solver_ablation(
    request_counts: Optional[Sequence[int]] = None,
    instances_per_count: int = 5,
    burst_size_bits: float = 400_000.0,
    config: Optional[SystemConfig] = None,
    max_nodes: int = 50_000,
    seed: int = 17,
) -> ExperimentResult:
    """Compare solver back-ends on realistic burst-scheduling instances.

    Parameters
    ----------
    request_counts:
        Numbers of concurrent burst requests (default 2, 4, 8, 12, 16).
    instances_per_count:
        Independent drops per point.
    max_nodes:
        Node budget of the exact solver (instances exceeding it are reported
        with the best incumbent and flagged in the ``all_proven`` column).
    """
    request_counts = (
        list(request_counts) if request_counts is not None else [2, 4, 8, 12, 16]
    )
    config = config if config is not None else SystemConfig()

    result = ExperimentResult(
        experiment_id="F6",
        title="Scheduler solver ablation: solution quality and run time vs. request count",
    )
    for count in request_counts:
        optimal_time = RunningStats()
        near_time = RunningStats()
        greedy_time = RunningStats()
        near_ratio = RunningStats()
        greedy_ratio = RunningStats()
        nodes = RunningStats()
        all_proven = True
        for instance_idx in range(instances_per_count):
            problem = _build_instance(
                config, count, seed + 1000 * instance_idx + count, burst_size_bits
            )
            t0 = time.perf_counter()
            exact = solve_branch_and_bound(problem, max_nodes=max_nodes)
            optimal_time.add(time.perf_counter() - t0)
            t0 = time.perf_counter()
            near = solve_near_optimal(problem)
            near_time.add(time.perf_counter() - t0)
            t0 = time.perf_counter()
            greedy = solve_greedy(problem)
            greedy_time.add(time.perf_counter() - t0)
            reference = max(exact.objective, 1e-12)
            near_ratio.add(near.objective / reference)
            greedy_ratio.add(greedy.objective / reference)
            nodes.add(exact.nodes_explored)
            all_proven = all_proven and exact.optimal
        result.add(
            num_requests=int(count),
            optimal_ms=optimal_time.mean * 1e3,
            near_optimal_ms=near_time.mean * 1e3,
            greedy_ms=greedy_time.mean * 1e3,
            near_optimal_quality=near_ratio.mean,
            greedy_quality=greedy_ratio.mean,
            bnb_nodes=nodes.mean,
            all_proven=all_proven,
        )
    result.notes = (
        "Quality columns are the mean objective ratio to the exact optimum "
        "(1.0 = optimal); the near-optimal solver is the one used inside the "
        "dynamic simulations."
    )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    print(run_solver_ablation().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
