"""Benchmark — vectorized vs scalar scheduling-solver back-ends.

Sweeps the concurrent-request count Q (default Q ∈ {16, 64, 256}) on
*realistic* burst-scheduling integer programs (extracted from Monte-Carlo
network drops, exactly as experiment F6 builds them) and times every solver
back-end of ``repro.opt`` in both implementations:

* ``scalar`` — the per-index / per-row oracle loops kept in
  ``tests/oracles/opt.py`` (the seed semantics);
* ``batched`` — the vectorized kernels of ``repro.opt``, the production path
  (matrix-wide greedy ranking, batched simplex pivots with scratch reuse,
  child-sweep branch-and-bound bounding).

Back-ends: ``greedy``, ``lp`` (dense simplex relaxation), ``near_optimal``,
``bnb`` (node-budgeted branch-and-bound, nodes recorded) and ``exhaustive``
(on a binary-capped companion instance, small Q only).

Every timed instance is also checked for **identical** assignments
(``np.array_equal`` on ``IntegerSolution.values``, LP values compared
exactly) between the two implementations, so the speedup never comes at the
cost of the decisions.

Emits ``BENCH_solvers.json`` (repo root by default) with per-backend
decisions/sec, speedups, branch-and-bound node counts and the parity
verdicts.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_solvers.py [--smoke]

or under pytest (smoke scale, parity assertions only — timing is reported,
never asserted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# One BLAS/OpenMP thread, pinned before NumPy loads (as perfbench/run.py
# does): with threaded OpenBLAS, random decisions on either side stall by a
# few milliseconds on a small VM, which swamps the smoke's few timed
# decisions per point.
os.environ.update(
    {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script invocation without PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))
try:
    import tests.oracles  # noqa: F401
except ImportError:  # pragma: no cover - the repo root is not on sys.path
    sys.path.insert(0, str(ROOT))

from repro.config import SystemConfig
from repro.experiments.solver_ablation import _build_instance
from repro.opt import (
    BoundedIntegerProgram,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
    solve_lp_relaxation,
    solve_near_optimal,
)
from repro.opt.exhaustive import MAX_ENUMERATION_POINTS
from tests.oracles import opt as oracle

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_solvers.json"
DEFAULT_QUEUES = (16, 64, 256)


def build_instance(queue_length: int, seed: int) -> BoundedIntegerProgram:
    """One realistic scheduling integer program at the requested queue length."""
    return _build_instance(SystemConfig(), queue_length, seed, 400_000.0)


def binary_capped(problem: BoundedIntegerProgram) -> BoundedIntegerProgram:
    """Companion instance with binary bounds (keeps exhaustive enumerable)."""
    return BoundedIntegerProgram(
        objective=problem.objective,
        constraint_matrix=problem.constraint_matrix,
        constraint_bounds=problem.constraint_bounds,
        upper_bounds=np.minimum(problem.upper_bounds, 1),
    )


def _time_solver(solve: Callable[[], object], repeats: int) -> List[float]:
    """Milliseconds per decision, one entry per repetition."""
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve()
        ms.append(1000.0 * (time.perf_counter() - t0))
    return ms


def _summarise(ms_per_decision: List[float]) -> Dict:
    total_s = sum(ms_per_decision) / 1000.0
    decisions = len(ms_per_decision)
    return {
        "decisions": decisions,
        "decisions_per_s": decisions / total_s,
        "mean_ms_per_decision": total_s * 1000.0 / decisions,
        "ms_per_decision": [round(v, 4) for v in ms_per_decision],
    }


def _bench_backend(
    scalar: Callable[[], object],
    batched: Callable[[], object],
    repeats: int,
    parity: Callable[[object, object], bool],
) -> Tuple[Dict, object, object]:
    """Interleaved scalar/batched timing plus a parity verdict."""
    scalar_solution = scalar()
    batched_solution = batched()
    entry: Dict = {"parity": bool(parity(scalar_solution, batched_solution))}
    trajectories: Dict[str, List[float]] = {"scalar": [], "batched": []}
    # Alternating chunks so CPU frequency drift does not bias either side.
    chunk = max(1, repeats // 4)
    done = 0
    while done < repeats:
        batch = min(chunk, repeats - done)
        trajectories["scalar"].extend(_time_solver(scalar, batch))
        trajectories["batched"].extend(_time_solver(batched, batch))
        done += batch
    entry.update({name: _summarise(ms) for name, ms in trajectories.items()})
    entry["speedup"] = (
        entry["batched"]["decisions_per_s"] / entry["scalar"]["decisions_per_s"]
    )
    return entry, scalar_solution, batched_solution


def _values_equal(a, b) -> bool:
    return np.array_equal(a.values, b.values)


def run_bench(
    queue_lengths=DEFAULT_QUEUES,
    repeats: int = 10,
    bnb_repeats: int = 3,
    bnb_max_nodes: int = 60,
    seed: int = 17,
) -> Dict:
    """Run the full queue-length × back-end sweep and return the report."""
    report = {
        "benchmark": "solver_backends",
        "config": {
            "queue_lengths": list(queue_lengths),
            "repeats": repeats,
            "bnb_repeats": bnb_repeats,
            "bnb_max_nodes": bnb_max_nodes,
            "seed": seed,
        },
        "results": {},
        "speedup_trajectory": {},
        "parity_all_equal": True,
    }

    for queue_length in queue_lengths:
        problem = build_instance(queue_length, seed + queue_length)
        entry: Dict = {
            "num_variables": problem.num_variables,
            "num_constraints": problem.num_constraints,
        }

        backend_entry, _, _ = _bench_backend(
            lambda: oracle.solve_greedy(problem),
            lambda: solve_greedy(problem),
            repeats,
            _values_equal,
        )
        entry["greedy"] = backend_entry

        backend_entry, _, _ = _bench_backend(
            lambda: oracle.solve_lp_relaxation(problem, use_scipy=False),
            lambda: solve_lp_relaxation(problem, use_scipy=False),
            repeats,
            lambda a, b: np.array_equal(a.values, b.values),
        )
        entry["lp"] = backend_entry

        backend_entry, _, _ = _bench_backend(
            lambda: oracle.solve_near_optimal(problem),
            lambda: solve_near_optimal(problem),
            repeats,
            _values_equal,
        )
        entry["near_optimal"] = backend_entry

        backend_entry, _, bnb_solution = _bench_backend(
            lambda: oracle.solve_branch_and_bound(problem, max_nodes=bnb_max_nodes),
            lambda: solve_branch_and_bound(problem, max_nodes=bnb_max_nodes),
            bnb_repeats,
            lambda a, b: _values_equal(a, b) and a.nodes_explored == b.nodes_explored,
        )
        backend_entry["nodes_explored"] = int(bnb_solution.nodes_explored)
        entry["bnb"] = backend_entry

        capped = binary_capped(problem)
        if capped.search_space_size() <= MAX_ENUMERATION_POINTS:
            backend_entry, _, exhaustive_solution = _bench_backend(
                lambda: oracle.solve_exhaustive(capped),
                lambda: solve_exhaustive(capped),
                max(1, repeats // 2),
                lambda a, b: _values_equal(a, b)
                and a.nodes_explored == b.nodes_explored,
            )
            backend_entry["points_enumerated"] = int(
                exhaustive_solution.nodes_explored
            )
            entry["exhaustive"] = backend_entry
        else:
            entry["exhaustive"] = {
                "skipped": (
                    "binary-capped search space still exceeds "
                    f"{MAX_ENUMERATION_POINTS} points"
                )
            }

        for backend, backend_data in entry.items():
            if not isinstance(backend_data, dict) or "speedup" not in backend_data:
                continue
            report["parity_all_equal"] &= backend_data["parity"]
            report["speedup_trajectory"].setdefault(backend, {})[
                str(queue_length)
            ] = backend_data["speedup"]
        report["results"][f"Q={queue_length}"] = entry

    return report


def format_table(report: Dict) -> str:
    config = report["config"]
    backends = ("greedy", "lp", "near_optimal", "bnb", "exhaustive")
    lines = [
        "Solver back-ends — batched kernels vs scalar oracles "
        f"({config['repeats']} decisions per point, "
        f"B&B budget {config['bnb_max_nodes']} nodes)",
        f"{'queue':>6} {'backend':>13} {'scalar ms':>11} {'batched ms':>11} "
        f"{'speedup':>9} {'nodes':>7} {'parity':>7}",
    ]
    for queue_length in config["queue_lengths"]:
        entry = report["results"][f"Q={queue_length}"]
        for backend in backends:
            data = entry.get(backend)
            if not isinstance(data, dict):
                continue
            if "skipped" in data:
                lines.append(f"{queue_length:>6} {backend:>13} {'(skipped)':>24}")
                continue
            nodes = data.get("nodes_explored", data.get("points_enumerated", ""))
            lines.append(
                f"{queue_length:>6} {backend:>13} "
                f"{data['scalar']['mean_ms_per_decision']:>11.3f} "
                f"{data['batched']['mean_ms_per_decision']:>11.3f} "
                f"{data['speedup']:>8.1f}x {str(nodes):>7} "
                f"{'ok' if data['parity'] else 'FAIL':>7}"
            )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------
def test_solver_backends(benchmark, show):
    """Smoke-scale run: parity is asserted, timing is reported only."""
    report = benchmark.pedantic(
        lambda: run_bench(
            queue_lengths=(16, 64), repeats=3, bnb_repeats=1, bnb_max_nodes=60
        ),
        rounds=1,
        iterations=1,
    )
    show(format_table(report))
    assert report["parity_all_equal"]
    largest = str(report["config"]["queue_lengths"][-1])
    assert report["speedup_trajectory"]["bnb"][largest] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--queues",
        type=int,
        nargs="+",
        default=list(DEFAULT_QUEUES),
        help="request-queue lengths to sweep",
    )
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument(
        "--bnb-repeats", type=int, default=3, help="repetitions of the B&B points"
    )
    parser.add_argument(
        "--bnb-max-nodes", type=int, default=60, help="B&B per-decision node budget"
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced run for CI (Q in {16, 64})"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.bnb_repeats < 1:
        parser.error("--repeats/--bnb-repeats must be at least 1")
    if args.bnb_max_nodes < 1:
        parser.error("--bnb-max-nodes must be positive")
    if any(q < 1 for q in args.queues):
        parser.error("--queues entries must be positive")
    args.output.parent.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        report = run_bench(
            queue_lengths=(16, 64),
            repeats=3,
            bnb_repeats=1,
            bnb_max_nodes=60,
            seed=args.seed,
        )
    else:
        report = run_bench(
            queue_lengths=tuple(args.queues),
            repeats=args.repeats,
            bnb_repeats=args.bnb_repeats,
            bnb_max_nodes=args.bnb_max_nodes,
            seed=args.seed,
        )
    print(format_table(report))
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 0 if report["parity_all_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
