"""Scaling harness for the parallel Monte-Carlo campaign engine.

Measures replication throughput of the F4 coverage campaign
(:func:`repro.experiments.coverage.build_coverage_campaign`) as the worker
count varies, verifies that the aggregates stay bit-identical across worker
counts, and runs one J=1e5 campaign point (a full dynamic simulation on the
structure-of-arrays fleets) to demonstrate that the campaign layer drives the
fleet kernels at production scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py             # full sweep
    PYTHONPATH=src python benchmarks/bench_campaign.py --smoke     # CI smoke

Writes ``BENCH_campaign.json``.  Worker scaling is hardware-bound: on an
N-core machine the coverage sweep is expected to scale near-linearly up to N
workers (the replications are independent processes); on a single-core
container every worker count serialises onto the same core and the recorded
speedup stays ~1x.  The JSON records ``hardware.cpu_count`` so readers can
interpret the numbers.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.config import SystemConfig  # noqa: E402
from repro.experiments.campaign import Campaign, seed_sequence_to_int  # noqa: E402
from repro.experiments.coverage import build_coverage_campaign  # noqa: E402
from repro.experiments.executors import (  # noqa: E402
    Executor,
    ResilientExecutor,
    TaskOutcome,
    reset_worker_signals,
)
from repro.simulation.dynamic import DynamicSystemSimulator  # noqa: E402
from repro.simulation.scenario import ScenarioConfig, TrafficConfig  # noqa: E402
from repro.mac.schedulers import JabaSdScheduler  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_campaign.json"


# --------------------------------------------------------------------------
# coverage sweep scaling
# --------------------------------------------------------------------------
def coverage_campaign(smoke: bool, replications: int) -> Campaign:
    if smoke:
        return build_coverage_campaign(
            loads=[2, 3],
            num_drops=1,
            config=SystemConfig.small_test_system(),
            scheduler_factories={"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"},
            num_replications=replications,
            seed=17,
        )
    return build_coverage_campaign(
        loads=[4, 8],
        num_drops=60,
        scheduler_factories={"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"},
        num_replications=replications,
        seed=17,
    )


def run_coverage_scaling(
    worker_counts: Sequence[int], smoke: bool, replications: int
) -> Dict:
    runs: List[Dict] = []
    aggregates = {}
    for workers in worker_counts:
        campaign = coverage_campaign(smoke, replications)
        started = time.perf_counter()
        outcome = campaign.run(workers=workers)
        elapsed = time.perf_counter() - started
        completed = outcome.completed_replications
        aggregates[workers] = [
            sorted(point.replications.items()) for point in outcome.points
        ]
        runs.append(
            {
                "workers": int(workers),
                "replications_completed": int(completed),
                "elapsed_s": round(elapsed, 4),
                "reps_per_s": round(completed / elapsed, 4),
            }
        )
        print(
            f"coverage sweep, workers={workers}: {completed} replications in "
            f"{elapsed:.2f} s ({completed / elapsed:.2f} reps/s)"
        )
    base_run = min(runs, key=lambda run: run["workers"])
    base = base_run["reps_per_s"]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    for run in runs:
        run["speedup_vs_baseline"] = round(run["reps_per_s"] / base, 4)
        # The engine-side cost of sharding: on any hardware, perfect sharding
        # would reach min(workers, cores) x the single-worker throughput.
        # (Only meaningful against a workers=1 baseline.)
        ideal = min(run["workers"], cores)
        run["sharding_overhead_fraction"] = round(
            max(0.0, 1.0 - run["speedup_vs_baseline"] / ideal), 4
        )
    first = aggregates[worker_counts[0]]
    parity = all(aggregates[w] == first for w in worker_counts)
    print(f"aggregate parity across worker counts: {parity}")
    campaign = coverage_campaign(smoke, replications)
    return {
        "grid": {
            "points": len(campaign.points),
            "replications_per_point": campaign.replications,
            "drops_per_replication": int(campaign.metadata["num_drops"]),
            "root_seed": campaign.root_seed,
        },
        "runs": runs,
        "baseline_workers": base_run["workers"],
        "parity_bit_identical": parity,
        "scaling_note": (
            "Replications are independent processes; expected speedup at W "
            "workers is ~min(W, cores).  sharding_overhead_fraction measures "
            "the engine-side loss against that bound on THIS machine "
            f"(cores available: {cores})."
        ),
    }


# --------------------------------------------------------------------------
# no-fault overhead of the resilient executor
# --------------------------------------------------------------------------
#: Regression budget: the fault-tolerance machinery (per-task tickets,
#: timeout polling, straggler bookkeeping) may cost at most this fraction of
#: extra wall-clock over the plain pool on a fault-free workload.
MAX_RESILIENT_OVERHEAD_FRACTION = 0.05


def _pool_entry(payload):
    """Module-level pool trampoline (pickles by reference)."""
    execute, index, task_payload = payload
    return index, execute(task_payload)


class PlainPool(Executor):
    """``multiprocessing.Pool.imap_unordered`` with no fault tolerance.

    The reference the overhead budget is defined against: the cheapest
    way to shard a task list over worker processes, where one worker
    exception aborts the run and a hung task stalls it.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        super().__init__()
        self.workers = workers

    def run(self, execute, tasks):
        tasks = list(tasks)
        payloads = [(execute, index, task.payload) for index, task in enumerate(tasks)]
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        pool = mp.get_context(method).Pool(self.workers, initializer=reset_worker_signals)
        with pool:
            for index, metrics in pool.imap_unordered(_pool_entry, payloads, chunksize=1):
                yield TaskOutcome(task=tasks[index], metrics=metrics)


def run_overhead(name: str, make_executor, campaign_factory, budget: float,
                 repeats: int, replications: int) -> Dict:
    """Time one fault-free campaign under the plain pool vs. ``name``.

    The two back-ends alternate run by run, so a slow phase of a shared box
    hits both sides alike, and each side keeps its best of ``repeats`` (the
    workload is identical, so the minimum is the least-noise estimate).  The
    aggregates of both must be bit-identical.
    """
    workers = 2
    timings = {"pool": float("inf"), name: float("inf")}
    aggregates: Dict[str, List] = {}
    for _ in range(repeats):
        for side in timings:
            executor = (
                PlainPool(workers) if side == "pool" else make_executor(workers)
            )
            campaign = campaign_factory()
            started = time.perf_counter()
            outcome = campaign.run(workers=workers, executor=executor)
            timings[side] = min(timings[side], time.perf_counter() - started)
            aggregates[side] = [
                sorted(point.replications.items()) for point in outcome.points
            ]
    for side, best in timings.items():
        print(f"no-fault overhead, executor={side}: best of {repeats} = {best:.3f} s")
    overhead = timings[name] / timings["pool"] - 1.0
    parity = aggregates["pool"] == aggregates[name]
    print(
        f"{name} no-fault overhead: {overhead * 100:+.2f}% "
        f"(budget {budget * 100:.0f}%), parity: {parity}"
    )
    return {
        "workers": workers,
        "repeats": repeats,
        "replications_per_point": replications,
        "pool_elapsed_s": round(timings["pool"], 4),
        f"{name}_elapsed_s": round(timings[name], 4),
        "overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": budget,
        "parity_bit_identical": parity,
    }


def run_resilient_overhead(smoke: bool, replications: int) -> Dict:
    """The fault-free coverage sweep under the plain pool vs. resilient."""
    # The smoke grid at 1 replication finishes in milliseconds; give the
    # overhead measurement enough tasks to mean something.
    replications = max(replications, 3) if smoke else replications
    return run_overhead(
        "resilient",
        ResilientExecutor,
        lambda: coverage_campaign(smoke, replications),
        MAX_RESILIENT_OVERHEAD_FRACTION,
        repeats=3 if smoke else 2,
        replications=replications,
    )


# --------------------------------------------------------------------------
# variance reduction: paired CRN deltas vs. the unpaired Welch interval
# --------------------------------------------------------------------------
def run_variance_reduction(smoke: bool) -> Dict:
    """Measure the CI shrink bought by common random numbers on the F5 grid.

    Runs the J1-vs-J2 objectives campaign (all points share one seed group,
    so every ``lambda`` replays the same traffic sample paths) and compares
    the paired-t half-width of the J1-minus-J2 ``mean_delay_s`` delta against
    the Welch half-width computed on the very same samples.  The ratio is the
    variance-reduction factor; the regression gate requires it to stay below
    one (``paired_smaller``) — if it ever is not, the seed-group pairing
    contract of the campaign engine is broken.
    """
    from repro.experiments.common import paper_scenario
    from repro.experiments.objectives_tradeoff import build_objectives_campaign

    # The smoke point must stay heavy enough that lambda = 2 actually changes
    # scheduling decisions — at tiny durations/loads the J1/J2 schedules
    # coincide and the paired interval degenerates to a trivial 0.
    if smoke:
        scenario = paper_scenario(duration_s=2.0, warmup_s=0.5)
        num_seeds, load = 6, 16
    else:
        scenario = paper_scenario(duration_s=4.0, warmup_s=1.0)
        num_seeds, load = 10, 18
    campaign = build_objectives_campaign(
        penalty_scales=[0.0, 2.0],
        load=load,
        scenario=scenario,
        num_seeds=num_seeds,
    )
    started = time.perf_counter()
    outcome = campaign.run(workers=2)
    elapsed = time.perf_counter() - started
    delta = outcome.compare_points(0, 1)["mean_delay_s"]
    ratio = (
        delta.ci_half_width / delta.unpaired_ci_half_width
        if delta.unpaired_ci_half_width > 0.0
        else float("nan")
    )
    paired_smaller = delta.ci_half_width < delta.unpaired_ci_half_width
    print(
        f"variance reduction (F5, {num_seeds} paired seeds): paired CI "
        f"{delta.ci_half_width:.4g} s vs unpaired {delta.unpaired_ci_half_width:.4g} s "
        f"(ratio {ratio:.3f}, paired_smaller={paired_smaller})"
    )
    return {
        "campaign": "F5-objectives-tradeoff",
        "metric": "mean_delay_s",
        "load": load,
        "num_seeds": num_seeds,
        "n_pairs": delta.count,
        "delta_mean_delay_s": round(delta.delta, 6),
        "paired_ci_half_width_s": round(delta.ci_half_width, 6),
        "unpaired_ci_half_width_s": round(delta.unpaired_ci_half_width, 6),
        "ci_ratio": round(ratio, 4),
        "paired_smaller": bool(paired_smaller),
        "elapsed_s": round(elapsed, 4),
        "note": (
            "paired_ci is the paired-t 95% half-width of the J1-minus-J2 "
            "mean_delay_s delta under common random numbers; unpaired_ci is "
            "the Welch interval on the same samples.  ci_ratio < 1 is the "
            "variance reduction the shared seed groups buy."
        ),
    }


# --------------------------------------------------------------------------
# J = 1e5 fleet-path campaign point
# --------------------------------------------------------------------------
def fleet_point_replication(params: Mapping[str, object], seed) -> dict:
    """One campaign replication at fleet scale: a J~1e5 dynamic simulation."""
    population = int(params["population"])
    frames = int(params["frames"])
    system = SystemConfig()
    num_rings = system.radio.num_rings
    num_cells = 1 + 3 * num_rings * (num_rings + 1)
    per_cell = max(1, round(population / (2 * num_cells)))
    frame_s = system.mac.frame_duration_s
    scenario = ScenarioConfig(
        system=system,
        num_data_users_per_cell=per_cell,
        num_voice_users_per_cell=per_cell,
        duration_s=frames * frame_s,
        warmup_s=0.0,
        seed=seed_sequence_to_int(seed),
        traffic=TrafficConfig(
            mean_reading_time_s=4.0 * max(1.0, 2 * per_cell * num_cells / 200),
            packet_call_min_bits=24_000.0,
            packet_call_max_bits=200_000.0,
        ),
    )
    simulator = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"))
    started = time.perf_counter()
    outcome = simulator.run()
    elapsed = time.perf_counter() - started
    return {
        "population": float(2 * per_cell * num_cells),
        "frames": float(frames),
        "sim_elapsed_s": elapsed,
        "s_per_frame": elapsed / frames,
        "carried_kbps": outcome.carried_throughput_bps / 1e3,
    }


def run_fleet_point(population: int, frames: int) -> Dict:
    campaign = Campaign(
        name="fleet-point-J1e5",
        runner=fleet_point_replication,
        points=[{"population": population, "frames": frames}],
        replications=1,
        root_seed=99,
    )
    started = time.perf_counter()
    outcome = campaign.run(workers=1)
    elapsed = time.perf_counter() - started
    metrics = outcome.points[0].replications[0]
    print(
        f"fleet point: J={metrics['population']:.0f}, {frames} frames, "
        f"{metrics['s_per_frame'] * 1e3:.0f} ms/frame"
    )
    return {
        "population": metrics["population"],
        "frames": frames,
        "campaign_elapsed_s": round(elapsed, 4),
        "sim_elapsed_s": round(metrics["sim_elapsed_s"], 4),
        "s_per_frame": round(metrics["s_per_frame"], 4),
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid / tiny system for CI")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="worker counts to sweep (default: 1 4 8; smoke: 1 2)")
    parser.add_argument("--replications", type=int, default=None,
                        help="seed replications per grid point")
    parser.add_argument("--fleet-population", type=int, default=100_000)
    parser.add_argument("--fleet-frames", type=int, default=10)
    parser.add_argument("--skip-fleet", action="store_true",
                        help="skip the J=1e5 fleet-path point")
    parser.add_argument("--sections", nargs="+", default=None,
                        choices=["coverage_scaling", "resilient_overhead",
                                 "variance_reduction", "fleet_point"],
                        help="run only these sections; when --output already "
                             "exists its other sections are kept (so one "
                             "section can be regenerated without re-running "
                             "the whole sweep)")
    args = parser.parse_args(argv)

    worker_counts = args.workers or ([1, 2] if args.smoke else [1, 4, 8])
    replications = args.replications or (1 if args.smoke else 4)

    runners = {
        "coverage_scaling": lambda: run_coverage_scaling(
            worker_counts, args.smoke, replications
        ),
        "resilient_overhead": lambda: run_resilient_overhead(
            args.smoke, replications
        ),
        "variance_reduction": lambda: run_variance_reduction(args.smoke),
        "fleet_point": lambda: run_fleet_point(
            args.fleet_population, args.fleet_frames
        ),
    }
    if args.sections is not None:
        sections = list(args.sections)
    else:
        sections = ["coverage_scaling", "resilient_overhead", "variance_reduction"]
        if not args.skip_fleet and not args.smoke:
            sections.append("fleet_point")

    report = {}
    if args.sections is not None and args.output.exists():
        report = json.loads(args.output.read_text())
    report.update(
        {
            "generated_by": "benchmarks/bench_campaign.py",
            "mode": "smoke" if args.smoke else "full",
            "hardware": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
    )
    for name in sections:
        report[name] = runners[name]()

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
