"""Run the complete evaluation and render a consolidated report.

``python -m repro.experiments.report`` regenerates every experiment at full
scale (this takes a while — the dynamic-simulation experiments dominate) and
prints the paper-style tables one after another.  Pass ``--quick`` for a
reduced-size pass useful as a smoke test, and ``--workers N`` to shard the
Monte-Carlo replications of the campaign-backed experiments over ``N``
processes (the numbers are bit-identical for any worker count).

Every Monte-Carlo table now carries its statistical context: the replication
count (``n_seeds`` / ``n_reps``) and the 95% confidence-interval half-width
(``delay_ci_s`` / ``coverage_ci``) of the headline metric, instead of bare
means.

Each replication runs once per report.  T1 and T2 are read off the same
delay-vs-load simulations as F2/F3, and F5's ``lambda = 0`` point is F2/F3's
JABA-SD(J1) point; the campaign engine serves those replications from its
process-wide store instead of simulating them again, bit-identically (see
:meth:`repro.experiments.campaign.Campaign.run`).  The quick report executes
33 of its 42 campaign replications, the full report 112 of 158.

``--compare A B`` switches to the paired head-to-head mode: a two-scheduler
delay campaign on shared replication streams
(:func:`~repro.experiments.compare.build_comparison_campaign`), reduced to
per-load paired deltas (``A - B``) with both the paired-t and the Welch
half-width, so the variance reduction bought by common random numbers is
visible in the table.  Combine with ``--ci-target`` to replicate
sequentially until the headline metric's half-width is resolved: the
stopping rule is set on that campaign (see
:meth:`~repro.experiments.campaign.Campaign.configure_sequential`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.experiments.campaign import check_scheduler_specs, check_stopping_flags
from repro.experiments.capacity import run_capacity
from repro.experiments.common import ExperimentResult
from repro.experiments.coverage import run_coverage
from repro.experiments.delay_vs_load import run_admission_statistics, run_delay_vs_load
from repro.experiments.handoff_ablation import run_handoff_ablation
from repro.experiments.objectives_tradeoff import run_objectives_tradeoff
from repro.experiments.phy_throughput import run_phy_throughput
from repro.experiments.solver_ablation import run_solver_ablation

__all__ = ["full_report", "quick_report", "main"]


def full_report(
    workers: int = 1, executor=None, scheduler_factories=None
) -> List[ExperimentResult]:  # pragma: no cover - CLI scale
    """Run every experiment at full scale (the arguments below set it).

    ``scheduler_factories`` (a label -> spec mapping, see
    :func:`repro.experiments.common.scheduler_from_spec`) replaces the
    default policy comparison in every scheduler-swept experiment — e.g.
    ``{"proportional-fair": "proportional-fair"}`` reports just that policy.
    """
    return [
        run_phy_throughput(monte_carlo_samples=100_000),
        run_delay_vs_load(loads=[6, 12, 18, 24], num_seeds=3, workers=workers,
                          executor=executor,
                          scheduler_factories=scheduler_factories),
        run_admission_statistics(load=18, num_seeds=3, workers=workers,
                                 executor=executor,
                                 scheduler_factories=scheduler_factories),
        run_capacity(loads=[6, 12, 18, 24, 30], num_seeds=2, workers=workers,
                     executor=executor,
                     scheduler_factories=scheduler_factories),
        run_coverage(loads=[4, 8, 16, 24], num_drops=10, num_replications=3,
                     workers=workers, executor=executor,
                     scheduler_factories=scheduler_factories),
        run_objectives_tradeoff(load=18, num_seeds=2, workers=workers,
                                executor=executor),
        run_solver_ablation(request_counts=[2, 4, 8, 12, 16], instances_per_count=5),
        run_handoff_ablation(num_drops=25),
    ]


def quick_report(
    workers: int = 1, executor=None, scheduler_factories=None
) -> List[ExperimentResult]:  # pragma: no cover - CLI scale
    """A reduced-size pass of every experiment (minutes instead of hours)."""
    from repro.experiments.common import paper_scenario

    small_scenario = paper_scenario(duration_s=6.0, warmup_s=1.0)
    return [
        run_phy_throughput(),
        run_delay_vs_load(loads=[8, 16], scenario=small_scenario, num_seeds=2,
                          workers=workers, executor=executor,
                          scheduler_factories=scheduler_factories),
        run_capacity(loads=[8, 16], scenario=small_scenario, delay_target_s=1.0,
                     workers=workers, executor=executor,
                     scheduler_factories=scheduler_factories),
        run_coverage(loads=[8, 16], num_drops=3, num_replications=2,
                     workers=workers, executor=executor,
                     scheduler_factories=scheduler_factories),
        run_objectives_tradeoff(penalty_scales=[0.0, 2.0], load=16,
                                scenario=small_scenario, workers=workers,
                                executor=executor),
        run_solver_ablation(request_counts=[4, 8], instances_per_count=2),
        run_handoff_ablation(num_drops=6),
    ]


def main(argv=None) -> int:  # pragma: no cover - CLI entry point
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced-size pass")
    parser.add_argument("--workers", type=int, default=1,
                        help="processes sharding the Monte-Carlo replications")
    parser.add_argument("--executor",
                        choices=["serial", "resilient"],
                        default=None,
                        help="campaign execution back-end (default: serial "
                             "at --workers 1, resilient above, which retries, "
                             "times out and re-issues stragglers; degraded "
                             "cells are flagged in the tables)")
    parser.add_argument("--scheduler", action="append", default=None,
                        metavar="NAME[:k=v,...]", dest="scheduler_specs",
                        help="restrict the scheduler-swept experiments to "
                             "these policies (registered names with optional "
                             "kwargs, or legacy labels); repeatable")
    compare = parser.add_argument_group(
        "paired comparison (--compare mode)",
        "run only a two-scheduler delay campaign on shared replication "
        "streams and report per-load paired deltas",
    )
    compare.add_argument("--compare", nargs=2, default=None,
                         metavar=("A", "B"),
                         help="scheduler labels to difference (A - B), e.g. "
                              "--compare 'JABA-SD(J1)' FCFS")
    compare.add_argument("--loads", type=int, nargs="+", default=None,
                         help="data users per cell for the comparison grid "
                              "(default 6 12 18 24)")
    compare.add_argument("--seeds", type=int, default=4,
                         help="seed replications per point (default 4); with "
                              "--ci-target this is the first wave size")
    compare.add_argument("--duration", type=float, default=None,
                         help="override the scenario duration in seconds")
    compare.add_argument("--warmup", type=float, default=None,
                         help="override the scenario warm-up in seconds")
    compare.add_argument("--ci-target", type=float, default=None,
                         help="replicate sequentially until the paired "
                              "metric's 95%% CI half-width is at most this "
                              "at every point")
    compare.add_argument("--max-replications", type=int, default=None,
                         help="sequential-stopping replication cap per point")
    args = parser.parse_args(argv)
    check_stopping_flags(parser, args)
    labels = args.scheduler_specs or []
    check_scheduler_specs(parser, labels)
    factories = {label: label for label in labels} if labels else None
    if args.compare is not None:
        from repro.experiments.common import paper_scenario
        from repro.experiments.compare import (
            build_comparison_campaign,
            compare_schedulers,
        )

        label_a, label_b = args.compare
        check_scheduler_specs(parser, args.compare)
        scenario = None
        if args.duration is not None or args.warmup is not None:
            kwargs = {}
            if args.duration is not None:
                kwargs["duration_s"] = args.duration
            if args.warmup is not None:
                kwargs["warmup_s"] = args.warmup
            scenario = paper_scenario(**kwargs)
        started = time.time()
        campaign = build_comparison_campaign(
            label_a, label_b, loads=args.loads, scenario=scenario, num_seeds=args.seeds
        )
        if args.ci_target is not None:
            campaign.configure_sequential(
                args.ci_target, "mean_delay_s", args.max_replications
            )
        outcome = campaign.run(workers=args.workers, executor=args.executor)
        print(compare_schedulers(outcome, label_a, label_b).to_table())
        print()
        print(f"(comparison generated in {time.time() - started:.1f} s)")
        return 0
    started = time.time()
    results = (
        quick_report(args.workers, executor=args.executor,
                     scheduler_factories=factories)
        if args.quick
        else full_report(args.workers, executor=args.executor,
                         scheduler_factories=factories)
    )
    for result in results:
        print(result.to_table())
        print()
    print(f"(report generated in {time.time() - started:.1f} s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
