#!/usr/bin/env python
"""Head-to-head scheduler comparison with variance reduction.

Demonstrates the two variance-reduction tools of the campaign engine on one
question — "how much lower is JABA-SD(J1)'s mean packet delay than FCFS's?":

1. **Paired CRN deltas** — both schedulers share a seed group, so every
   replication pair replays the same traffic; the paired-t interval on the
   per-replication differences is typically 2-3x tighter than the Welch
   interval on the very same samples.
2. **Sequential stopping** — instead of guessing a replication count, pass
   ``--ci-target`` and the campaign replicates in waves until the paired
   metric's 95% half-width is small enough (bit-identical for any worker
   count).  The stopping rule is set on the campaign before it runs.

Run it with ``python examples/paired_scheduler_comparison.py [--ci-target S]``.
"""

from __future__ import annotations

import argparse

from repro.experiments.common import paper_scenario
from repro.experiments.compare import build_comparison_campaign, compare_schedulers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheduler-a", default="JABA-SD(J1)")
    parser.add_argument("--scheduler-b", default="FCFS")
    parser.add_argument("--loads", type=int, nargs="+", default=[12, 18])
    parser.add_argument("--seeds", type=int, default=4,
                        help="replications per point (first wave with --ci-target)")
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--ci-target", type=float, default=None,
                        help="replicate until the mean_delay_s 95%% half-width "
                             "reaches this (seconds) at every point")
    args = parser.parse_args()

    campaign = build_comparison_campaign(
        args.scheduler_a,
        args.scheduler_b,
        loads=args.loads,
        scenario=paper_scenario(duration_s=args.duration, warmup_s=1.0),
        num_seeds=args.seeds,
    )
    if args.ci_target is not None:
        campaign.configure_sequential(args.ci_target, "mean_delay_s")
    outcome = campaign.run(workers=args.workers)
    print(compare_schedulers(outcome, args.scheduler_a, args.scheduler_b).to_table())


if __name__ == "__main__":
    main()
