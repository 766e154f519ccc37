"""Experiment T1 — data user capacity at a delay target.

"Data user capacity" is the largest number of high-speed data users per cell
for which the average packet-call delay stays below a target.  The experiment
walks the same load axis as F2/F3 and, per scheduler, reports the largest
load meeting the target together with the delays observed at every probed
load (so the capacity estimate can be audited).

The probing is a :class:`~repro.experiments.campaign.Campaign` over the full
(load × scheduler) grid — replications shard across workers — and the
capacity estimate is a pure reducer over the aggregated delays (the
hand-rolled sequential early-break loop became a reducer-side scan, so the
whole grid parallelises).

Expected shape: JABA-SD supports the most data users per cell, equal-share is
second and FCFS last, mirroring the delay curves.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

from repro.experiments.campaign import Campaign, CampaignResult
from repro.experiments.common import ExperimentResult, SchedulerSpec, flag_degraded
from repro.experiments.delay_vs_load import build_delay_campaign
from repro.simulation.scenario import ScenarioConfig

__all__ = ["build_capacity_campaign", "reduce_capacity", "run_capacity", "main"]


def build_capacity_campaign(
    delay_target_s: float = 1.0,
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
) -> Campaign:
    """The (load × scheduler) delay grid behind :func:`run_capacity`.

    It is F2/F3's grid under its own name, so in one process its
    replications at F2/F3's loads are served from F2/F3's.  The delay target
    rides in ``metadata["delay_target_s"]`` for :func:`reduce_capacity`.
    """
    if delay_target_s <= 0.0:
        raise ValueError("delay_target_s must be positive")
    campaign = build_delay_campaign(
        loads=sorted(loads) if loads is not None else [6, 12, 18, 24, 30],
        scenario=scenario,
        scheduler_factories=scheduler_factories,
        num_seeds=num_seeds,
    )
    campaign.name = "T1-capacity"
    campaign.metadata["delay_target_s"] = float(delay_target_s)
    return campaign


def reduce_capacity(
    campaign_result: CampaignResult, delay_target_s: float
) -> ExperimentResult:
    """Scan the aggregated delay grid for each scheduler's capacity."""
    result = ExperimentResult(
        experiment_id="T1",
        title=(
            f"Data user capacity per cell (largest load with mean packet delay "
            f"<= {delay_target_s:g} s; {campaign_result.replications} seed "
            f"replications per probe)"
        ),
    )
    by_scheduler: Dict[str, Dict[int, Dict[str, float]]] = {}
    for point in campaign_result.points:
        delay = point.summarise("mean_delay_s")
        by_scheduler.setdefault(str(point.params["scheduler"]), {})[
            int(point.params["load"])
        ] = {"delay": delay.mean, "ci": delay.ci_half_width, "n": delay.count}
    for label, probes in by_scheduler.items():
        capacity = 0
        record: Dict[str, object] = {"scheduler": label}
        n_seeds = 0
        for load in sorted(probes):
            probe = probes[load]
            delay = probe["delay"]
            record[f"delay@{load}"] = delay
            record[f"delay_ci@{load}"] = probe["ci"]
            n_seeds = max(n_seeds, int(probe["n"]))
            if not math.isnan(delay) and delay <= delay_target_s:
                capacity = load
            elif not math.isnan(delay) and delay > delay_target_s:
                # Delays are monotone in load apart from noise; heavier
                # probes past the first target violation do not inform the
                # capacity estimate (they were still run — the grid is
                # declarative — but are omitted from the audit columns).
                break
        record["capacity_users_per_cell"] = capacity
        record["n_seeds"] = n_seeds
        result.add(**record)
    result.notes = (
        "Capacity = largest probed load whose mean delay met the target; the "
        "delay@<load> / delay_ci@<load> columns record the probes (mean and "
        "95% CI half-width over n_seeds replications) used for the estimate."
    )
    return flag_degraded(result, campaign_result)


def run_capacity(
    delay_target_s: float = 1.0,
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
    workers: int = 1,
    executor=None,
) -> ExperimentResult:
    """Estimate the per-cell data-user capacity of every scheduler.

    Parameters
    ----------
    delay_target_s:
        Mean packet-call delay that still counts as acceptable service.
    loads:
        Increasing data-user populations probed (default 6, 12, 18, 24, 30).
    scenario / scheduler_factories / num_seeds / workers / executor:
        As in :func:`repro.experiments.delay_vs_load.run_delay_vs_load`.
    """
    campaign = build_capacity_campaign(
        delay_target_s=delay_target_s,
        loads=loads,
        scenario=scenario,
        scheduler_factories=scheduler_factories,
        num_seeds=num_seeds,
    )
    outcome = campaign.run(workers=workers, executor=executor)
    return reduce_capacity(outcome, delay_target_s)


def main() -> None:  # pragma: no cover - CLI entry point
    print(run_capacity().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
