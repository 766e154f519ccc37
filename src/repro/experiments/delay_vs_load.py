"""Experiments F2 / F3 / T2 — average packet delay vs. offered load.

This is the paper's headline evaluation: the average packet (packet-call)
delay as a function of the number of high-speed data users per cell, under
the JABA-SD scheduler (objectives J1 and J2) and the two baselines (cdma2000
FCFS single-burst admission, equal sharing).  The forward link (F2) and the
reverse link (F3) are admitted — and reported — independently.

The sweep is a :class:`~repro.experiments.campaign.Campaign`: one grid point
per (load, scheduler), ``num_seeds`` replications per point, every
replication one full dynamic simulation seeded from its seed-tree leaf.  All
points share their seed group, so every scheduler and load sees the same
replication streams (common random numbers — the paired design the old
hand-rolled loop obtained by reusing ``scenario.seed + offset``).

Experiment T2 reuses the same runs and reports the admission statistics
(grant rate, mean granted spreading-gain ratio, utilisation, outage) at one
fixed load: its campaign is the F2/F3 grid at that load, so in one process
its replications are served from F2/F3's (see
:meth:`~repro.experiments.campaign.Campaign.run`).

Each ``run_*`` function is its campaign builder plus its reducer; the
campaign's run options (checkpoint, tracing, sequential stopping) are set on
the :class:`~repro.experiments.campaign.Campaign` itself, as ``python -m
repro.experiments`` does.

Expected shape: at light load all schedulers coincide (no contention); beyond
the knee JABA-SD sustains markedly lower delay and higher carried throughput
than equal-share, which in turn beats FCFS; J2 trades a little mean delay for
a shorter tail under heavy load.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    seed_sequence_to_int,
)
from repro.experiments.common import (
    ExperimentResult,
    SchedulerSpec,
    default_scheduler_specs,
    flag_degraded,
    paper_scenario,
    scheduler_from_spec,
)
from repro.simulation.dynamic import DynamicSystemSimulator
from repro.simulation.scenario import ScenarioConfig

__all__ = [
    "dynamic_replication",
    "build_delay_campaign",
    "reduce_delay",
    "reduce_admission",
    "run_delay_vs_load",
    "run_admission_statistics",
    "main",
]


def dynamic_replication(
    params: Mapping[str, object], seed: np.random.SeedSequence
) -> dict:
    """One dynamic-simulation replication, seeded from a seed-tree leaf.

    Shared by the delay-vs-load, capacity and objectives campaigns: ``params``
    carries a complete :class:`ScenarioConfig` plus a scheduler spec, and the
    leaf is collapsed to the scenario's integer master seed.
    """
    scenario: ScenarioConfig = params["scenario"]
    run_config = scenario.with_seed(seed_sequence_to_int(seed))
    simulator = DynamicSystemSimulator(
        run_config, scheduler_from_spec(params["scheduler_spec"])
    )
    outcome = simulator.run()
    return {
        "mean_delay_s": outcome.mean_packet_delay_s,
        "forward_delay_s": outcome.mean_forward_delay_s,
        "reverse_delay_s": outcome.mean_reverse_delay_s,
        "p90_delay_s": outcome.p90_packet_delay_s,
        "carried_kbps": outcome.carried_throughput_bps / 1e3,
        "offered_kbps": outcome.offered_load_bps / 1e3,
        "grant_rate": outcome.grant_rate,
        "mean_granted_m": outcome.mean_granted_m,
        "forward_utilisation": outcome.forward_utilisation,
        "reverse_rise_db": outcome.reverse_rise_db,
        "fch_outage": outcome.fch_outage_fraction,
        "completed_calls": float(outcome.completed_packet_calls),
    }


def build_delay_campaign(
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
) -> Campaign:
    """Declarative (load × scheduler) grid behind :func:`run_delay_vs_load`."""
    loads = list(loads) if loads is not None else [6, 12, 18, 24]
    scenario = scenario if scenario is not None else paper_scenario()
    if scheduler_factories is None:
        specs: Mapping[str, SchedulerSpec] = default_scheduler_specs()
    else:
        specs = dict(scheduler_factories)

    points = [
        {
            "scheduler": label,
            "scheduler_spec": spec,
            "load": int(load),
            "scenario": scenario.with_load(int(load)),
        }
        for load in loads
        for label, spec in specs.items()
    ]
    return Campaign(
        name="F2F3-delay-vs-load",
        runner=dynamic_replication,
        points=points,
        replications=num_seeds,
        root_seed=scenario.seed,
        # One shared seed group: replication r uses the same streams at every
        # load and scheduler (paired comparisons along the whole curve).
        seed_groups=[0] * len(points),
    )


def reduce_delay(campaign_result: CampaignResult) -> ExperimentResult:
    """Aggregate the campaign into the paper-style F2/F3 table."""
    result = ExperimentResult(
        experiment_id="F2/F3",
        title=(
            "Average packet-call delay vs. data users per cell "
            "(forward link = F2, reverse link = F3; "
            f"{campaign_result.replications} seed replications per point)"
        ),
    )
    for point in campaign_result.points:
        delay = point.summarise("mean_delay_s")
        result.add(
            scheduler=point.params["scheduler"],
            data_users_per_cell=int(point.params["load"]),
            mean_delay_s=delay.mean,
            delay_ci_s=delay.ci_half_width,
            **{
                name: point.summarise(name).mean
                for name in (
                    "forward_delay_s",
                    "reverse_delay_s",
                    "p90_delay_s",
                    "carried_kbps",
                    "offered_kbps",
                    "grant_rate",
                    "mean_granted_m",
                    "forward_utilisation",
                    "reverse_rise_db",
                    "fch_outage",
                    "completed_calls",
                )
            },
            n_seeds=delay.count,
        )
    result.notes = (
        "F2 = forward_delay_s column, F3 = reverse_delay_s column; delay_ci_s "
        "is the 95% CI half-width over the n_seeds replications.  Expected "
        "ordering beyond the knee: JABA-SD < EqualShare < FCFS."
    )
    return flag_degraded(result, campaign_result)


def reduce_admission(campaign_result: CampaignResult, load: int) -> ExperimentResult:
    """Aggregate a one-load delay campaign into the T2 admission table."""
    result = ExperimentResult(
        experiment_id="T2",
        title=f"Burst admission statistics at {load} data users per cell",
    )
    for point in campaign_result.points:
        result.add(
            scheduler=point.params["scheduler"],
            **{
                name: point.summarise(name).mean
                for name in (
                    "grant_rate",
                    "mean_granted_m",
                    "carried_kbps",
                    "forward_utilisation",
                    "reverse_rise_db",
                    "fch_outage",
                )
            },
            n_seeds=point.summarise("mean_delay_s").count,
        )
    return flag_degraded(result, campaign_result)


def run_delay_vs_load(
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
    workers: int = 1,
    executor=None,
) -> ExperimentResult:
    """Sweep the data-user population and record per-link packet delays.

    Parameters
    ----------
    loads:
        Numbers of data users per cell (default 6, 12, 18, 24).
    scenario:
        Base dynamic-simulation scenario (default :func:`paper_scenario`);
        its ``seed`` is the root of the campaign seed tree.
    scheduler_factories:
        Mapping of scheduler label to factory (or registry label); defaults
        to JABA-SD(J1/J2), FCFS and equal-share.
    num_seeds:
        Independent seed replications per point.
    workers / executor:
        As in :meth:`~repro.experiments.campaign.Campaign.run`: worker
        processes sharding the replications (bit-identical results) and the
        execution back-end.
    """
    campaign = build_delay_campaign(
        loads=loads,
        scenario=scenario,
        scheduler_factories=scheduler_factories,
        num_seeds=num_seeds,
    )
    return reduce_delay(campaign.run(workers=workers, executor=executor))


def run_admission_statistics(
    load: int = 18,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
    workers: int = 1,
    executor=None,
) -> ExperimentResult:
    """Experiment T2: admission statistics at one fixed (loaded) operating point.

    The campaign is F2/F3's grid at one load under its own name, so after
    :func:`run_delay_vs_load` at that load and scenario every replication
    is served from the process-wide store instead of simulated again.
    """
    campaign = build_delay_campaign(
        loads=[load],
        scenario=scenario,
        scheduler_factories=scheduler_factories,
        num_seeds=num_seeds,
    )
    campaign.name = "T2-admission-statistics"
    return reduce_admission(campaign.run(workers=workers, executor=executor), load)


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_delay_vs_load()
    print(result.to_table())
    print()
    print(run_admission_statistics().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
