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
        summary = point.summary()
        delay = summary["mean_delay_s"]
        result.add(
            scheduler=point.params["scheduler"],
            data_users_per_cell=int(point.params["load"]),
            mean_delay_s=delay.mean,
            delay_ci_s=delay.ci_half_width,
            forward_delay_s=summary["forward_delay_s"].mean,
            reverse_delay_s=summary["reverse_delay_s"].mean,
            p90_delay_s=summary["p90_delay_s"].mean,
            carried_kbps=summary["carried_kbps"].mean,
            offered_kbps=summary["offered_kbps"].mean,
            grant_rate=summary["grant_rate"].mean,
            mean_granted_m=summary["mean_granted_m"].mean,
            forward_utilisation=summary["forward_utilisation"].mean,
            reverse_rise_db=summary["reverse_rise_db"].mean,
            fch_outage=summary["fch_outage"].mean,
            completed_calls=summary["completed_calls"].mean,
            n_seeds=delay.count,
        )
    result.notes = (
        "F2 = forward_delay_s column, F3 = reverse_delay_s column; delay_ci_s "
        "is the 95% CI half-width over the n_seeds replications.  Expected "
        "ordering beyond the knee: JABA-SD < EqualShare < FCFS."
    )
    return flag_degraded(result, campaign_result)


def run_delay_vs_load(
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    executor=None,
    trace_dir: Optional[str] = None,
    ci_target: Optional[float] = None,
    ci_metric: Optional[str] = None,
    max_replications: Optional[int] = None,
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
    workers:
        Worker processes sharding the replications (bit-identical results).
    checkpoint_path:
        Optional JSON checkpoint enabling resume of interrupted sweeps.
    executor:
        Execution back-end override (``"serial"``, ``"resilient"``,
        ``"swarm"`` or an :class:`~repro.experiments.executors.Executor`
        instance); the default is serial at ``workers=1`` and resilient
        above.
    trace_dir:
        Optional directory receiving structured campaign telemetry
        (``campaign.jsonl`` + one JSONL trace per replication, including
        the dynamic runs' frame/stage/admission events).
    ci_target / ci_metric / max_replications:
        Optional sequential stopping: issue replications in waves of
        ``num_seeds`` until the 95% CI half-width of ``ci_metric`` (default
        ``mean_delay_s``) is at most ``ci_target`` at every grid point (see
        :meth:`~repro.experiments.campaign.Campaign.configure_sequential`).
    """
    campaign = build_delay_campaign(
        loads=loads,
        scenario=scenario,
        scheduler_factories=scheduler_factories,
        num_seeds=num_seeds,
    )
    campaign.configure_sequential(
        ci_target,
        ci_metric if ci_metric is not None else "mean_delay_s",
        max_replications=max_replications,
    )
    outcome = campaign.run(
        workers=workers,
        checkpoint_path=checkpoint_path,
        executor=executor,
        trace_dir=trace_dir,
    )
    return reduce_delay(outcome)


def run_admission_statistics(
    load: int = 18,
    scenario: Optional[ScenarioConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    num_seeds: int = 1,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
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
    sweep = reduce_delay(
        campaign.run(
            workers=workers, checkpoint_path=checkpoint_path, executor=executor
        )
    )
    result = ExperimentResult(
        experiment_id="T2",
        title=f"Burst admission statistics at {load} data users per cell",
        records=[
            {
                "scheduler": r["scheduler"],
                "grant_rate": r["grant_rate"],
                "mean_granted_m": r["mean_granted_m"],
                "carried_kbps": r["carried_kbps"],
                "forward_utilisation": r["forward_utilisation"],
                "reverse_rise_db": r["reverse_rise_db"],
                "fch_outage": r["fch_outage"],
                "n_seeds": r["n_seeds"],
            }
            for r in sweep.records
        ],
    )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_delay_vs_load()
    print(result.to_table())
    print()
    print(run_admission_statistics().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
