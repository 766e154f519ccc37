"""Experiment F5 — objective J1 vs. J2: throughput / delay trade-off.

The paper motivates objective J2 (eq. (20)) as a compromise between system
utilisation and overall system delay: the delay penalty f(w, m*delta_rho)
boosts requests that have been waiting, "despite the fact that those requests
may be at poor transmission rate".  This experiment sweeps the delay-penalty
scaling factor ``lambda`` (``delay_penalty_scale``) and records mean delay,
tail delay and carried throughput, with ``lambda = 0`` reducing exactly to
J1.

The sweep is a :class:`~repro.experiments.campaign.Campaign` with one grid
point per ``lambda`` and a shared seed group (every ``lambda`` replays the
same traffic sample paths, so the trade-off curve is paired).  The
``lambda = 0`` point is F2/F3's JABA-SD(J1) point at the same load, so after
:func:`~repro.experiments.delay_vs_load.run_delay_vs_load` in one process its
replications are served from F2/F3's instead of simulated again.

Expected shape: increasing ``lambda`` shortens the delay tail (p90) at the
cost of a small loss in carried throughput, because the scheduler
occasionally serves stale requests from users in poor channel conditions
instead of the instantaneously most efficient ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.campaign import Campaign, CampaignResult
from repro.experiments.common import ExperimentResult, flag_degraded, paper_scenario
from repro.experiments.delay_vs_load import dynamic_replication
from repro.simulation.scenario import ScenarioConfig

__all__ = [
    "build_objectives_campaign",
    "reduce_objectives",
    "run_objectives_tradeoff",
    "main",
]


def build_objectives_campaign(
    penalty_scales: Optional[Sequence[float]] = None,
    forgetting_factor: float = 0.2,
    load: int = 18,
    scenario: Optional[ScenarioConfig] = None,
    num_seeds: int = 1,
) -> Campaign:
    """Declarative ``lambda`` grid behind :func:`run_objectives_tradeoff`."""
    penalty_scales = (
        list(penalty_scales) if penalty_scales is not None else [0.0, 0.5, 1.0, 2.0, 4.0]
    )
    base = scenario if scenario is not None else paper_scenario()
    base = base.with_load(int(load))

    points = []
    for scale in penalty_scales:
        if scale == 0:
            # lambda = 0 is JABA-SD(J1), which reads neither MAC delay field:
            # the point is F2/F3's J1 point at this load, so a report runs
            # its replications once.
            label, point_scenario = "JABA-SD(J1)", base
        else:
            mac = replace(
                base.system.mac,
                delay_penalty_scale=float(scale),
                delay_forgetting_factor=forgetting_factor,
            )
            label = "JABA-SD(J2)"
            point_scenario = replace(base, system=base.system.with_overrides(mac=mac))
        points.append(
            {
                "scheduler": label,
                "scheduler_spec": label,
                "load": int(load),
                "scenario": point_scenario,
            }
        )
    return Campaign(
        name="F5-objectives-tradeoff",
        runner=dynamic_replication,
        points=points,
        replications=num_seeds,
        root_seed=base.seed,
        # All lambdas replay the same replication streams (paired curve).
        seed_groups=[0] * len(points),
        metadata={"forgetting_factor": forgetting_factor, "load": int(load)},
    )


def reduce_objectives(
    campaign_result: CampaignResult, forgetting_factor: float, load: int
) -> ExperimentResult:
    """Aggregate the campaign into the paper-style F5 table."""
    result = ExperimentResult(
        experiment_id="F5",
        title=(
            "J1 vs. J2 trade-off: delay and throughput as the delay-penalty "
            f"weight lambda varies (mu = {forgetting_factor}, {load} data "
            f"users/cell, {campaign_result.replications} seed replications)"
        ),
    )
    for point in campaign_result.points:
        delay = point.summarise("mean_delay_s")
        j1 = point.params["scheduler"] == "JABA-SD(J1)"
        mac = point.params["scenario"].system.mac
        result.add(
            objective="J1" if j1 else "J2",
            delay_penalty_scale=0.0 if j1 else float(mac.delay_penalty_scale),
            mean_delay_s=delay.mean,
            delay_ci_s=delay.ci_half_width,
            p90_delay_s=point.summarise("p90_delay_s").mean,
            carried_kbps=point.summarise("carried_kbps").mean,
            mean_granted_m=point.summarise("mean_granted_m").mean,
            completed_calls=point.summarise("completed_calls").mean,
            n_seeds=delay.count,
        )
    result.notes = (
        "lambda = 0 is exactly objective J1; larger lambda trades carried "
        "throughput for a shorter delay tail."
    )
    return flag_degraded(result, campaign_result)


def run_objectives_tradeoff(
    penalty_scales: Optional[Sequence[float]] = None,
    forgetting_factor: float = 0.2,
    load: int = 18,
    scenario: Optional[ScenarioConfig] = None,
    num_seeds: int = 1,
    workers: int = 1,
    executor=None,
) -> ExperimentResult:
    """Sweep the delay-penalty weight of objective J2 at a fixed (loaded) point.

    Parameters
    ----------
    penalty_scales:
        Values of ``lambda`` (``delay_penalty_scale``); 0 reproduces J1.
    forgetting_factor:
        ``mu`` (``delay_forgetting_factor``) used for all non-zero points.
    load:
        Data users per cell (choose a point beyond the knee of F2).
    num_seeds / workers / executor:
        As in :func:`repro.experiments.delay_vs_load.run_delay_vs_load`.
    """
    campaign = build_objectives_campaign(
        penalty_scales=penalty_scales,
        forgetting_factor=forgetting_factor,
        load=load,
        scenario=scenario,
        num_seeds=num_seeds,
    )
    outcome = campaign.run(workers=workers, executor=executor)
    return reduce_objectives(outcome, forgetting_factor, load)


def main() -> None:  # pragma: no cover - CLI entry point
    print(run_objectives_tradeoff().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
