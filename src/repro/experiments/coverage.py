"""Experiment F4 — coverage of the high-speed data service.

Coverage is measured with Monte-Carlo drops (:class:`SnapshotSimulator`):
users are placed uniformly, shadowing is drawn, voice users are active with
the stationary activity factor, every data user requests a burst, one
admission decision is run, and a user counts as *covered* when its granted
SCH rate reaches at least a minimum rate.  The experiment sweeps the offered
data load (users per cell) and, optionally, the cell radius.

The sweep is expressed as a :class:`~repro.experiments.campaign.Campaign`:
each grid point is one (load, scheduler[, radius]) combination, each
replication runs ``num_drops`` fresh drops from its own seed-tree leaf, and
the reducer aggregates replications into means with confidence-interval
half-widths.  ``workers > 1`` shards replications across processes with
bit-identical aggregates.

Expected shape: coverage degrades with load for every scheduler, but
JABA-SD keeps more users above the minimum rate than equal-share and FCFS at
the same load (the paper's "coverage" superiority claim); larger cells lower
coverage for all schedulers (path-loss limited).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.experiments.campaign import Campaign, CampaignResult
from repro.experiments.common import (
    ExperimentResult,
    SchedulerSpec,
    default_scheduler_specs,
    flag_degraded,
    scheduler_from_spec,
)
from repro.mac.requests import LinkDirection
from repro.simulation.snapshot import SnapshotSimulator

__all__ = [
    "coverage_replication",
    "build_coverage_campaign",
    "reduce_coverage",
    "run_coverage",
    "main",
]


def coverage_replication(
    params: Mapping[str, object], seed: np.random.SeedSequence
) -> dict:
    """One coverage replication: ``num_drops`` Monte-Carlo drops, one seed leaf."""
    config: SystemConfig = params["config"]
    radius_m = params["radius_m"]
    if radius_m is not None:
        config = config.with_overrides(
            radio=replace(config.radio, cell_radius_m=float(radius_m))
        )
    simulator = SnapshotSimulator(
        config=config,
        scheduler=scheduler_from_spec(params["scheduler_spec"]),
        num_data_users_per_cell=int(params["load"]),
        num_voice_users_per_cell=int(params["num_voice_users_per_cell"]),
        burst_size_bits=float(params["burst_size_bits"]),
        link=LinkDirection(params["link"]),
        min_rate_bps=float(params["min_rate_bps"]),
        seed=seed,
    )
    snapshot = simulator.run_drops(int(params["num_drops"]))
    return {
        "coverage": snapshot.coverage,
        "mean_rate_kbps": snapshot.mean_granted_rate_bps / 1e3,
        "aggregate_kbps": snapshot.aggregate_throughput_bps / 1e3,
        "grant_fraction": snapshot.grant_fraction,
        "fch_outage": snapshot.fch_outage,
    }


def build_coverage_campaign(
    loads: Optional[Sequence[int]] = None,
    cell_radii_m: Optional[Sequence[float]] = None,
    num_drops: int = 30,
    min_rate_bps: float = 38_400.0,
    burst_size_bits: float = 200_000.0,
    num_voice_users_per_cell: int = 8,
    link: LinkDirection = LinkDirection.FORWARD,
    config: Optional[SystemConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    seed: int = 7,
    num_replications: int = 1,
) -> Campaign:
    """Declarative grid behind :func:`run_coverage` (one point per table row)."""
    loads = list(loads) if loads is not None else [4, 8, 16, 24]
    config = config if config is not None else SystemConfig()
    if scheduler_factories is None:
        # Label specs: pickle-friendly, resolved inside the workers.
        specs: Mapping[str, SchedulerSpec] = default_scheduler_specs()
    else:
        specs = dict(scheduler_factories)

    def point(label, spec, load, radius_m):
        return {
            "scheduler": label,
            "scheduler_spec": spec,
            "load": int(load),
            "radius_m": None if radius_m is None else float(radius_m),
            "config": config,
            "num_voice_users_per_cell": int(num_voice_users_per_cell),
            "burst_size_bits": float(burst_size_bits),
            "link": link.value,
            "min_rate_bps": float(min_rate_bps),
            "num_drops": int(num_drops),
        }

    # Points sharing a (load, radius) coordinate share a seed group: every
    # scheduler sees the same drops, so the comparison is paired (the common
    # random numbers the hand-rolled loop used to get by reusing one seed).
    points = []
    seed_groups = []
    group = 0
    for load in loads:
        for label, spec in specs.items():
            points.append(point(label, spec, load, None))
            seed_groups.append(group)
        group += 1
    if cell_radii_m:
        mid_load = loads[len(loads) // 2]
        for radius in cell_radii_m:
            for label, spec in specs.items():
                points.append(point(label, spec, mid_load, radius))
                seed_groups.append(group)
            group += 1
    return Campaign(
        name="F4-coverage",
        runner=coverage_replication,
        points=points,
        replications=num_replications,
        root_seed=seed,
        seed_groups=seed_groups,
        metadata={
            "min_rate_bps": min_rate_bps,
            "num_drops": num_drops,
            "link": link.value,
            "default_radius_m": config.radio.cell_radius_m,
        },
    )


def reduce_coverage(campaign_result: CampaignResult, metadata: Mapping) -> ExperimentResult:
    """Aggregate the campaign into the paper-style F4 table."""
    min_rate_bps = float(metadata["min_rate_bps"])
    num_drops = int(metadata["num_drops"])
    result = ExperimentResult(
        experiment_id="F4",
        title=(
            f"Coverage: fraction of data users granted >= {min_rate_bps / 1e3:.1f} kbps "
            f"({metadata['link']} link, {num_drops} drops x "
            f"{campaign_result.replications} replications per point)"
        ),
    )
    for point in campaign_result.points:
        coverage = point.summarise("coverage")
        radius_m = point.params["radius_m"]
        result.add(
            scheduler=point.params["scheduler"],
            data_users_per_cell=int(point.params["load"]),
            cell_radius_m=float(
                radius_m if radius_m is not None else metadata["default_radius_m"]
            ),
            coverage=coverage.mean,
            coverage_ci=coverage.ci_half_width,
            mean_rate_kbps=point.summarise("mean_rate_kbps").mean,
            aggregate_kbps=point.summarise("aggregate_kbps").mean,
            grant_fraction=point.summarise("grant_fraction").mean,
            fch_outage=point.summarise("fch_outage").mean,
            n_reps=coverage.count,
        )
    result.notes = (
        "Coverage is per-drop averaged; coverage_ci is the 95% CI half-width "
        "over the n_reps seed replications.  At equal load JABA-SD is expected "
        "to keep the largest fraction of users above the minimum rate."
    )
    return flag_degraded(result, campaign_result)


def run_coverage(
    loads: Optional[Sequence[int]] = None,
    cell_radii_m: Optional[Sequence[float]] = None,
    num_drops: int = 30,
    min_rate_bps: float = 38_400.0,
    burst_size_bits: float = 200_000.0,
    num_voice_users_per_cell: int = 8,
    link: LinkDirection = LinkDirection.FORWARD,
    config: Optional[SystemConfig] = None,
    scheduler_factories: Optional[Mapping[str, SchedulerSpec]] = None,
    seed: int = 7,
    num_replications: int = 1,
    workers: int = 1,
    executor=None,
) -> ExperimentResult:
    """Coverage vs. data load (and optionally cell radius) per scheduler.

    Parameters
    ----------
    loads:
        Data users per cell requesting simultaneously (default 4, 8, 16, 24).
    cell_radii_m:
        Cell radii swept at the middle load; ``None`` keeps the configured
        radius only.
    num_drops:
        Monte-Carlo drops per replication.
    min_rate_bps:
        Rate threshold defining a covered user.
    link:
        Link on which the requests are placed.
    seed:
        Root of the deterministic seed tree (see
        :mod:`repro.experiments.campaign`).
    num_replications:
        Independent seed replications per grid point (the CI axis).
    workers / executor:
        As in :meth:`~repro.experiments.campaign.Campaign.run`: worker
        processes sharding the replications (bit-identical aggregates for
        any value) and the execution back-end.
    """
    campaign = build_coverage_campaign(
        loads=loads,
        cell_radii_m=cell_radii_m,
        num_drops=num_drops,
        min_rate_bps=min_rate_bps,
        burst_size_bits=burst_size_bits,
        num_voice_users_per_cell=num_voice_users_per_cell,
        link=link,
        config=config,
        scheduler_factories=scheduler_factories,
        seed=seed,
        num_replications=num_replications,
    )
    outcome = campaign.run(workers=workers, executor=executor)
    return reduce_coverage(outcome, campaign.metadata)


def main() -> None:  # pragma: no cover - CLI entry point
    print(run_coverage().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
