"""Paired scheduler comparison under common random numbers (CRN).

The delay campaign already places every (load, scheduler) point in one shared
seed group, so replication ``r`` of scheduler A and replication ``r`` of
scheduler B replay the *same* traffic sample paths.  This module turns that
design into headline numbers: per-load paired deltas ``A - B`` with the
paired-t interval on the per-replication differences, next to the Welch
interval that pretends the runs were independent.  The ratio of the two
half-widths is the variance reduction bought by CRN — on the scheduler
comparisons of this evaluation it is typically well below one, i.e. a paired
campaign resolves a scheduler gap with far fewer replications than an
unpaired one.

Exposed both as a library call (:func:`run_scheduler_comparison`, which is
:func:`build_comparison_campaign` reduced by :func:`compare_schedulers`) and
as the report CLI's ``--compare A B`` mode (``python -m repro.experiments
report --compare "JABA-SD(J1)" FCFS``), which runs the same campaign and sets
its sequential stopping rule (``--ci-target``) on the campaign itself.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.experiments.campaign import Campaign, CampaignResult, DeltaSummary
from repro.experiments.common import ExperimentResult, flag_degraded
from repro.experiments.delay_vs_load import build_delay_campaign
from repro.simulation.scenario import ScenarioConfig

__all__ = ["build_comparison_campaign", "compare_schedulers", "run_scheduler_comparison"]


def compare_schedulers(
    campaign_result: CampaignResult,
    label_a: str,
    label_b: str,
    metrics: Optional[Sequence[str]] = None,
    confidence: float = 0.95,
) -> ExperimentResult:
    """Reduce a delay campaign into per-load paired deltas between two schedulers.

    For every load in the grid the points labelled ``label_a`` and ``label_b``
    are located and :meth:`CampaignResult.compare_points` computes the paired
    delta (they must share a seed group — the delay campaign's default).  One
    table row per (load, metric) records the two means, the delta, the
    paired-t half-width, the Welch half-width on the same samples, and their
    ratio.

    Parameters
    ----------
    campaign_result:
        A finished campaign whose point params carry ``scheduler`` and
        ``load`` keys (:func:`~repro.experiments.delay_vs_load.build_delay_campaign`).
    label_a / label_b:
        Scheduler labels as they appear in the grid; the delta is ``A - B``.
    metrics:
        Metric names to difference (default: ``mean_delay_s`` plus
        ``p90_delay_s`` and ``carried_kbps`` when present).

    A load where either point lost every replication keeps its rows, with
    ``n_pairs=0`` and NaN statistics, and the table's DEGRADED note names the
    point (:func:`~repro.experiments.common.flag_degraded`).
    """
    by_label_load: dict = {}
    loads: list = []
    for index, point in enumerate(campaign_result.points):
        label = point.params.get("scheduler")
        load = point.params.get("load")
        by_label_load[(label, load)] = index
        if load not in loads:
            loads.append(load)
    for label in (label_a, label_b):
        if not any(key[0] == label for key in by_label_load):
            available = sorted({str(key[0]) for key in by_label_load})
            raise ValueError(
                f"scheduler {label!r} is not in the campaign grid; "
                f"available labels: {available}"
            )

    result = ExperimentResult(
        experiment_id="CMP",
        title=(
            f"Paired CRN comparison: {label_a} minus {label_b} "
            f"({campaign_result.replications} shared seed replications per point)"
        ),
    )
    for load in loads:
        index_a = by_label_load.get((label_a, load))
        index_b = by_label_load.get((label_b, load))
        if index_a is None or index_b is None:
            continue
        deltas = campaign_result.compare_points(index_a, index_b, confidence)
        lost = not (
            campaign_result.points[index_a].replications
            and campaign_result.points[index_b].replications
        )
        if metrics is None:
            wanted = ["mean_delay_s"] + [
                name for name in ("p90_delay_s", "carried_kbps") if name in deltas
            ]
        else:
            wanted = list(metrics)
        for name in wanted:
            if name in deltas:
                d = deltas[name]
            elif lost:
                d = DeltaSummary(0, *[math.nan] * 5)
            else:
                raise ValueError(
                    f"metric {name!r} is not shared by both points at load "
                    f"{load!r}; available: {sorted(deltas)}"
                )
            ratio = (
                d.ci_half_width / d.unpaired_ci_half_width
                if d.unpaired_ci_half_width and d.unpaired_ci_half_width > 0.0
                else float("nan")
            )
            result.add(
                data_users_per_cell=load,
                metric=name,
                mean_a=d.mean_a,
                mean_b=d.mean_b,
                delta=d.delta,
                paired_ci=d.ci_half_width,
                unpaired_ci=d.unpaired_ci_half_width,
                ci_ratio=ratio,
                n_pairs=d.count,
                n_nonfinite=d.non_finite,
            )
    result.notes = (
        f"delta = {label_a} - {label_b} on shared replication streams; "
        "paired_ci is the paired-t 95% half-width on the per-replication "
        "differences, unpaired_ci the Welch half-width on the same samples. "
        "ci_ratio < 1 quantifies the variance reduction from common random "
        "numbers; a delta whose |delta| exceeds paired_ci is resolved."
    )
    return flag_degraded(result, campaign_result)


def build_comparison_campaign(
    scheduler_a: str = "JABA-SD(J1)",
    scheduler_b: str = "FCFS",
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    num_seeds: int = 4,
) -> Campaign:
    """The F2/F3 delay campaign restricted to two schedulers.

    Both share one seed group, so the comparison is paired by construction.
    The labels double as registry specs (``"JABA-SD(J1)"``, ``"FCFS"``,
    ``"jaba-sd:objective=J2"``...); ``loads`` / ``scenario`` / ``num_seeds``
    are as in :func:`~repro.experiments.delay_vs_load.build_delay_campaign`.
    """
    if scheduler_a == scheduler_b:
        raise ValueError("compare needs two distinct scheduler labels")
    campaign = build_delay_campaign(
        loads=loads,
        scenario=scenario,
        scheduler_factories={scheduler_a: scheduler_a, scheduler_b: scheduler_b},
        num_seeds=num_seeds,
    )
    campaign.name = f"CMP-{scheduler_a}-vs-{scheduler_b}"
    return campaign


def run_scheduler_comparison(
    scheduler_a: str = "JABA-SD(J1)",
    scheduler_b: str = "FCFS",
    loads: Optional[Sequence[int]] = None,
    scenario: Optional[ScenarioConfig] = None,
    num_seeds: int = 4,
    workers: int = 1,
    executor=None,
) -> ExperimentResult:
    """Run :func:`build_comparison_campaign` and reduce it to paired deltas.

    ``workers`` / ``executor`` are as in
    :meth:`~repro.experiments.campaign.Campaign.run`.
    """
    campaign = build_comparison_campaign(
        scheduler_a, scheduler_b, loads=loads, scenario=scenario, num_seeds=num_seeds
    )
    outcome = campaign.run(workers=workers, executor=executor)
    return compare_schedulers(outcome, scheduler_a, scheduler_b)
