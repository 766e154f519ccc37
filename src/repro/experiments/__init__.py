"""Evaluation harness: regenerates every table and figure of the reproduction.

The paper's own evaluation section defers the numeric results to a companion
technical report, but it states the evaluation methodology (dynamic
simulations with user mobility, power control and soft hand-off) and the
reported metrics (average packet delay, data user capacity, coverage).  Each
module here regenerates one of the paper's experiments:

========  ==================================================================
ID        Module
========  ==================================================================
F1        :mod:`repro.experiments.phy_throughput`
F2 / F3   :mod:`repro.experiments.delay_vs_load`
F4        :mod:`repro.experiments.coverage`
F5        :mod:`repro.experiments.objectives_tradeoff`
F6        :mod:`repro.experiments.solver_ablation`
T1        :mod:`repro.experiments.capacity`
T2        :mod:`repro.experiments.delay_vs_load` (admission statistics)
T3        :mod:`repro.experiments.handoff_ablation`
========  ==================================================================

Every module exposes a ``run_*`` function returning an
:class:`~repro.experiments.common.ExperimentResult` and a ``main()`` that
prints the paper-style table; the corresponding pytest-benchmark lives in
``benchmarks/``.  The Monte-Carlo experiments (F2–F5, T1, T2 and the paired
comparison of :mod:`repro.experiments.compare`) are each a
``build_*_campaign`` function plus a ``reduce_*`` reducer, and their
``run_*`` function is exactly ``reduce(build(...).run(workers=...,
executor=...))``.  A campaign's other run options — checkpoint, tracing,
sequential stopping — are set on the
:class:`~repro.experiments.campaign.Campaign` itself, as ``python -m
repro.experiments`` and ``report --compare`` do.  A campaign runs in-process
(:class:`~repro.experiments.executors.SerialExecutor`) or, at ``workers >
1``, on the fault-tolerant worker processes of
:class:`~repro.experiments.executors.ResilientExecutor`; the aggregates are
bit-identical either way.
"""

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    DeltaSummary,
    MetricSummary,
    replication_seed,
    seed_sequence_to_int,
)
from repro.experiments.common import (
    ExperimentResult,
    default_scheduler_specs,
    flag_degraded,
    paper_scenario,
    paper_traffic,
    scheduler_from_spec,
)
from repro.experiments.executors import ResilientExecutor, SerialExecutor
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.journal import CheckpointJournal
from repro.experiments.phy_throughput import run_phy_throughput
from repro.experiments.compare import compare_schedulers, run_scheduler_comparison
from repro.experiments.delay_vs_load import run_delay_vs_load, run_admission_statistics
from repro.experiments.capacity import run_capacity
from repro.experiments.coverage import run_coverage
from repro.experiments.objectives_tradeoff import run_objectives_tradeoff
from repro.experiments.solver_ablation import run_solver_ablation
from repro.experiments.handoff_ablation import run_handoff_ablation

__all__ = [
    "Campaign",
    "CampaignResult",
    "DeltaSummary",
    "MetricSummary",
    "replication_seed",
    "seed_sequence_to_int",
    "scheduler_from_spec",
    "ExperimentResult",
    "flag_degraded",
    "SerialExecutor",
    "ResilientExecutor",
    "CheckpointJournal",
    "FaultPlan",
    "FaultSpec",
    "default_scheduler_specs",
    "paper_scenario",
    "paper_traffic",
    "run_phy_throughput",
    "compare_schedulers",
    "run_scheduler_comparison",
    "run_delay_vs_load",
    "run_admission_statistics",
    "run_capacity",
    "run_coverage",
    "run_objectives_tradeoff",
    "run_solver_ablation",
    "run_handoff_ablation",
]
