"""Parallel Monte-Carlo campaign engine.

The paper's headline numbers (capacity, coverage, delay-vs-load, objective
trade-offs) are Monte-Carlo estimates: every experiment point must be
replicated over independent seeds before a mean and a confidence interval
mean anything.  This module turns the fast single-run simulator into a
production-scale estimator:

* a :class:`Campaign` is a declarative grid of experiment points (scenario ×
  load × scheduler …), each replicated ``replications`` times;
* every replication draws its randomness from a **deterministic seed tree**:
  leaf ``(point, replication)`` of root seed ``s`` is
  ``SeedSequence(entropy=s, spawn_key=(point, replication))``, so the stream
  a replication sees depends only on its coordinates — never on execution
  order, worker count or process identity;
* execution is delegated to a pluggable **executor**
  (:mod:`repro.experiments.executors`): in-process (``workers=1``), the
  fault-tolerant :class:`~repro.experiments.executors.ResilientExecutor`
  (``workers > 1``) with per-task timeouts, retry/backoff, dead-worker
  respawn, speculative straggler re-issue and poisoned-task quarantine, or
  the :class:`~repro.experiments.swarm.SwarmExecutor`, which runs the same
  policy over leases on a shared directory; because of the seed-tree
  contract the aggregated results are **bit-identical for any executor,
  worker count and retry history** (a re-executed task recomputes exactly
  the same bytes);
* every completed replication is appended to a write-ahead journal
  (:class:`~repro.experiments.journal.CheckpointJournal`) compacted into a
  JSON checkpoint, so a killed campaign resumes without recomputing
  finished work; a corrupt (e.g. mid-write-truncated) checkpoint is
  quarantined to ``<path>.corrupt`` instead of crashing the resume, and
  SIGINT/SIGTERM flush a final checkpoint and terminate the workers
  promptly;
* quarantined (permanently failing) replications degrade only their grid
  point: the failure count is carried on :class:`PointResult` /
  :class:`MetricSummary` and the experiment reducers flag the degraded
  cells, the campaign itself completes;
* completed replications are published to a process-wide store, so a
  replication that another campaign of the same process already computed
  (T1 and T2 repeat F2/F3's runs, F5's ``lambda = 0`` point is F2/F3's
  JABA-SD(J1) point) is served from memory instead of simulated again —
  bit-identically, because a replication is a pure function of its runner,
  its point and its seed-tree coordinates (see :meth:`Campaign.run`);
* a seeded chaos harness (:mod:`repro.experiments.faults`) injects worker
  crashes, runner exceptions and delays at chosen ``(point, replication)``
  coordinates so the fault-tolerance layer is provable, not assumed;
* per-point aggregation (mean / CI half-width / extremes) goes through
  :mod:`repro.utils.stats`; ``tests/test_campaign.py`` certifies with
  ``scipy.stats`` tests that the seed tree produces independent streams.

The engine is deliberately simulator-agnostic: a *runner* is any picklable
module-level callable ``runner(params, seed_sequence) -> dict[str, float]``.
The experiment modules (:mod:`repro.experiments.coverage`,
:mod:`repro.experiments.delay_vs_load`, …) each expose such a runner plus a
reducer that turns the campaign result back into the paper-style table.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.executors import (
    Executor,
    ResilientExecutor,
    SerialExecutor,
    TaskSpec,
)
from repro.experiments.journal import CheckpointJournal
from repro.experiments.swarm import SwarmExecutor
from repro.utils.hooks import SimHooks, resolve_hooks
from repro.utils.recorder import EventRecorder, JsonlSink, use_recorder
from repro.utils.rng import AntitheticRng
from repro.utils.stats import (
    confidence_interval,
    paired_confidence_interval,
    unpaired_confidence_interval,
)

__all__ = [
    "replication_seed",
    "seed_sequence_to_int",
    "AntitheticSeedSequence",
    "is_antithetic",
    "rng_for_leaf",
    "grid_points",
    "clear_shared_replications",
    "MetricSummary",
    "DeltaSummary",
    "PointResult",
    "CampaignResult",
    "Campaign",
    "main",
]

#: An executor may be passed as an instance or by name (``"serial"``,
#: ``"resilient"``, ``"swarm"``); names are resolved against the campaign's
#: ``workers`` argument at run time.
ExecutorSpec = Union[str, Executor]

MetricDict = Dict[str, float]
Runner = Callable[[Mapping[str, object], np.random.SeedSequence], MetricDict]


# ---------------------------------------------------------------------------
# Deterministic seed tree
# ---------------------------------------------------------------------------
class AntitheticSeedSequence(np.random.SeedSequence):
    """A seed-tree leaf whose stream must be *reflected*, not consumed as-is.

    It seeds a generator to the exact same state as the plain leaf with the
    same coordinates; the ``antithetic`` marker tells the runner (through
    :func:`rng_for_leaf`) to wrap that generator in
    :class:`repro.utils.rng.AntitheticRng`, which mirrors every draw.
    Runners that ignore the marker would silently break the negative
    coupling, so :func:`seed_sequence_to_int` refuses antithetic leaves.
    """

    antithetic = True


def is_antithetic(sequence: np.random.SeedSequence) -> bool:
    """Whether a seed-tree leaf requests the antithetic (mirrored) stream."""
    return bool(getattr(sequence, "antithetic", False))


def rng_for_leaf(sequence: np.random.SeedSequence):
    """Build the generator a runner should draw from for this leaf.

    Plain leaves give an ordinary :class:`numpy.random.Generator`; leaves
    marked antithetic give an :class:`repro.utils.rng.AntitheticRng` whose
    underlying generator is seeded identically to the primary replication of
    the pair, so every draw is the primary draw reflected.  Runners that
    opt in to antithetic campaigns must obtain their generator through this
    helper instead of ``np.random.default_rng(seed)``.
    """
    if is_antithetic(sequence):
        primary = np.random.SeedSequence(
            entropy=sequence.entropy, spawn_key=tuple(sequence.spawn_key)
        )
        return AntitheticRng(np.random.default_rng(primary))
    return np.random.default_rng(sequence)


def replication_seed(
    root_seed: int, seed_group: int, replication: int, antithetic: bool = False
) -> np.random.SeedSequence:
    """Seed-tree leaf for replication ``replication`` of group ``seed_group``.

    The leaf is addressed purely by its coordinates via the ``spawn_key``
    mechanism of :class:`numpy.random.SeedSequence`, so any shard of any
    worker reconstructs exactly the same stream without coordination — the
    determinism contract the campaign engine is built on.  Points sharing a
    seed group (common-random-numbers designs) share leaves; distinct
    ``(seed_group, replication)`` coordinates give provably independent
    streams.  ``antithetic=True`` returns the same coordinates marked as an
    :class:`AntitheticSeedSequence` — the mirror stream of the plain leaf.
    """
    if seed_group < 0 or replication < 0:
        raise ValueError("seed_group and replication must be non-negative")
    cls = AntitheticSeedSequence if antithetic else np.random.SeedSequence
    return cls(
        entropy=int(root_seed), spawn_key=(int(seed_group), int(replication))
    )


def seed_sequence_to_int(sequence: np.random.SeedSequence) -> int:
    """Collapse a seed-tree leaf to a 64-bit integer master seed.

    Used to drive components whose configuration takes a plain integer seed
    (e.g. :attr:`repro.simulation.scenario.ScenarioConfig.seed`); the mapping
    is injective enough in practice that distinct leaves keep distinct
    streams (certified by the collision tests in the campaign test suite).

    Antithetic leaves are refused: an integer master seed reconstructs the
    *primary* stream, which would silently drop the reflection and destroy
    the negative coupling the pair exists for.  Runners that support
    antithetic campaigns must draw through :func:`rng_for_leaf` instead.
    """
    if is_antithetic(sequence):
        raise ValueError(
            "antithetic seed leaf cannot be collapsed to an integer seed; "
            "the runner must build its generator with rng_for_leaf() to "
            "honour the mirrored stream"
        )
    return int(sequence.generate_state(1, np.uint64)[0])


def grid_points(
    axes: Mapping[str, Sequence[object]],
    paired: Sequence[str] = ("scheduler",),
) -> Tuple[List[Dict[str, object]], List[int]]:
    """Cartesian-product grid with common-random-numbers seed groups.

    ``axes`` maps axis name to its values; the returned points enumerate the
    full product (in ``itertools.product`` order, first axis slowest).  The
    returned seed groups make every point that differs only in the ``paired``
    axes share a group — the CRN design that makes *policy* comparisons
    paired: with ``paired=("scheduler",)``, every scheduler sees the same
    replication streams at each load, exactly as the hand-built delay and
    coverage grids arrange.  Feed both lists to :class:`Campaign`::

        points, groups = grid_points(
            {"load": [6, 12], "scheduler": ["JABA-SD(J1)", "proportional-fair"]}
        )
        Campaign(..., points=points, seed_groups=groups)
    """
    names = list(axes)
    unknown = [name for name in paired if name not in names]
    if unknown:
        raise ValueError(
            f"paired axes {unknown} are not grid axes; axes: {names}"
        )
    points: List[Dict[str, object]] = []
    seed_groups: List[int] = []
    group_of: Dict[Tuple[str, ...], int] = {}
    for combo in itertools.product(*(list(axes[name]) for name in names)):
        point = dict(zip(names, combo))
        key = tuple(
            Campaign._stable_repr(point[name]) for name in names if name not in paired
        )
        seed_groups.append(group_of.setdefault(key, len(group_of)))
        points.append(point)
    return points, seed_groups


# ---------------------------------------------------------------------------
# Process-wide store of completed replications
# ---------------------------------------------------------------------------
#: Every replication completed by a successful :meth:`Campaign.run` in this
#: process: share key (see :meth:`Campaign._share_prefixes`) -> (name of the
#: campaign that produced it, metrics).  An entry is one metrics dict — 12
#: floats, about 1 KB, for the dynamic runner; the quick report stores 42
#: entries and the full report 158.  There is no eviction.
_SHARED: Dict[tuple, Tuple[str, MetricDict]] = {}


def clear_shared_replications() -> None:
    """Empty the process-wide store of completed replications.

    Later campaigns compute every replication again.  The test suites call
    it before each test, so hook, trace and executor counts never depend on
    test order.
    """
    _SHARED.clear()


def _importable(fn: object) -> bool:
    """Whether ``fn`` is reachable by its qualified name (pickles by reference).

    Only such callables are named uniquely by :meth:`Campaign._stable_repr`:
    two lambdas, closures or partials of one module share a name.
    """
    target = sys.modules.get(getattr(fn, "__module__", None) or "")
    for part in (getattr(fn, "__qualname__", None) or "<").split("."):
        target = getattr(target, part, None)
    return target is fn


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric over the replications of one point.

    ``failed`` counts replications of the point that were quarantined by a
    fault-tolerant executor and therefore contribute no sample — a non-zero
    value marks a *degraded* cell whose mean/CI rest on fewer replications
    than the campaign requested.  ``non_finite`` counts replications that
    *did* complete but produced a NaN/inf value for this metric; they are
    excluded from the aggregates and flag the cell as degraded the same way
    ``failed`` does (a mean quietly computed over fewer samples than the
    campaign ran would otherwise look clean).
    """

    count: int
    mean: float
    ci_half_width: float
    std: float
    min: float
    max: float
    failed: int = 0
    non_finite: int = 0

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], confidence: float = 0.95, failed: int = 0
    ) -> "MetricSummary":
        """Summarise ``samples`` with a Student-t confidence interval."""
        arr = np.asarray(list(samples), dtype=float)
        finite = arr[np.isfinite(arr)]
        non_finite = int(arr.size - finite.size)
        if finite.size == 0:
            return cls(
                0,
                math.nan,
                math.nan,
                math.nan,
                math.nan,
                math.nan,
                failed=failed,
                non_finite=non_finite,
            )
        mean, half = confidence_interval(finite, confidence)
        std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
        return cls(
            count=int(finite.size),
            mean=mean,
            ci_half_width=half,
            std=std,
            min=float(finite.min()),
            max=float(finite.max()),
            failed=failed,
            non_finite=non_finite,
        )


@dataclass(frozen=True)
class DeltaSummary:
    """Paired difference of one metric between two grid points under CRN.

    ``delta`` is ``mean_a - mean_b`` over the ``count`` replication pairs
    the two points share; ``ci_half_width`` is the paired-t interval on the
    per-pair differences, while ``unpaired_ci_half_width`` is the Welch
    interval that ignores the pairing — quoting both makes the variance
    reduction bought by common random numbers visible.  ``non_finite``
    counts pairs dropped because either side was NaN/inf.
    """

    count: int
    mean_a: float
    mean_b: float
    delta: float
    ci_half_width: float
    unpaired_ci_half_width: float
    non_finite: int = 0


@dataclass
class PointResult:
    """All replications of one grid point, keyed by replication index.

    ``failures`` maps the replication indices that a fault-tolerant executor
    quarantined (exhausted retries) to the last failure reason; those
    replications are absent from ``replications`` and the point's summaries
    are computed over the survivors only.

    When the campaign ran with ``antithetic=True``, replication ``2k + 1``
    is the mirrored stream of replication ``2k``; the statistical unit is
    then the *pair*, and :meth:`samples` returns within-pair averages
    (pairs with a missing member are dropped — half a pair is not an
    unbiased draw of the pair mean).
    """

    index: int
    params: Dict[str, object]
    replications: Dict[int, MetricDict] = field(default_factory=dict)
    failures: Dict[int, str] = field(default_factory=dict)
    antithetic: bool = False
    seed_group: Optional[int] = None

    def metric_names(self) -> List[str]:
        """Union of metric names over the replications, insertion-ordered."""
        names: Dict[str, None] = {}
        for rep in sorted(self.replications):
            for key in self.replications[rep]:
                names.setdefault(key, None)
        return list(names)

    def sample_map(self, metric: str) -> Dict[int, float]:
        """The metric's samples keyed by statistical unit.

        Plain campaigns key by replication index; antithetic campaigns key
        by pair index ``k`` with the within-pair average of replications
        ``2k`` and ``2k + 1`` as the value.  The keys are what makes CRN
        deltas between two points pair the *same* streams (see
        :meth:`CampaignResult.compare_points`).
        """
        if not self.antithetic:
            return {
                rep: float(self.replications[rep][metric])
                for rep in sorted(self.replications)
                if metric in self.replications[rep]
            }
        pairs: Dict[int, float] = {}
        for rep in sorted(self.replications):
            if rep % 2 or (rep + 1) not in self.replications:
                continue
            primary = self.replications[rep]
            mirror = self.replications[rep + 1]
            if metric in primary and metric in mirror:
                pairs[rep // 2] = 0.5 * (
                    float(primary[metric]) + float(mirror[metric])
                )
        return pairs

    def samples(self, metric: str) -> List[float]:
        """The metric's samples in replication order (determinism anchor)."""
        sample_map = self.sample_map(metric)
        return [sample_map[key] for key in sorted(sample_map)]

    def non_finite_replications(self) -> List[int]:
        """Replications that completed but produced any NaN/inf metric."""
        return [
            rep
            for rep in sorted(self.replications)
            if any(
                not math.isfinite(float(value))
                for value in self.replications[rep].values()
            )
        ]

    def summary(self, confidence: float = 0.95) -> Dict[str, MetricSummary]:
        """Per-metric aggregate over the replications."""
        return {
            name: MetricSummary.from_samples(
                self.samples(name), confidence, failed=len(self.failures)
            )
            for name in self.metric_names()
        }


@dataclass
class CampaignResult:
    """Outcome of a campaign run.

    ``executor_name`` / ``executor_stats`` record which back-end executed the
    run and its fault-tolerance accounting (retries, timeouts, respawns,
    speculative re-issues, quarantines — all zero for the serial
    executor).  Sequential-stopping campaigns additionally record the
    realised per-point replication counts (``realised_replications``), the
    number of issuance waves and the stopping rule (``ci_target`` /
    ``ci_metric``); fixed-count campaigns leave them at their defaults.
    ``reused_replications`` counts replications resumed from the checkpoint,
    ``shared_replications`` those served from the process-wide store because
    another campaign of this process had computed them.
    """

    name: str
    root_seed: int
    replications: int
    points: List[PointResult]
    reused_replications: int = 0
    shared_replications: int = 0
    elapsed_s: float = 0.0
    executor_name: str = "serial"
    executor_stats: Dict[str, int] = field(default_factory=dict)
    seed_groups: List[int] = field(default_factory=list)
    antithetic: bool = False
    realised_replications: Optional[List[int]] = None
    waves: int = 1
    ci_target: Optional[float] = None
    ci_metric: Optional[str] = None

    @property
    def completed_replications(self) -> int:
        """Total number of completed replications across all points."""
        return sum(len(p.replications) for p in self.points)

    @property
    def failed_replications(self) -> int:
        """Total number of quarantined replications across all points."""
        return sum(len(p.failures) for p in self.points)

    def degraded_points(self) -> List[PointResult]:
        """Points that lost at least one replication to quarantine."""
        return [point for point in self.points if point.failures]

    def summaries(self, confidence: float = 0.95) -> List[Dict[str, MetricSummary]]:
        """Per-point summaries in grid order."""
        return [point.summary(confidence) for point in self.points]

    def compare_points(
        self, index_a: int, index_b: int, confidence: float = 0.95
    ) -> Dict[str, DeltaSummary]:
        """Per-metric paired deltas (point ``a`` minus point ``b``) under CRN.

        The two points must share a seed group: replication ``r`` of either
        point then consumed the *same* random streams, so the differences
        ``a_r - b_r`` are genuinely paired and their paired-t interval is
        (under the positive correlation CRN induces) strictly tighter than
        the Welch interval on the same samples.  Pairs where either side is
        missing (quarantined) or non-finite are dropped and counted in
        ``non_finite``; in antithetic campaigns the pairing unit is the
        antithetic pair average.
        """
        point_a = self.points[index_a]
        point_b = self.points[index_b]
        if self.seed_groups:
            group_a = self.seed_groups[index_a]
            group_b = self.seed_groups[index_b]
            if group_a != group_b:
                raise ValueError(
                    f"points {index_a} and {index_b} are in different seed "
                    f"groups ({group_a} vs {group_b}): their replications "
                    f"drew independent streams, so a paired delta would be "
                    f"meaningless — compare points sharing a seed group, or "
                    f"use the unpaired Welch interval directly"
                )
        names_b = set(point_b.metric_names())
        deltas: Dict[str, DeltaSummary] = {}
        for name in point_a.metric_names():
            if name not in names_b:
                continue
            map_a = point_a.sample_map(name)
            map_b = point_b.sample_map(name)
            common = sorted(set(map_a) & set(map_b))
            arr_a = np.asarray([map_a[key] for key in common], dtype=float)
            arr_b = np.asarray([map_b[key] for key in common], dtype=float)
            finite = np.isfinite(arr_a) & np.isfinite(arr_b)
            non_finite = int(len(common) - int(finite.sum()))
            arr_a = arr_a[finite]
            arr_b = arr_b[finite]
            if arr_a.size == 0:
                deltas[name] = DeltaSummary(
                    0,
                    math.nan,
                    math.nan,
                    math.nan,
                    math.nan,
                    math.nan,
                    non_finite=non_finite,
                )
                continue
            delta, half = paired_confidence_interval(arr_a, arr_b, confidence)
            _, unpaired_half = unpaired_confidence_interval(
                arr_a, arr_b, confidence
            )
            deltas[name] = DeltaSummary(
                count=int(arr_a.size),
                mean_a=float(arr_a.mean()),
                mean_b=float(arr_b.mean()),
                delta=delta,
                ci_half_width=half,
                unpaired_ci_half_width=unpaired_half,
                non_finite=non_finite,
            )
        return deltas


# ---------------------------------------------------------------------------
# Worker entry point (module level so it pickles by reference)
# ---------------------------------------------------------------------------
def _execute_task(payload) -> MetricDict:
    """Run one replication; the executing process may be anywhere.

    ``payload`` is ``(runner, params, root_seed, point_index, replication,
    seed_group, fault_plan, trace_dir, antithetic)``.  In antithetic mode
    the odd replication ``2k + 1`` is executed on the *mirror* of
    replication ``2k``'s seed leaf (same coordinates, marked antithetic), so
    the pair is negatively coupled draw for draw.  The optional fault plan
    fires
    *before* the runner, so an injected fault can fail or delay the attempt
    but can never alter the metrics of a successful one — which is what
    makes chaos runs bit-identical to clean ones.

    When ``trace_dir`` is set, the replication records a per-replication
    event trace to ``<trace_dir>/point<PI>_rep<R>.jsonl``: an ambient
    recorder (:func:`repro.utils.recorder.use_recorder`) wraps the runner
    call so any :class:`~repro.simulation.dynamic.DynamicSystemSimulator`
    the runner builds traces into it automatically.  The sink is atomic
    (write-aside + rename on close), so a speculative duplicate racing on
    the same path publishes one complete file.  Tracing only observes — the
    returned metrics are bit-identical to an untraced run.
    """
    (
        runner,
        params,
        root_seed,
        point_index,
        replication,
        seed_group,
        plan,
        trace_dir,
        antithetic,
    ) = payload
    if plan is not None:
        plan.apply(point_index, replication)
    if antithetic and replication % 2:
        seed = replication_seed(
            root_seed, seed_group, replication - 1, antithetic=True
        )
    else:
        seed = replication_seed(root_seed, seed_group, replication)
    if trace_dir is None:
        metrics = runner(params, seed)
    else:
        path = os.path.join(
            trace_dir, f"point{point_index:03d}_rep{replication:03d}.jsonl"
        )
        with EventRecorder(JsonlSink(path, atomic=True)) as recorder:
            recorder.record(
                "replication_start",
                point_index=point_index,
                replication=replication,
                seed_group=seed_group,
            )
            with use_recorder(recorder):
                metrics = runner(params, seed)
            recorder.record(
                "replication_end",
                point_index=point_index,
                replication=replication,
                num_metrics=len(metrics),
            )
    return {str(key): float(value) for key, value in metrics.items()}


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------
class Campaign:
    """A sharded multi-replication Monte-Carlo experiment.

    Parameters
    ----------
    name:
        Campaign identifier (recorded in checkpoints; a checkpoint written by
        a differently shaped campaign is refused).
    runner:
        Module-level callable ``runner(params, seed_sequence) -> dict`` that
        executes one replication and returns scalar metrics.  It must be
        picklable (importable by name) for multi-worker runs, and must draw
        **all** of its randomness from the passed seed sequence.
    points:
        The experiment grid: one params mapping per point.  Params must be
        picklable for multi-worker runs.
    replications:
        Independent replications per point.
    root_seed:
        Root of the deterministic seed tree.
    metadata:
        Free-form information carried to the reducers (titles, thresholds).
    seed_groups:
        Optional per-point seed-group indices (same length as ``points``).
        Points sharing a group draw the **same** replication streams — the
        common-random-numbers design the paper-style experiments use to make
        scheduler comparisons paired (same drops, same traffic sample paths).
        ``None`` gives every point its own group (fully independent points).
    antithetic:
        Pair replication ``2k`` with the antithetic (mirrored) stream as
        replication ``2k + 1`` and average within pairs before summarising.
        Requires an even replication count and a runner that draws through
        :func:`rng_for_leaf` (runners collapsing the leaf with
        :func:`seed_sequence_to_int` fail loudly).  Only helps metrics that
        respond monotonically to the underlying uniforms.
    ci_target / ci_metric / max_replications:
        Sequential stopping (see :meth:`configure_sequential`): run
        replication waves until the ``confidence``-level CI half-width of
        ``ci_metric`` is at most ``ci_target`` at every point (or
        ``max_replications`` is reached).
    """

    def __init__(
        self,
        name: str,
        runner: Runner,
        points: Sequence[Mapping[str, object]],
        replications: int = 1,
        root_seed: int = 0,
        metadata: Optional[Mapping[str, object]] = None,
        seed_groups: Optional[Sequence[int]] = None,
        antithetic: bool = False,
        ci_target: Optional[float] = None,
        ci_metric: Optional[str] = None,
        max_replications: Optional[int] = None,
    ) -> None:
        if not points:
            raise ValueError("points must not be empty")
        if replications < 1:
            raise ValueError("replications must be at least 1")
        self.name = str(name)
        self.runner = runner
        self.points = [dict(p) for p in points]
        self.replications = int(replications)
        self.root_seed = int(root_seed)
        self.metadata = dict(metadata or {})
        if seed_groups is None:
            self.seed_groups = list(range(len(self.points)))
        else:
            if len(seed_groups) != len(self.points):
                raise ValueError("seed_groups must match points in length")
            self.seed_groups = [int(g) for g in seed_groups]
        self.antithetic = bool(antithetic)
        if self.antithetic and self.replications % 2:
            raise ValueError(
                "antithetic campaigns need an even replication count "
                "(replication 2k+1 is the mirror of replication 2k)"
            )
        self.ci_target: Optional[float] = None
        self.ci_metric: Optional[str] = None
        self.max_replications: Optional[int] = None
        if ci_target is not None:
            self.configure_sequential(ci_target, ci_metric, max_replications)

    def configure_sequential(
        self,
        ci_target: Optional[float],
        ci_metric: Optional[str],
        max_replications: Optional[int] = None,
    ) -> "Campaign":
        """Enable sequential stopping: replicate until the CI is tight enough.

        Instead of a fixed replication count, :meth:`run` issues tasks in
        waves of ``replications`` per point until the ``ci_target``
        half-width of ``ci_metric`` is met at that point or its realised
        count reaches ``max_replications`` (default ``8 * replications``).
        The stopping decisions are deterministic functions of the completed
        samples, so aggregates stay bit-identical for any worker count or
        executor, and a resumed run replays the same wave schedule from the
        checkpoint without recomputing anything.

        ``ci_target=None`` is a no-op (keeps the fixed-count behaviour),
        letting run wrappers pass CLI flags through unconditionally.
        """
        if ci_target is None:
            return self
        if ci_target <= 0.0:
            raise ValueError("ci_target must be positive")
        if not ci_metric:
            raise ValueError("ci_target requires ci_metric (the watched metric)")
        self.ci_target = float(ci_target)
        self.ci_metric = str(ci_metric)
        self.max_replications = (
            int(max_replications)
            if max_replications is not None
            else 8 * self.replications
        )
        if self.max_replications < self.replications:
            raise ValueError("max_replications must be at least replications")
        if self.antithetic and self.max_replications % 2:
            raise ValueError("antithetic campaigns need an even max_replications")
        return self

    # -- checkpointing -----------------------------------------------------------
    @staticmethod
    def _stable_repr(value: object) -> str:
        """A repr of a point param that survives process restarts.

        ``repr`` of a function or bound method embeds a memory address, which
        would change the fingerprint on every run and make checkpoints of
        campaigns with callable scheduler specs unresumable — so callables
        are identified by their qualified name instead.
        """
        if callable(value):
            module = getattr(value, "__module__", "")
            name = getattr(value, "__qualname__", None) or getattr(
                value, "__name__", None
            )
            if name is not None:
                return f"<callable {module}.{name}>"
            return f"<callable {type(value).__qualname__}>"
        return repr(value)

    def fingerprint(self) -> str:
        """Stable digest of the campaign shape (grid, replications, seed).

        The sequential-stopping parameters are deliberately *excluded*: the
        wave schedule is a pure function of the completed samples, so a
        checkpoint from a fixed-count run resumes cleanly into a sequential
        one (and vice versa) — the task keys are the same coordinates.
        ``antithetic`` *is* included (only when on, keeping historic
        fingerprints valid): it changes what every odd replication computes.
        """
        parts = [
            self.name,
            str(self.root_seed),
            str(self.replications),
            str(len(self.points)),
            repr(self.seed_groups),
        ]
        if self.antithetic:
            parts.append("antithetic=True")
        for point in self.points:
            parts.append(repr(self._params_repr(point)))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    @classmethod
    def _params_repr(cls, point: Mapping[str, object]) -> List[Tuple[str, str]]:
        """A point's params as sorted ``(key, stable repr)`` pairs."""
        return sorted((str(k), cls._stable_repr(v)) for k, v in point.items())

    def _share_prefixes(self) -> List[Optional[tuple]]:
        """Per-point prefix of the replication-store key (``None``: never shared).

        The key of replication ``r`` is the prefix plus ``r`` and whether
        ``r`` runs on the mirrored (antithetic) leaf.  With the runner, the
        point's params as :meth:`fingerprint` hashes them, the root seed and
        the seed group, that is exactly what :func:`_execute_task` derives
        the replication's seed from.  A runner not reachable by its name and
        a point holding a callable are never shared, because
        :meth:`_stable_repr` names callables by their qualified name, which
        two lambdas share.
        """
        if not _importable(self.runner):
            return [None] * len(self.points)
        runner = self._stable_repr(self.runner)
        return [
            None
            if any(callable(value) for value in point.values())
            else (
                runner,
                tuple(self._params_repr(point)),
                self.root_seed,
                group,
            )
            for point, group in zip(self.points, self.seed_groups)
        ]

    # -- execution ---------------------------------------------------------------
    def _stopping_half_width(
        self, point_index: int, completed: Mapping[str, MetricDict], realised: int
    ) -> float:
        """CI half-width of the stopping metric over one point's samples.

        A deterministic function of the completed replications below
        ``realised`` — the property that makes the wave schedule replayable
        on resume.  Returns ``nan`` (never "converged") with fewer than two
        finite samples.
        """
        values: Dict[int, float] = {}
        available: set = set()
        have_completed = False
        for rep in range(realised):
            metrics = completed.get(f"{point_index}/{rep}")
            if metrics is None:
                continue
            have_completed = True
            available.update(metrics)
            if self.ci_metric in metrics:
                values[rep] = float(metrics[self.ci_metric])
        if have_completed and not values:
            raise ValueError(
                f"ci_metric {self.ci_metric!r} is not among the runner's "
                f"metrics; available: {sorted(available)}"
            )
        if self.antithetic:
            samples = [
                0.5 * (values[rep] + values[rep + 1])
                for rep in range(0, realised - 1, 2)
                if rep in values and rep + 1 in values
            ]
        else:
            samples = [values[rep] for rep in sorted(values)]
        samples = [sample for sample in samples if math.isfinite(sample)]
        if len(samples) < 2:
            return math.nan
        return confidence_interval(samples)[1]

    def _resolve_executor(
        self, executor: Optional[ExecutorSpec], workers: int
    ) -> Executor:
        """Turn an executor spec (name, instance or ``None``) into an instance."""
        if executor is None:
            backend: Executor = (
                SerialExecutor() if workers == 1 else ResilientExecutor(workers)
            )
        elif isinstance(executor, str):
            if executor == "serial":
                backend = SerialExecutor()
            elif executor == "resilient":
                backend = ResilientExecutor(workers=max(workers, 1))
            elif executor == "swarm":
                backend = SwarmExecutor(workers=max(workers, 1))
            else:
                raise ValueError(
                    f"unknown executor {executor!r}; expected 'serial', "
                    f"'resilient', 'swarm' or an Executor instance"
                )
        else:
            backend = executor
        # backoff_seed=None means "derive from the campaign root seed":
        # retry jitter stays reproducible per campaign while distinct
        # campaigns de-synchronise their retry storms.
        if getattr(backend, "backoff_seed", 0) is None:
            backend.backoff_seed = self.root_seed
        return backend

    def run(
        self,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        executor: Optional[ExecutorSpec] = None,
        fault_plan=None,
        hooks: Optional[SimHooks] = None,
        trace_dir: Optional[str] = None,
    ) -> CampaignResult:
        """Execute the campaign and aggregate the results.

        Parameters
        ----------
        workers:
            Worker processes; ``1`` runs in-process (no worker processes, no
            pickling requirements), more runs a
            :class:`~repro.experiments.executors.ResilientExecutor` unless
            ``executor`` says otherwise.  Any value yields bit-identical
            aggregates for a fixed root seed — sharding only changes
            wall-clock time.
        checkpoint_path:
            Checkpoint location.  Every completed replication is durably
            appended (fsync'd) to the write-ahead journal ``<path>.wal``,
            which is periodically — and on exit — compacted into the
            historic JSON format at ``<path>``; an existing checkpoint of
            the same campaign is resumed (completed replications are loaded
            from JSON ∪ WAL, not recomputed), a torn WAL tail from a
            mid-append kill is dropped, and a corrupt JSON is quarantined to
            ``<path>.corrupt`` instead of crashing.
        progress:
            Optional ``progress(done, total)`` callback.
        executor:
            Execution back-end: an :class:`~repro.experiments.executors.
            Executor` instance or one of the names ``"serial"``,
            ``"resilient"``, ``"swarm"``.  ``None`` runs in-process at
            ``workers=1`` and on the resilient executor above.  All
            executors produce bit-identical aggregates; the resilient one
            survives worker crashes, hangs and poisoned tasks, and the swarm
            one extends that over independently spawned (or remote) worker
            processes with leases, heartbeats and work stealing.
        fault_plan:
            Optional :class:`~repro.experiments.faults.FaultPlan` injected
            into the task payloads (chaos testing).
        hooks:
            Optional :class:`repro.utils.hooks.SimHooks` observer of the
            executor's task lifecycle (``task_issued``/``task_completed``/
            ``task_retry``/``task_quarantined``, plus the swarm's worker and
            lease events) and of replications served from the store
            (``task_shared``); an
            :class:`~repro.utils.recorder.EventRecorder` records them.
        trace_dir:
            When set, the campaign writes structured telemetry under this
            directory (created if needed): ``campaign.jsonl`` with the
            campaign envelope and every task-lifecycle event (its recorder
            observes alongside ``hooks``), plus one
            ``point<PI>_rep<R>.jsonl`` per executed replication carrying the
            events of that replication's simulation (see
            :mod:`repro.utils.recorder`).  Tracing only observes; the
            aggregated results are bit-identical to an untraced run.

        **One replication, many campaigns.**  A replication is a pure
        function of its runner, its point's params and its seed-tree
        coordinates ``(root_seed, seed_group, replication)`` plus whether
        it runs on the mirrored leaf.  Every replication completed by a
        successful run — computed, resumed from the checkpoint or served —
        is published under that key to a process-wide store; an existing
        entry keeps its producer.  Before each wave is issued, every
        missing replication found in the store is served from it through
        the same path as a computed one: it is journaled, reported to
        ``progress`` and counted in
        :attr:`CampaignResult.shared_replications`, and it never reaches
        the executor.  The ``task_shared`` hook names the producing
        campaign, and a served replication writes no per-replication trace.
        A campaign is never served an entry produced under its own
        ``name``: rerunning an experiment recomputes it (resuming one is the
        checkpoint's job).  Failed or quarantined replications are never
        stored, and a point holding a callable (or a runner that is not
        importable by name) is never stored or served.  Metric dicts are
        copied in and out.  The store has no eviction: an entry is one
        metrics dict, about 1 KB for the dynamic runner.
        :func:`clear_shared_replications` empties it.

        A SIGINT/SIGTERM received while running flushes a final checkpoint,
        terminates the workers promptly and re-raises ``KeyboardInterrupt``,
        so a checkpointed campaign killed from the outside loses no completed
        replication and leaves no orphan processes.
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        backend = self._resolve_executor(executor, workers)
        campaign_recorder: Optional[EventRecorder] = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            campaign_recorder = EventRecorder(
                JsonlSink(os.path.join(trace_dir, "campaign.jsonl"))
            )
            campaign_recorder.record(
                "campaign_start",
                campaign=self.name,
                root_seed=self.root_seed,
                num_points=len(self.points),
                replications=self.replications,
                executor=backend.name,
            )
            hooks = resolve_hooks(hooks, campaign_recorder)
        backend.hooks = resolve_hooks(backend.hooks, hooks)
        started = time.perf_counter()
        # Hashing the whole grid is O(points); do it once per run, not once
        # per checkpoint write.
        fingerprint = self.fingerprint() if checkpoint_path else ""
        completed: Dict[str, MetricDict] = {}
        journal: Optional[CheckpointJournal] = None
        if checkpoint_path:
            # Durability is journal-shaped: each completed replication is one
            # fsync'd O(1) append to <path>.wal; the historic JSON format is
            # produced by compaction (periodic and on close), so a
            # coordinator killed at any byte offset resumes without losing
            # completed work — and without rewriting the whole checkpoint
            # per result.
            journal = CheckpointJournal(
                checkpoint_path,
                fingerprint,
                meta={
                    "campaign": self.name,
                    "root_seed": self.root_seed,
                    "replications": self.replications,
                    "num_points": len(self.points),
                },
            )
            completed = journal.load()
        reused = len(completed)

        sequential = self.ci_target is not None
        realised = [self.replications] * len(self.points)
        total = sum(realised)
        done = len(completed)
        failed: Dict[str, str] = {}
        prefixes = self._share_prefixes()
        shared = 0

        def share_key(pi: int, rep: int) -> Optional[tuple]:
            # None for a point that is never shared: no entry has that key.
            prefix = prefixes[pi]
            if prefix is None:
                return None
            return prefix + (rep, self.antithetic and rep % 2 == 1)

        def serve_from_store() -> None:
            # A missing replication another campaign of this process has
            # computed is served, never issued to the executor.
            nonlocal shared
            for pi in range(len(self.points)):
                for rep in range(realised[pi]):
                    key = f"{pi}/{rep}"
                    entry = _SHARED.get(share_key(pi, rep))
                    if key in completed or key in failed or entry is None:
                        continue
                    source, metrics = entry
                    if source == self.name:
                        continue
                    if backend.hooks is not None:
                        backend.hooks.record("task_shared", key=key, source=source)
                    store(key, dict(metrics))
                    shared += 1

        def wave_tasks() -> List[TaskSpec]:
            return [
                TaskSpec(
                    point_index=pi,
                    replication=rep,
                    payload=(
                        self.runner,
                        self.points[pi],
                        self.root_seed,
                        pi,
                        rep,
                        self.seed_groups[pi],
                        fault_plan,
                        trace_dir,
                        self.antithetic,
                    ),
                )
                for pi in range(len(self.points))
                for rep in range(realised[pi])
                if f"{pi}/{rep}" not in completed and f"{pi}/{rep}" not in failed
            ]

        def store(key: str, metrics: MetricDict) -> None:
            nonlocal done
            completed[key] = metrics
            done += 1
            if journal is not None:
                journal.append(key, metrics)
            if progress is not None:
                progress(done, total)

        owner_pid = os.getpid()

        def raise_interrupt(signum, frame):  # pragma: no cover - signal path
            # Forked workers inherit this handler; in them the signal must
            # keep its default meaning (die quietly), not unwind the worker
            # loop with a spurious traceback.
            if os.getpid() != owner_pid:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)
                return
            raise KeyboardInterrupt(f"campaign interrupted by signal {signum}")

        previous_handlers = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous_handlers[signum] = signal.signal(signum, raise_interrupt)
                except (ValueError, OSError):  # pragma: no cover - exotic host
                    pass
        # Sequential stopping issues tasks in waves; keep the executor's
        # workers alive between them instead of tearing the fleet down and
        # respawning it every wave.
        backend.keep_alive = sequential
        waves = 0
        try:
            while True:
                waves += 1
                serve_from_store()
                for outcome in backend.run(_execute_task, wave_tasks()):
                    if outcome.metrics is not None:
                        store(outcome.task.key, outcome.metrics)
                    else:
                        failed[outcome.task.key] = outcome.error or "unknown failure"
                if not sequential:
                    break
                # The stopping rule between waves: grow every point whose CI
                # is still too wide.  Decisions depend only on the completed
                # samples, so any executor/worker topology — and any resumed
                # run — walks the exact same wave schedule.
                grew = False
                for pi in range(len(self.points)):
                    if realised[pi] >= self.max_replications:
                        continue
                    half = self._stopping_half_width(pi, completed, realised[pi])
                    if half <= self.ci_target:  # nan compares False: keep going
                        continue
                    realised[pi] = min(
                        self.max_replications, realised[pi] + self.replications
                    )
                    grew = True
                if journal is not None:
                    journal.append_note(
                        {
                            "wave": waves,
                            "realised": list(realised),
                            "converged": not grew,
                        }
                    )
                if not grew:
                    break
                total = sum(realised)
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            # Prompt worker teardown (idempotent; crucial on the interrupt
            # path, where the executor's generator may be left suspended).
            backend.keep_alive = False
            backend.stop()
            if journal is not None:
                # Compacts the WAL into the historic JSON checkpoint layout
                # and removes the (now redundant) WAL — on the interrupt path
                # too, so SIGINT/SIGTERM leave a complete JSON behind.
                journal.close()
            if campaign_recorder is not None:
                campaign_recorder.record(
                    "campaign_end",
                    completed=len(completed),
                    failed=len(failed),
                    shared=shared,
                    executor_stats=backend.stats.as_dict(),
                )
                campaign_recorder.close()

        points = [
            PointResult(
                index=index,
                params=dict(params),
                antithetic=self.antithetic,
                seed_group=self.seed_groups[index],
            )
            for index, params in enumerate(self.points)
        ]
        for key, metrics in completed.items():
            point_index, replication = (int(part) for part in key.split("/"))
            points[point_index].replications[replication] = metrics
            store_key = share_key(point_index, replication)
            if store_key is not None:
                _SHARED.setdefault(store_key, (self.name, dict(metrics)))
        for key, reason in failed.items():
            point_index, replication = (int(part) for part in key.split("/"))
            points[point_index].failures[replication] = reason
        return CampaignResult(
            name=self.name,
            root_seed=self.root_seed,
            replications=self.replications,
            points=points,
            reused_replications=reused,
            shared_replications=shared,
            elapsed_s=time.perf_counter() - started,
            executor_name=backend.name,
            executor_stats=backend.stats.as_dict(),
            seed_groups=list(self.seed_groups),
            antithetic=self.antithetic,
            realised_replications=list(realised) if sequential else None,
            waves=waves,
            ci_target=self.ci_target,
            ci_metric=self.ci_metric,
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:  # pragma: no cover - CLI entry point
    """Run one of the ported experiments as a sharded campaign.

    Example (the CI smoke grid)::

        python -m repro.experiments --experiment coverage \\
            --loads 4 8 --schedulers "JABA-SD(J1)" FCFS \\
            --num-drops 2 --replications 1 --workers 2

    Schedulers can also come from the component registry —
    ``--scheduler proportional-fair --scheduler jaba-sd:objective=J2`` — and a
    whole scenario from a declarative TOML/JSON spec file via
    ``--scenario-spec`` (see :mod:`repro.registry`).  ``python -m
    repro.experiments report [...]`` forwards to the consolidated report CLI
    (:mod:`repro.experiments.report`).
    """
    import argparse

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        from repro.experiments.report import main as report_main

        return report_main(argv[1:])

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--experiment",
        choices=["coverage", "delay", "capacity", "objectives"],
        default="coverage",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--replications", type=int, default=1,
                        help="replications (seeds) per grid point")
    parser.add_argument("--loads", type=int, nargs="+", default=None,
                        help="data users per cell swept by the grid")
    parser.add_argument("--schedulers", nargs="+", default=None,
                        help="scheduler labels (e.g. 'JABA-SD(J1)' FCFS)")
    parser.add_argument("--scheduler", action="append", default=None,
                        metavar="NAME[:k=v,...]", dest="scheduler_specs",
                        help="add one registered scheduler to the grid, with "
                             "optional kwargs (e.g. 'proportional-fair', "
                             "'jaba-sd:objective=J2,solver=greedy'); "
                             "repeatable, combines with --schedulers")
    parser.add_argument("--scenario-spec", default=None, metavar="FILE",
                        help="dynamic experiments: build the base scenario "
                             "(and, unless --scheduler/--schedulers override "
                             "it, the policy) from a declarative TOML/JSON "
                             "spec file")
    parser.add_argument("--num-drops", type=int, default=None,
                        help="coverage only: Monte-Carlo drops per replication "
                             "(default 30)")
    parser.add_argument("--duration", type=float, default=None,
                        help="dynamic experiments: simulated seconds per run "
                             "(default 6.0, or the --scenario-spec value)")
    parser.add_argument("--warmup", type=float, default=None,
                        help="dynamic experiments: warm-up seconds per run "
                             "(default 1.0, or the --scenario-spec value)")
    parser.add_argument("--root-seed", type=int, default=None,
                        help="seed-tree root (default: the experiment default)")
    parser.add_argument("--checkpoint", default=None,
                        help="JSON checkpoint path (resumes if it exists)")
    parser.add_argument("--executor",
                        choices=["serial", "resilient", "swarm"],
                        default=None,
                        help="execution back-end (default: serial at "
                             "--workers 1, resilient above, which retries, "
                             "times out and re-issues stragglers; 'swarm' "
                             "runs a lease-based worker swarm that remote "
                             "workers can join)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="resilient executor only: seconds before a "
                             "replication is killed and re-issued")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="resilient/swarm executors: failed attempts "
                             "re-issued before a task is quarantined "
                             "(default 2)")
    parser.add_argument("--num-workers", type=int, default=None,
                        help="swarm executor only: worker processes the "
                             "coordinator spawns (default: --workers; 0 with "
                             "--swarm-dir waits for external workers)")
    parser.add_argument("--lease-timeout", type=float, default=None,
                        help="swarm executor only: seconds without heartbeat "
                             "or result before a lease is reclaimed and its "
                             "tasks re-issued (default 15)")
    parser.add_argument("--swarm-dir", default=None,
                        help="swarm executor only: shared protocol directory "
                             "so workers on other machines can attach via "
                             "'python -m repro.experiments.worker'")
    parser.add_argument("--trace-dir", default=None,
                        help="record structured telemetry (campaign.jsonl + "
                             "one JSONL trace per replication) under this "
                             "directory")
    parser.add_argument("--ci-target", type=float, default=None,
                        help="sequential stopping: issue replications in "
                             "waves of --replications until the 95%% CI "
                             "half-width of --ci-metric is at most this at "
                             "every grid point (bit-identical for any worker "
                             "count and executor)")
    parser.add_argument("--ci-metric", default=None,
                        help="metric watched by --ci-target (default: the "
                             "experiment's headline metric — 'coverage' for "
                             "--experiment coverage, 'mean_delay_s' "
                             "otherwise)")
    parser.add_argument("--max-replications", type=int, default=None,
                        help="sequential-stopping replication cap per point "
                             "(default: 8x --replications)")
    args = parser.parse_args(argv)

    # Flags that a given experiment would silently drop are rejected instead.
    if args.experiment != "coverage" and args.num_drops is not None:
        parser.error("--num-drops only applies to --experiment coverage")
    if args.experiment == "objectives" and (
        args.loads or args.schedulers or args.scheduler_specs
    ):
        parser.error(
            "--loads/--schedulers/--scheduler do not apply to --experiment "
            "objectives (it sweeps the J2 delay-penalty weight at one load)"
        )
    if args.experiment == "coverage" and args.scenario_spec is not None:
        parser.error(
            "--scenario-spec applies to the dynamic experiments "
            "(delay/capacity/objectives); coverage is snapshot-based"
        )
    if args.task_timeout is not None and args.executor != "resilient":
        parser.error("--task-timeout requires --executor resilient")
    for flag, value in (
        ("--num-workers", args.num_workers),
        ("--lease-timeout", args.lease_timeout),
        ("--swarm-dir", args.swarm_dir),
    ):
        if value is not None and args.executor != "swarm":
            parser.error(f"{flag} requires --executor swarm")
    if args.ci_target is None and (
        args.ci_metric is not None or args.max_replications is not None
    ):
        parser.error("--ci-metric/--max-replications require --ci-target")

    executor = None
    if args.executor == "resilient":
        executor = ResilientExecutor(
            workers=max(args.workers, 1),
            task_timeout_s=args.task_timeout,
            max_retries=args.max_retries,
        )
    elif args.executor == "swarm":
        executor = SwarmExecutor(
            workers=(
                args.num_workers
                if args.num_workers is not None
                else max(args.workers, 1)
            ),
            swarm_dir=args.swarm_dir,
            lease_timeout_s=(
                args.lease_timeout if args.lease_timeout is not None else 15.0
            ),
            max_retries=args.max_retries,
        )
    elif args.executor is not None:
        executor = args.executor

    from dataclasses import replace as dc_replace

    from repro.experiments.capacity import run_capacity
    from repro.experiments.common import paper_scenario, scheduler_from_spec
    from repro.experiments.coverage import run_coverage
    from repro.experiments.delay_vs_load import run_delay_vs_load
    from repro.experiments.objectives_tradeoff import run_objectives_tradeoff
    from repro.registry import RegistryError, build_scenario, load_scenario_spec

    # Every scheduler spec (legacy label or registered name with kwargs) is
    # resolved once up front, so a typo dies with the registry's
    # did-you-mean error instead of inside a worker process.
    labels = list(args.schedulers or []) + list(args.scheduler_specs or [])
    factories = None
    if labels:
        for label in labels:
            try:
                scheduler_from_spec(label)
            except (RegistryError, ValueError) as exc:
                parser.error(str(exc))
        factories = {label: label for label in labels}

    spec_scenario = None
    spec_scheduler_section = None
    if args.scenario_spec is not None:
        try:
            built = build_scenario(load_scenario_spec(args.scenario_spec))
        except (OSError, RegistryError, ValueError) as exc:
            parser.error(f"--scenario-spec {args.scenario_spec}: {exc}")
        spec_scenario = built.scenario
        if "scheduler" in built.spec:
            spec_scheduler_section = built.scheduler_section
    if factories is None and spec_scheduler_section is not None:
        # The spec names a policy: sweep just that one unless the command
        # line adds more.
        name = spec_scheduler_section["name"]
        kwargs = {k: v for k, v in spec_scheduler_section.items() if k != "name"}
        label = name if not kwargs else (
            name + ":" + ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
        )
        factories = {label: spec_scheduler_section}

    common = dict(
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        executor=executor,
        trace_dir=args.trace_dir,
    )
    if args.ci_target is not None:
        default_metric = (
            "coverage" if args.experiment == "coverage" else "mean_delay_s"
        )
        common.update(
            ci_target=args.ci_target,
            ci_metric=args.ci_metric or default_metric,
            max_replications=args.max_replications,
        )
    if args.experiment == "coverage":
        kwargs = dict(
            loads=args.loads,
            num_drops=args.num_drops if args.num_drops is not None else 30,
            num_replications=args.replications,
            scheduler_factories=factories,
            **common,
        )
        if args.root_seed is not None:
            kwargs["seed"] = args.root_seed
        result = run_coverage(**kwargs)
    else:
        if spec_scenario is not None:
            scenario = spec_scenario
            if args.duration is not None:
                scenario = dc_replace(scenario, duration_s=args.duration)
            if args.warmup is not None:
                scenario = dc_replace(scenario, warmup_s=args.warmup)
        else:
            scenario = paper_scenario(
                duration_s=args.duration if args.duration is not None else 6.0,
                warmup_s=args.warmup if args.warmup is not None else 1.0,
            )
        if args.root_seed is not None:
            scenario = scenario.with_seed(args.root_seed)
        if args.experiment == "delay":
            result = run_delay_vs_load(
                loads=args.loads,
                scenario=scenario,
                scheduler_factories=factories,
                num_seeds=args.replications,
                **common,
            )
        elif args.experiment == "capacity":
            result = run_capacity(
                loads=args.loads,
                scenario=scenario,
                scheduler_factories=factories,
                num_seeds=args.replications,
                **common,
            )
        else:
            result = run_objectives_tradeoff(
                scenario=scenario, num_seeds=args.replications, **common
            )
    print(result.to_table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
