"""Shared infrastructure of the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro import registry as registry_module
from repro.config import SystemConfig
from repro.mac.schedulers import BurstScheduler
from repro.registry import parse_component_spec
from repro.simulation.scenario import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.utils.tables import format_records

__all__ = [
    "ExperimentResult",
    "flag_degraded",
    "default_scheduler_specs",
    "scheduler_from_spec",
    "paper_traffic",
    "paper_scenario",
]

SchedulerFactory = Callable[[], BurstScheduler]

#: A scheduler may be specified as a factory callable, a ``{"name": ...,
#: **kwargs}`` mapping over the component registry, a registered name with
#: optional inline kwargs (``"proportional-fair"``,
#: ``"jaba-sd:objective=J2"``) or one of the legacy evaluation labels
#: (``"JABA-SD(J1)"``, ``"FCFS"``, ...).  String and mapping specs are what
#: the campaign engine ships to worker processes: they pickle, a locally
#: defined factory does not.
SchedulerSpec = Union[str, Mapping[str, object], SchedulerFactory]

#: The evaluation's historic scheduler labels, mapped onto registry specs.
#: These labels appear in campaign grids, checkpoints and result tables, so
#: they stay first-class spec spellings.
_LEGACY_LABEL_SPECS: Dict[str, Dict[str, object]] = {
    "JABA-SD(J1)": {"name": "jaba-sd", "objective": "J1"},
    "JABA-SD(J2)": {"name": "jaba-sd", "objective": "J2"},
    "JABA-SD(J1/greedy)": {"name": "jaba-sd", "objective": "J1", "solver": "greedy"},
    "FCFS": {"name": "fcfs"},
    "EqualShare": {"name": "equal-share"},
}


@dataclass
class ExperimentResult:
    """Outcome of one experiment: an id, a title and a list of table rows."""

    experiment_id: str
    title: str
    records: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **record: object) -> None:
        """Append one table row."""
        self.records.append(dict(record))

    def to_table(self, columns: Optional[Sequence[str]] = None) -> str:
        """Render the result as the paper-style ASCII table."""
        header = f"[{self.experiment_id}] {self.title}"
        table = format_records(self.records, columns=columns, title=header)
        if self.notes:
            table += f"\n\n{self.notes}"
        return table

    def column(self, name: str) -> List[object]:
        """Extract one column across all records."""
        return [record.get(name) for record in self.records]

    def filtered(self, **criteria: object) -> List[Dict[str, object]]:
        """Records matching all the given key/value criteria."""
        out = []
        for record in self.records:
            if all(record.get(key) == value for key, value in criteria.items()):
                out.append(record)
        return out


def flag_degraded(result: ExperimentResult, campaign_result) -> ExperimentResult:
    """Mark a table built from a campaign whose samples are incomplete.

    Two degradation modes are surfaced so a degraded table can never
    masquerade as a clean one:

    * quarantined replications — under
      :class:`~repro.experiments.executors.ResilientExecutor` a poisoned task
      degrades its grid point instead of killing the run;
    * non-finite samples — replications that completed but produced NaN/inf
      metrics, which the summaries silently exclude from means and CIs.

    When the table has one row per campaign point ``n_failed`` /
    ``n_nonfinite`` columns are added; either way a DEGRADED note naming the
    affected points is appended.
    """
    failed = campaign_result.failed_replications
    non_finite_points = [
        (point, point.non_finite_replications()) for point in campaign_result.points
    ]
    non_finite_points = [(p, reps) for p, reps in non_finite_points if reps]
    if not failed and not non_finite_points:
        return result
    one_row_per_point = len(result.records) == len(campaign_result.points)
    if failed:
        if one_row_per_point:
            for record, point in zip(result.records, campaign_result.points):
                record["n_failed"] = len(point.failures)
        cells = ", ".join(
            f"point {p.index} ({len(p.failures)} failed)"
            for p in campaign_result.degraded_points()
        )
        note = (
            f"DEGRADED: {failed} replication(s) exhausted their retry budget "
            f"and were quarantined; affected cells average over fewer "
            f"samples: {cells}."
        )
        result.notes = f"{result.notes}\n{note}" if result.notes else note
    if non_finite_points:
        if one_row_per_point:
            for record, point in zip(result.records, campaign_result.points):
                record["n_nonfinite"] = len(point.non_finite_replications())
        cells = ", ".join(
            f"point {p.index} ({len(reps)} non-finite)"
            for p, reps in non_finite_points
        )
        total = sum(len(reps) for _, reps in non_finite_points)
        note = (
            f"DEGRADED: {total} replication(s) produced non-finite metrics "
            f"(excluded from means and CIs): {cells}."
        )
        result.notes = f"{result.notes}\n{note}" if result.notes else note
    return result


def default_scheduler_specs(include_greedy: bool = False) -> Dict[str, str]:
    """The scheduling policies compared throughout the evaluation.

    JABA-SD under both objectives plus the two baselines named by the paper
    (the greedy JABA-SD variant can be added for the ablation experiments),
    as a ``label -> spec`` mapping ready for a campaign's scheduler axis.
    The labels double as the specs: every legacy evaluation label resolves
    through the component registry in :func:`scheduler_from_spec`.
    """
    labels = ["JABA-SD(J1)", "JABA-SD(J2)", "FCFS", "EqualShare"]
    if include_greedy:
        labels.append("JABA-SD(J1/greedy)")
    return {label: label for label in labels}


def scheduler_from_spec(spec: SchedulerSpec) -> BurstScheduler:
    """Instantiate a scheduler from any supported spec spelling.

    Accepted forms (all but the callable pickle, which is what campaign
    runners executing in worker processes need):

    * a factory callable — called with no arguments;
    * a ``{"name": <registered name>, **kwargs}`` mapping (the scheduler
      section of a scenario spec, see :func:`repro.registry.build_scenario`);
    * a registered name with optional inline kwargs —
      ``"proportional-fair"``, ``"jaba-sd:objective=J2,solver=greedy"``;
    * a legacy evaluation label — ``"JABA-SD(J1)"``, ``"FCFS"``, ... (kept
      so existing campaign grids, checkpoints and tables stay valid).

    Unknown names raise :class:`repro.registry.UnknownComponentError` (a
    ``KeyError`` subclass) listing the registered alternatives.
    """
    if callable(spec):
        return spec()
    if isinstance(spec, Mapping):
        section = dict(spec)
        try:
            name = section.pop("name")
        except KeyError:
            raise registry_module.SpecError(
                f"scheduler spec mapping needs a 'name' entry, got {spec!r}"
            ) from None
        return registry_module.create("scheduler", str(name), **section)
    label = str(spec)
    legacy = _LEGACY_LABEL_SPECS.get(label)
    if legacy is not None:
        section = dict(legacy)
        return registry_module.create("scheduler", section.pop("name"), **section)
    name, kwargs = parse_component_spec(label)
    try:
        return registry_module.create("scheduler", name, **kwargs)
    except registry_module.UnknownComponentError:
        raise registry_module.UnknownComponentError(
            f"unknown scheduler spec {label!r}; registered names: "
            f"{registry_module.component_names('scheduler')}, legacy labels: "
            f"{sorted(_LEGACY_LABEL_SPECS)}"
        ) from None


def paper_traffic() -> TrafficConfig:
    """WWW packet-call traffic mix used by the dynamic-simulation experiments.

    Heavier than the library default so the interesting (contention) region
    of the delay-vs-load curves is reached with a moderate number of data
    users per cell; every dynamic experiment uses these values through
    :func:`paper_scenario`.
    """
    return TrafficConfig(
        mean_reading_time_s=2.0,
        packet_call_shape=1.8,
        packet_call_min_bits=32_000.0,
        packet_call_max_bits=2_000_000.0,
        forward_fraction=0.7,
    )


def paper_scenario(
    num_data_users_per_cell: int = 12,
    num_voice_users_per_cell: int = 8,
    duration_s: float = 20.0,
    warmup_s: float = 4.0,
    seed: int = 2001,
    system: Optional[SystemConfig] = None,
) -> ScenarioConfig:
    """The reference dynamic-simulation scenario (7-cell wrap-around)."""
    return ScenarioConfig(
        system=system if system is not None else SystemConfig(),
        num_data_users_per_cell=num_data_users_per_cell,
        num_voice_users_per_cell=num_voice_users_per_cell,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
        traffic=paper_traffic(),
        mobility=MobilityConfig(),
    )
