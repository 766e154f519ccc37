"""CI telemetry smoke: traced campaigns stay correct and schema-valid.

Runs the smoke-scale F4 coverage grid three times — untraced, then with a
``trace_dir`` capturing structured telemetry through a ``JsonlSink``, then
traced again under another campaign name — and requires:

* **observe-only** — the traced run's aggregates are bit-identical to the
  untraced run's (tracing must never perturb the numerics);
* **complete** — the trace directory holds ``campaign.jsonl`` plus one
  per-replication trace per (point, replication) coordinate;
* **schema-valid** — every line of every trace file parses as JSON and
  passes :func:`repro.utils.recorder.validate_event` against the versioned
  event schema;
* **ordered** — within each stream, ``seq`` is dense from 0 and ``time_s``
  is non-decreasing;
* **shared, not rerun** — the third run is served every replication from
  the process-wide store: its ``campaign.jsonl`` holds one schema-valid
  ``task_shared`` event per (point, replication) coordinate, it writes no
  per-replication trace, and its aggregates are bit-identical to the
  untraced run's.

A short dynamic run via ``ScenarioConfig(trace_path=...)`` is validated the
same way, so the single-run tracing entry point stays covered too.

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/trace_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.experiments.coverage import build_coverage_campaign  # noqa: E402
from repro.mac import JabaSdScheduler  # noqa: E402
from repro.simulation import DynamicSystemSimulator, ScenarioConfig  # noqa: E402
from repro.utils.recorder import read_jsonl, validate_event  # noqa: E402


def build_campaign():
    return build_coverage_campaign(
        loads=[2, 3],
        num_drops=1,
        config=SystemConfig.small_test_system(),
        scheduler_factories={"JABA-SD(J1)": "JABA-SD(J1)", "FCFS": "FCFS"},
        num_replications=2,
        seed=17,
    )


def check_stream(path: Path, failures: list) -> int:
    """Validate one JSONL trace stream; returns the number of events."""
    events = read_jsonl(str(path))
    if not events:
        failures.append(f"{path.name}: empty trace stream")
        return 0
    for index, event in enumerate(events):
        problems = validate_event(event)
        if problems:
            failures.append(f"{path.name}[{index}]: {'; '.join(problems)}")
            break
    if [event["seq"] for event in events] != list(range(len(events))):
        failures.append(f"{path.name}: seq is not dense from 0")
    times = [event["time_s"] for event in events]
    if any(a > b for a, b in zip(times, times[1:])):
        failures.append(f"{path.name}: time_s is not non-decreasing")
    return len(events)


def main() -> int:
    failures: list = []

    reference = build_campaign().run()
    expected = [sorted(point.replications.items()) for point in reference.points]

    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = Path(tmp) / "traces"
        traced = build_campaign().run(trace_dir=str(trace_dir))
        observed = [sorted(point.replications.items()) for point in traced.points]
        if observed != expected:
            failures.append(
                "traced campaign aggregates diverge from the untraced run"
            )

        campaign_trace = trace_dir / "campaign.jsonl"
        if not campaign_trace.exists():
            failures.append("campaign.jsonl missing from the trace directory")
        else:
            count = check_stream(campaign_trace, failures)
            print(f"campaign.jsonl: {count} events")

        rep_traces = sorted(trace_dir.glob("point*_rep*.jsonl"))
        expected_reps = len(traced.points) * traced.replications
        if len(rep_traces) != expected_reps:
            failures.append(
                f"expected {expected_reps} replication traces, "
                f"found {len(rep_traces)}"
            )
        total = sum(check_stream(path, failures) for path in rep_traces)
        print(f"{len(rep_traces)} replication traces: {total} events")

        # The same grid under another name is served from the store.
        shared_dir = Path(tmp) / "shared"
        campaign = build_campaign()
        campaign.name = "F4-coverage-shared"
        shared = campaign.run(trace_dir=str(shared_dir))
        observed = [sorted(point.replications.items()) for point in shared.points]
        if observed != expected:
            failures.append("shared campaign aggregates diverge from the untraced run")
        check_stream(shared_dir / "campaign.jsonl", failures)
        keys = sorted(
            event["key"]
            for event in read_jsonl(str(shared_dir / "campaign.jsonl"))
            if event["kind"] == "task_shared"
        )
        coordinates = sorted(
            f"{pi}/{rep}"
            for pi in range(len(shared.points))
            for rep in range(shared.replications)
        )
        if keys != coordinates:
            failures.append(
                f"expected one task_shared event per coordinate {coordinates}, "
                f"found {keys}"
            )
        if list(shared_dir.glob("point*_rep*.jsonl")):
            failures.append("served replications wrote per-replication traces")
        print(f"shared run: {len(keys)} task_shared events, no replication traces")

        # Single-run entry point: a dynamic run traced via the scenario.
        run_trace = Path(tmp) / "dynamic_run.jsonl"
        scenario = ScenarioConfig.fast_test(
            duration_s=0.1, warmup_s=0.0, trace_path=str(run_trace)
        )
        DynamicSystemSimulator(scenario, JabaSdScheduler("J1")).run()
        count = check_stream(run_trace, failures)
        kinds = {event["kind"] for event in read_jsonl(str(run_trace))}
        if not {"run_start", "stage_enter", "frame", "run_end"} <= kinds:
            failures.append(f"dynamic run trace is missing pipeline kinds: {kinds}")
        print(f"dynamic_run.jsonl: {count} events")

    if failures:
        print("\ntelemetry smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ntelemetry smoke passed: traced and shared aggregates "
          "bit-identical, all streams schema-valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
