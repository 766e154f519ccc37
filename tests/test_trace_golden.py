"""Golden regression of the telemetry event stream.

A short seeded dynamic run's full event trace — normalized by dropping the
wall-clock timing fields (:data:`repro.utils.recorder.WALL_CLOCK_FIELDS`),
which are the only nondeterministic ones — is locked against a checked-in
snapshot.  The golden pins event order, kinds, sim-times, per-frame state
and admission outcomes bit for bit, so any change to what the hooks emit (or
when) is a visible, reviewed diff.  Intentional changes regenerate with::

    PYTHONPATH=src python tests/test_trace_golden.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mac import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from repro.utils.recorder import (
    EventRecorder,
    MemorySink,
    normalize_event,
    validate_event,
)

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "golden_trace_fleet.json"


def trace_scenario() -> ScenarioConfig:
    """20 frames with enough traffic to exercise every event kind."""
    return ScenarioConfig.fast_test(
        duration_s=0.3,
        warmup_s=0.1,
        traffic=TrafficConfig(
            mean_reading_time_s=1.0,
            packet_call_min_bits=24_000,
            packet_call_max_bits=200_000,
        ),
    )


def record_trace() -> list:
    """Raw event stream of one seeded run (normalize before comparing)."""
    sink = MemorySink()
    simulator = DynamicSystemSimulator(
        trace_scenario(),
        JabaSdScheduler("J1"),
        hooks=EventRecorder(sink),
    )
    simulator.run()
    return sink.events


class TestTraceGolden:
    def test_trace_matches_golden(self):
        if not GOLDEN_PATH.exists():  # pragma: no cover - bootstrap guard
            pytest.fail(
                f"missing golden {GOLDEN_PATH.name}; regenerate with "
                "PYTHONPATH=src python tests/test_trace_golden.py --regen"
            )
        golden = json.loads(GOLDEN_PATH.read_text())
        trace = [normalize_event(event) for event in record_trace()]
        assert len(trace) == len(golden["events"])
        for index, (got, want) in enumerate(zip(trace, golden["events"])):
            assert got == want, f"event {index} diverged from golden"

    def test_trace_is_schema_valid_and_ordered(self):
        trace = record_trace()
        for event in trace:
            assert validate_event(event) == []
        assert [event["seq"] for event in trace] == list(range(len(trace)))
        times = [event["time_s"] for event in trace]
        assert all(a <= b for a, b in zip(times, times[1:]))
        kinds = {event["kind"] for event in trace}
        assert {"run_start", "stage_enter", "stage_exit", "frame",
                "admission", "run_end"} <= kinds


def _regen() -> None:  # pragma: no cover - manual tool
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    trace = [normalize_event(event) for event in record_trace()]
    payload = {"scenario": "fast_test duration_s=0.3 warmup_s=0.1", "events": trace}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(trace)} events)")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
