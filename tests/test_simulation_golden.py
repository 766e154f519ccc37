"""Golden end-to-end regression of the dynamic simulation.

A short :class:`repro.simulation.DynamicSystemSimulator` run is locked — per
frame admission decisions *and* summary metrics — against a checked-in
snapshot, so the numerics of the structure-of-arrays fleets, the radio
network and the batched admission path stay bit-for-bit reproducible.  Any
intentional change of the numerics must regenerate the snapshot::

    PYTHONPATH=src python tests/test_simulation_golden.py --regen

and justify the diff in the commit message.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.mac import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig

GOLDEN_FLEET_PATH = Path(__file__).resolve().parent / "data" / "golden_dynamic_fleet.json"

SUMMARY_FIELDS = (
    "duration_s",
    "mean_packet_delay_s",
    "p90_packet_delay_s",
    "mean_forward_delay_s",
    "mean_reverse_delay_s",
    "completed_packet_calls",
    "carried_throughput_bps",
    "offered_load_bps",
    "mean_granted_m",
    "grant_rate",
    "mean_queue_length",
    "forward_utilisation",
    "reverse_rise_db",
    "fch_outage_fraction",
    "handoff_events",
)


def golden_scenario() -> ScenarioConfig:
    return ScenarioConfig.fast_test(
        duration_s=2.0,
        warmup_s=0.5,
        traffic=TrafficConfig(
            mean_reading_time_s=1.0,
            packet_call_min_bits=24_000,
            packet_call_max_bits=200_000,
        ),
    )


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def run_and_capture() -> dict:
    """Run the golden scenario recording every admission decision."""
    simulator = DynamicSystemSimulator(golden_scenario(), JabaSdScheduler("J1"))
    events = []
    original_decide = simulator.controller.decide

    def recording_decide(snapshot, requests, link):
        decision, grants = original_decide(snapshot, requests, link)
        events.append(
            {
                "time_s": float(snapshot.time_s),
                "link": link.value,
                "queue": [int(r.mobile_index) for r in requests],
                "assignment": [int(m) for m in decision.assignment],
                "objective": _jsonable(float(decision.objective_value)),
            }
        )
        return decision, grants

    simulator.controller.decide = recording_decide
    result = simulator.run()
    summary = {
        field: _jsonable(getattr(result, field)) for field in SUMMARY_FIELDS
    }
    return {"events": events, "summary": summary}


@pytest.fixture(scope="module")
def captured_fleet():
    return run_and_capture()


class TestGoldenFleetRun:
    """End-to-end lock of the dynamic simulator on the fleets.

    The fleets own seeded random streams, so a run is reproducible bit for
    bit — the golden file locks its admission decisions and summary so
    unintended fleet-kernel changes are caught.  Regenerate (and justify)
    with::

        PYTHONPATH=src python tests/test_simulation_golden.py --regen
    """

    def test_snapshot_exists(self):
        assert GOLDEN_FLEET_PATH.exists(), (
            "fleet golden snapshot missing — regenerate with "
            "`PYTHONPATH=src python tests/test_simulation_golden.py --regen`"
        )

    def test_summary_bit_identical(self, captured_fleet):
        golden = json.loads(GOLDEN_FLEET_PATH.read_text())
        assert captured_fleet["summary"] == golden["summary"]

    def test_admission_decisions_bit_identical(self, captured_fleet):
        golden = json.loads(GOLDEN_FLEET_PATH.read_text())
        assert len(captured_fleet["events"]) == len(golden["events"])
        for frame, (got, want) in enumerate(
            zip(captured_fleet["events"], golden["events"])
        ):
            assert got == want, f"fleet admission decision diverged at event {frame}"

    def test_run_actually_grants(self, captured_fleet):
        assert captured_fleet["summary"]["completed_packet_calls"] > 0
        assert any(any(e["assignment"]) for e in captured_fleet["events"])


def main(argv=None) -> int:  # pragma: no cover - regeneration helper
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--regen", action="store_true", help="rewrite the golden snapshots"
    )
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do (pass --regen to rewrite the snapshot)")
    GOLDEN_FLEET_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_FLEET_PATH.write_text(json.dumps(run_and_capture(), indent=2) + "\n")
    print(f"fleet golden snapshot written to {GOLDEN_FLEET_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
