#!/usr/bin/env python
"""Trace a dynamic simulation run with the telemetry recorder.

Demonstrates the three ways to observe a run:

1. ``ScenarioConfig(trace_path=...)`` — the simulator owns a recorder and
   writes a schema-versioned JSONL event stream (published atomically when
   the run completes);
2. an explicit ``hooks=EventRecorder(MemorySink())`` for in-process
   analysis of the same events;
3. ``StageTimingHooks`` for a per-stage wall-time profile of the frame
   pipeline.

Run it with ``python examples/trace_dynamic_run.py [--out trace.jsonl]``.
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.mac import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from repro.utils.hooks import StageTimingHooks
from repro.utils.recorder import EventRecorder, MemorySink, read_jsonl, validate_event


def make_scenario(trace_path=None) -> ScenarioConfig:
    return ScenarioConfig.fast_test(
        duration_s=1.0,
        warmup_s=0.2,
        num_data_users_per_cell=4,
        traffic=TrafficConfig(
            mean_reading_time_s=1.0,
            packet_call_min_bits=24_000,
            packet_call_max_bits=200_000,
        ),
        trace_path=trace_path,
    )


def main(argv=None) -> int:
    """Run the three observations; return the number of invalid events."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="trace_dynamic_run.jsonl",
                        help="JSONL trace output path")
    parser.add_argument("--objective", choices=["J1", "J2"], default="J1")
    args = parser.parse_args(argv)

    # 1. Record a full run to JSONL via the scenario's trace_path.
    scenario = make_scenario(trace_path=args.out)
    result = DynamicSystemSimulator(scenario, JabaSdScheduler(args.objective)).run()
    events = read_jsonl(args.out)
    invalid = sum(1 for event in events if validate_event(event))
    kinds = Counter(event["kind"] for event in events)
    print(f"wrote {args.out}: {len(events)} events ({invalid} invalid)")
    for kind, count in kinds.most_common():
        print(f"  {kind:<12} {count:>6}")

    # 2. The same run recorded in memory: the recorder is the hooks.
    sink = MemorySink()
    DynamicSystemSimulator(make_scenario(), JabaSdScheduler(args.objective),
                           hooks=EventRecorder(sink)).run()
    invalid += sum(1 for event in sink.events if validate_event(event))
    admissions = [event for event in sink.events if event["kind"] == "admission"]
    granted = sum(event["num_granted"] for event in admissions)
    print(f"in memory: {len(sink.events)} events, {len(admissions)} admission "
          f"decisions ({granted} grants), mean delay {result.mean_packet_delay_s:.3f} s")

    # 3. Profile the frame pipeline with stage-timing hooks (no file I/O).
    timing = StageTimingHooks()
    DynamicSystemSimulator(make_scenario(), JabaSdScheduler(args.objective),
                           hooks=timing).run()
    print(f"per-stage profile over {timing.frames} frames:")
    for stage, ms in sorted(timing.per_frame_ms().items(), key=lambda kv: -kv[1]):
        print(f"  {stage:<14} {ms:.4f} ms/frame")
    return invalid


if __name__ == "__main__":
    raise SystemExit(1 if main() else 0)
