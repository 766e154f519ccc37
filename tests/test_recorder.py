"""Property/invariant suite for the telemetry recorder and its sinks.

Locks the recorder contract the observability layer rests on:

* events carry the versioned envelope and validate against
  :data:`repro.utils.recorder.EVENT_SCHEMA`;
* the recorder refuses a kind that :data:`EVENT_SCHEMA` does not list, and
  every kind the product records is listed;
* ``seq`` increases by one per event and ``time_s`` is non-decreasing
  within one recorder's stream;
* sink ``close`` is idempotent and flushes buffered events;
* concurrent emitters never interleave partial JSONL lines;
* campaign tracing only observes: aggregates of a traced run are
  bit-identical to an untraced one, and every trace line is schema-valid.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.utils.recorder import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    WALL_CLOCK_FIELDS,
    EventRecorder,
    JsonlSink,
    MemorySink,
    current_recorder,
    normalize_event,
    read_jsonl,
    use_recorder,
    validate_event,
)


# ---------------------------------------------------------------------------
# Envelope and schema
# ---------------------------------------------------------------------------
class TestSchema:
    def test_recorded_events_are_schema_valid(self):
        sink = MemorySink()
        hooks = EventRecorder(sink)
        hooks.record("run_start", 0.0, frames=3)
        hooks.record("stage_enter", 0.0, stage="voice")
        hooks.record("stage_exit", 0.0, stage="voice", elapsed_s=1.5e-4)
        hooks.record("frame", 0.0, frame_index=0, pending_requests=2, active_bursts=1)
        hooks.record("admission", 0.02, link="forward", num_pending=3, num_granted=2,
                     objective_value=12.5, optimal=True)
        hooks.record("task_issued", key="0/1", attempt=1)
        hooks.record("task_completed", key="0/1", attempts=1, duration_s=0.25)
        hooks.record("task_retry", key="0/2", attempt=1, delay_s=0.5, reason="TimeoutError")
        hooks.record("task_quarantined", key="0/2", attempts=3, reason="TimeoutError")
        hooks.record("run_end", 0.06)
        assert len(sink.events) == 10
        for event in sink.events:
            assert validate_event(event) == []

    def test_envelope_fields(self):
        sink = MemorySink()
        recorder = EventRecorder(sink)
        event = recorder.record("frame", 1.5, frame_index=0,
                                pending_requests=0, active_bursts=0)
        assert event["schema"] == SCHEMA_VERSION
        assert event["seq"] == 0
        assert event["kind"] == "frame"
        assert event["time_s"] == 1.5

    def test_validate_event_catches_violations(self):
        assert validate_event("not a dict")
        assert validate_event({}) != []
        assert any(
            "unknown kind" in problem
            for problem in validate_event(
                {"schema": SCHEMA_VERSION, "seq": 0, "time_s": 0.0, "kind": "nope"}
            )
        )
        missing = validate_event(
            {"schema": SCHEMA_VERSION, "seq": 0, "time_s": 0.0, "kind": "stage_exit"}
        )
        assert any("stage" in problem for problem in missing)
        assert any("elapsed_s" in problem for problem in missing)
        wrong_schema = validate_event(
            {"schema": 99, "seq": 0, "time_s": 0.0, "kind": "run_start"}
        )
        assert any("schema" in problem for problem in wrong_schema)

    def test_every_kind_has_a_schema_entry_in_hooks_bridge(self):
        # The product records exactly the kinds the schema lists: every
        # literal kind passed to ``record`` in src/ is a schema key, and every
        # schema key is recorded somewhere.
        assert set(EVENT_SCHEMA) >= {
            "run_start", "run_end", "stage_enter", "stage_exit", "frame",
            "admission", "campaign_start", "campaign_end",
            "replication_start", "replication_end",
            "task_issued", "task_completed", "task_retry", "task_quarantined",
        }
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        recorded = set()
        for path in src.rglob("*.py"):
            recorded.update(re.findall(r'\.record\(\s*"(\w+)"', path.read_text()))
        assert recorded == set(EVENT_SCHEMA)

    def test_unknown_kind_is_refused(self):
        sink = MemorySink()
        recorder = EventRecorder(sink)
        with pytest.raises(ValueError, match="stage_exitt"):
            recorder.record("stage_exitt", 0.0, stage="mac", elapsed_s=0.0)
        assert sink.events == [] and recorder.seq == 0

    def test_normalize_drops_wall_clock_fields_only(self):
        event = {
            "schema": SCHEMA_VERSION, "seq": 3, "kind": "stage_exit",
            "time_s": 0.04, "stage": "mac", "elapsed_s": 1.25e-3,
        }
        normalized = normalize_event(event)
        assert "elapsed_s" not in normalized
        assert normalized["stage"] == "mac"
        assert normalized["time_s"] == 0.04
        for field in WALL_CLOCK_FIELDS:
            assert field not in normalized


# ---------------------------------------------------------------------------
# Ordering invariants
# ---------------------------------------------------------------------------
class TestOrdering:
    def test_seq_is_dense_and_time_monotone(self):
        sink = MemorySink()
        recorder = EventRecorder(sink)
        recorder.record("run_start", 0.0)
        recorder.record("stage_enter", 0.0, stage="voice")
        recorder.record("task_issued", key="0/0", attempt=1)  # no sim time
        recorder.record("frame", 0.02, frame_index=0,
                        pending_requests=0, active_bursts=0)
        recorder.record("run_end", 0.04)
        seqs = [event["seq"] for event in sink.events]
        assert seqs == list(range(len(sink.events)))
        times = [event["time_s"] for event in sink.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_events_without_sim_time_inherit_last_time(self):
        recorder = EventRecorder(MemorySink())
        recorder.record("frame", 2.5, frame_index=0,
                        pending_requests=0, active_bursts=0)
        event = recorder.record("task_completed", key="0/0",
                                attempts=1, duration_s=0.1)
        assert event["time_s"] == 2.5
        assert recorder.last_time_s == 2.5


# ---------------------------------------------------------------------------
# JsonlSink: atomicity of lines and of files
# ---------------------------------------------------------------------------
class TestJsonlSink:
    def test_concurrent_emit_never_interleaves_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        recorder = EventRecorder(sink)
        threads, per_thread = 8, 200

        def worker(worker_id):
            for index in range(per_thread):
                recorder.record(
                    "task_completed",
                    key=f"{worker_id}/{index}",
                    attempts=1,
                    duration_s=0.0,
                    blob="x" * 256,  # long enough to tear if writes interleave
                )

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        sink.close()

        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == threads * per_thread
        events = [json.loads(line) for line in lines]  # raises on a torn line
        assert sorted(event["seq"] for event in events) == list(
            range(threads * per_thread)
        )
        keys = {event["key"] for event in events}
        assert len(keys) == threads * per_thread

    def test_close_is_idempotent_and_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"schema": SCHEMA_VERSION, "seq": 0, "kind": "run_start",
                   "time_s": 0.0})
        sink.close()
        sink.close()
        sink.emit({"schema": SCHEMA_VERSION, "seq": 1, "kind": "run_end",
                   "time_s": 0.0})
        assert len(read_jsonl(str(path))) == 1

    def test_atomic_sink_publishes_only_on_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path), atomic=True)
        sink.emit({"schema": SCHEMA_VERSION, "seq": 0, "kind": "run_start",
                   "time_s": 0.0})
        assert not path.exists(), "atomic sink must not publish before close"
        sink.close()
        assert path.exists()
        assert len(read_jsonl(str(path))) == 1
        assert not list(tmp_path.glob("*.tmp-*")), "side file must be renamed away"

    def test_unencodable_event_is_stringified_not_raised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"kind": "run_start", "bad": object()})
        sink.close()
        events = read_jsonl(str(path))
        assert len(events) == 1 and "object" in events[0]["bad"]


# ---------------------------------------------------------------------------
# Ambient recorder
# ---------------------------------------------------------------------------
class TestAmbientRecorder:
    def test_use_recorder_installs_and_restores(self):
        assert current_recorder() is None
        recorder = EventRecorder(MemorySink())
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert current_recorder() is recorder
        assert current_recorder() is None

    def test_nested_contexts_restore_outer(self):
        outer, inner = EventRecorder(MemorySink()), EventRecorder(MemorySink())
        with use_recorder(outer):
            with use_recorder(inner):
                assert current_recorder() is inner
            assert current_recorder() is outer


# ---------------------------------------------------------------------------
# Campaign tracing: observe-only, schema-valid
# ---------------------------------------------------------------------------
def _traced_runner(params, seed: np.random.SeedSequence) -> dict:
    """Tiny dynamic run driven by the campaign seed leaf (module-level for
    pool pickling)."""
    from repro.experiments.campaign import seed_sequence_to_int
    from repro.mac import JabaSdScheduler
    from repro.simulation import DynamicSystemSimulator, ScenarioConfig

    scenario = ScenarioConfig.fast_test(
        duration_s=0.1,
        warmup_s=0.0,
        num_data_users_per_cell=int(params["load"]),
        seed=seed_sequence_to_int(seed),
    )
    result = DynamicSystemSimulator(scenario, JabaSdScheduler("J1")).run()
    return {
        "delay": float(result.mean_packet_delay_s),
        "throughput": float(result.carried_throughput_bps),
    }


class TestCampaignTracing:
    def _campaign(self):
        from repro.experiments.campaign import Campaign

        return Campaign(
            name="trace-test",
            runner=_traced_runner,
            points=[{"load": 1}, {"load": 2}],
            replications=2,
            root_seed=42,
        )

    @staticmethod
    def _aggregate(result):
        return [
            [point.replications[rep] for rep in sorted(point.replications)]
            for point in result.points
        ]

    def test_traced_aggregates_bit_identical_and_traces_schema_valid(self, tmp_path):
        untraced = self._campaign().run()
        trace_dir = tmp_path / "traces"
        traced = self._campaign().run(trace_dir=str(trace_dir))
        assert self._aggregate(traced) == self._aggregate(untraced)

        campaign_trace = read_jsonl(str(trace_dir / "campaign.jsonl"))
        kinds = [event["kind"] for event in campaign_trace]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert kinds.count("task_issued") == 4
        assert kinds.count("task_completed") == 4
        for event in campaign_trace:
            assert validate_event(event) == []

        rep_paths = sorted(trace_dir.glob("point*_rep*.jsonl"))
        assert len(rep_paths) == 4
        for path in rep_paths:
            events = read_jsonl(str(path))
            for event in events:
                assert validate_event(event) == []
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "replication_start"
            assert kinds[-1] == "replication_end"
            # The ambient recorder captured the dynamic run's pipeline.
            assert "run_start" in kinds
            assert "frame" in kinds
            assert "stage_enter" in kinds
            times = [event["time_s"] for event in events]
            assert all(a <= b for a, b in zip(times, times[1:]))

    def test_trace_path_scenario_field_records_a_run(self, tmp_path):
        from repro.mac import JabaSdScheduler
        from repro.simulation import DynamicSystemSimulator, ScenarioConfig

        path = tmp_path / "run.jsonl"
        scenario = ScenarioConfig.fast_test(
            duration_s=0.1, warmup_s=0.0, trace_path=str(path)
        )
        DynamicSystemSimulator(scenario, JabaSdScheduler("J1")).run()
        events = read_jsonl(str(path))
        assert events, "trace_path run must publish its trace on completion"
        for event in events:
            assert validate_event(event) == []
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
