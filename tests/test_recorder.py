"""Property/invariant suite for the telemetry recorder and its sinks.

Locks the recorder contract the observability layer rests on:

* events carry the versioned envelope and validate against
  :data:`repro.utils.recorder.EVENT_SCHEMA`;
* ``seq`` increases by one per event and ``time_s`` is non-decreasing
  within one recorder's stream;
* :class:`AsyncSink` never blocks the emitter — a saturated bounded queue
  drops events and reports the **exact** drop count;
* sink ``close`` is idempotent and flushes buffered events;
* concurrent emitters never interleave partial JSONL lines;
* campaign tracing only observes: aggregates of a traced run are
  bit-identical to an untraced one, and every trace line is schema-valid.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.utils.recorder import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    WALL_CLOCK_FIELDS,
    AsyncSink,
    EventRecorder,
    JsonlSink,
    MemorySink,
    RecorderHooks,
    Sink,
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
        recorder = EventRecorder(sink)
        hooks = RecorderHooks(recorder)
        hooks.run_start(0.0, frames=3)
        hooks.stage_enter("voice", 0.0)
        hooks.stage_exit("voice", 0.0, 1.5e-4)
        hooks.frame(0, 0.0, pending_requests=2, active_bursts=1)
        hooks.admission(0.02, "forward", 3, 2, 12.5, True)
        hooks.task_issued("0/1", 1)
        hooks.task_completed("0/1", 1, 0.25)
        hooks.task_retry("0/2", 1, 0.5, "TimeoutError")
        hooks.task_quarantined("0/2", 3, "TimeoutError")
        hooks.run_end(0.06)
        assert sink.events
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
        # The bridge must only emit kinds the schema knows.
        assert set(EVENT_SCHEMA) >= {
            "run_start", "run_end", "stage_enter", "stage_exit", "frame",
            "admission", "campaign_start", "campaign_end",
            "replication_start", "replication_end",
            "task_issued", "task_completed", "task_retry", "task_quarantined",
        }

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
# AsyncSink: never block, exact drop counts
# ---------------------------------------------------------------------------
class _GatedSink(Sink):
    """Inner sink whose emit blocks until released (writer-stall model)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.events = []

    def emit(self, event):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "gated sink never released"
        self.events.append(event)

    def close(self):
        pass


class TestAsyncSink:
    def test_saturated_queue_never_blocks_and_counts_exact_drops(self):
        inner = _GatedSink()
        sink = AsyncSink(inner, maxsize=4)
        recorder = EventRecorder(sink)

        # First event: wait until the writer thread holds it inside emit(),
        # so the queue is empty and its capacity is exactly maxsize.
        recorder.record("run_start", 0.0)
        assert inner.entered.wait(timeout=10.0)
        # Fill the queue to capacity, then overflow by exactly 7.
        for index in range(4):
            recorder.record("frame", float(index), frame_index=index,
                            pending_requests=0, active_bursts=0)
        assert sink.dropped == 0
        started = time.perf_counter()
        for index in range(7):
            recorder.record("frame", 10.0 + index, frame_index=index,
                            pending_requests=0, active_bursts=0)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, "emit must not block on a saturated queue"
        assert sink.dropped == 7

        inner.release.set()
        sink.close()
        # Everything that was not dropped reached the inner sink.
        assert len(inner.events) == 1 + 4
        assert sink.dropped == 7

    def test_close_flushes_queued_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = AsyncSink(JsonlSink(str(path)), maxsize=256)
        recorder = EventRecorder(sink)
        for index in range(100):
            recorder.record("frame", float(index), frame_index=index,
                            pending_requests=0, active_bursts=0)
        sink.close()
        events = read_jsonl(str(path))
        assert len(events) == 100 - sink.dropped == 100
        assert [event["seq"] for event in events] == list(range(100))

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = AsyncSink(JsonlSink(str(path)), maxsize=8)
        sink.emit({"schema": SCHEMA_VERSION, "seq": 0, "kind": "run_start",
                   "time_s": 0.0})
        sink.close()
        sink.close()  # must not raise, deadlock or duplicate
        assert len(read_jsonl(str(path))) == 1

    def test_emit_after_close_counts_as_dropped(self):
        sink = AsyncSink(MemorySink(), maxsize=8)
        sink.close()
        sink.emit({"schema": SCHEMA_VERSION, "seq": 0, "kind": "run_start",
                   "time_s": 0.0})
        assert sink.dropped == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            AsyncSink(MemorySink(), maxsize=0)


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
