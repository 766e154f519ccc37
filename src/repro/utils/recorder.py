"""Non-blocking telemetry recorder: structured events behind the kernel hooks.

The hooks protocol (:mod:`repro.utils.hooks`) reports *what happened*; this
module turns those reports into a versioned stream of JSON-serialisable
events and ships them to a pluggable **sink**:

:class:`MemorySink`
    Appends events to a list — the test/analysis sink.
:class:`JsonlSink`
    One compact JSON object per line.  Line writes are serialised under a
    lock so concurrent emitters can never interleave partial lines; with
    ``atomic=True`` the sink writes to a ``<path>.tmp-<pid>`` side file and
    publishes it with :func:`os.replace` on close, so two processes racing
    on the same path (a speculative campaign duplicate) leave one complete
    file, never a corrupt mix.
:class:`AsyncSink`
    Decorates another sink with a bounded queue and a writer thread.
    :meth:`AsyncSink.emit` **never blocks**: when the queue is full the
    event is counted in :attr:`AsyncSink.dropped` and discarded, so a slow
    disk can throttle telemetry but can never throttle the simulation.

Every event carries the envelope ``{"schema", "seq", "kind", "time_s"}``
plus the kind-specific fields of :data:`EVENT_SCHEMA`; ``seq`` increases by
one per event and ``time_s`` is non-decreasing within a recorder's stream
(events without a natural sim time inherit the stream's last time).  The
``elapsed_s``/``duration_s``/``delay_s`` fields are wall-clock durations —
trace-golden tests normalise them away (:func:`normalize_event`).

:class:`RecorderHooks` is the bridge: a :class:`~repro.utils.hooks.SimHooks`
implementation that records one event per hook call.  For code that cannot
thread a recorder through its call chain (campaign runners have a fixed
``runner(params, seed)`` signature), :func:`use_recorder` installs an
ambient recorder in a :mod:`contextvars` context and
:class:`~repro.simulation.dynamic.DynamicSystemSimulator` picks it up
automatically.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import queue
import threading
from typing import Dict, Iterator, List, Optional, Tuple

from repro.utils.hooks import SimHooks

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_SCHEMA",
    "validate_event",
    "normalize_event",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "AsyncSink",
    "read_jsonl",
    "EventRecorder",
    "RecorderHooks",
    "use_recorder",
    "current_recorder",
]

#: Version stamped into every event envelope; bump on breaking field changes.
SCHEMA_VERSION = 1

#: Event kind -> required kind-specific fields (the envelope fields
#: ``schema``/``seq``/``kind``/``time_s`` are required for every kind).
#: Extra fields are allowed everywhere: the schema is a floor, not a ceiling.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    # frame pipeline
    "run_start": (),
    "run_end": (),
    "stage_enter": ("stage",),
    "stage_exit": ("stage", "elapsed_s"),
    "frame": ("frame_index", "pending_requests", "active_bursts"),
    # admission path
    "admission": (
        "link",
        "num_pending",
        "num_granted",
        "objective_value",
        "optimal",
    ),
    # campaign / executors
    "campaign_start": (),
    "campaign_end": (),
    "replication_start": ("point_index", "replication"),
    "replication_end": ("point_index", "replication"),
    "task_issued": ("key", "attempt"),
    "task_completed": ("key", "attempts", "duration_s"),
    "task_retry": ("key", "attempt", "delay_s", "reason"),
    "task_quarantined": ("key", "attempts", "reason"),
    "task_shared": ("key", "source"),
    # swarm lifecycle (distributed executor)
    "worker_joined": ("worker_id",),
    "worker_left": ("worker_id", "reason"),
    "lease_granted": ("worker_id", "attempt", "num_tasks"),
    "lease_expired": ("worker_id", "attempt", "reason"),
    "work_stolen": ("key", "from_worker", "to_worker"),
}

#: Wall-clock fields: nondeterministic, dropped by :func:`normalize_event`.
WALL_CLOCK_FIELDS = ("elapsed_s", "duration_s", "delay_s")


def validate_event(event: object) -> List[str]:
    """Return the list of schema violations of ``event`` (empty = valid)."""
    problems: List[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {type(event).__name__}"]
    if event.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema is {event.get('schema')!r}, expected {SCHEMA_VERSION}")
    seq = event.get("seq")
    if not isinstance(seq, int) or seq < 0:
        problems.append(f"seq is {seq!r}, expected a non-negative integer")
    time_s = event.get("time_s")
    if not isinstance(time_s, (int, float)) or isinstance(time_s, bool):
        problems.append(f"time_s is {time_s!r}, expected a number")
    kind = event.get("kind")
    required = EVENT_SCHEMA.get(kind)
    if required is None:
        problems.append(f"unknown kind {kind!r}")
        return problems
    for name in required:
        if name not in event:
            problems.append(f"kind {kind!r} is missing required field {name!r}")
    return problems


def normalize_event(event: Dict) -> Dict:
    """Copy of ``event`` with the wall-clock (nondeterministic) fields dropped.

    The remainder — envelope, sim times, counts, solver stats — is a pure
    function of the scenario and seed, which is what the trace-golden tests
    snapshot.
    """
    return {key: value for key, value in event.items() if key not in WALL_CLOCK_FIELDS}


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class Sink:
    """Event sink contract.  ``emit`` receives one JSON-serialisable dict;
    ``close`` must be idempotent and flush buffered events."""

    def emit(self, event: Dict) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events to their destination (default no-op)."""

    def close(self) -> None:
        """Flush and release resources; safe to call more than once."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemorySink(Sink):
    """Keep events in a list (:attr:`events`) — the test/analysis sink."""

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self.closed = False

    def emit(self, event: Dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True

    def by_kind(self) -> Dict[str, int]:
        """Event count per kind (test helper)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            kind = event.get("kind")
            counts[kind] = counts.get(kind, 0) + 1
        return counts


class JsonlSink(Sink):
    """Write one compact JSON object per line to ``path``.

    Parameters
    ----------
    path:
        Destination file (parent directory must exist).
    atomic:
        Write to a ``<path>.tmp-<pid>`` side file and publish it with
        :func:`os.replace` only on :meth:`close`.  Use when several
        processes may race on the same path (campaign speculation): the
        replace is atomic, so the published file is always one complete
        stream — last finisher wins, which is safe because duplicated
        campaign tasks are bit-identical by the seed-tree contract.

    Concurrent :meth:`emit` calls are serialised under an internal lock, so
    lines are never interleaved.  Events that JSON cannot encode are
    stringified (telemetry must not take the simulation down).
    """

    def __init__(self, path: str, atomic: bool = False) -> None:
        self.path = str(path)
        self.atomic = bool(atomic)
        self._write_path = f"{self.path}.tmp-{os.getpid()}" if atomic else self.path
        self._lock = threading.Lock()
        self._handle = open(self._write_path, "w", encoding="utf-8")
        self._closed = False

    def emit(self, event: Dict) -> None:
        try:
            line = json.dumps(event, separators=(",", ":"))
        except (TypeError, ValueError):
            line = json.dumps(
                {str(key): repr(value) for key, value in event.items()},
                separators=(",", ":"),
            )
        with self._lock:
            if self._closed:
                return
            self._handle.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            self._handle.close()
            if self.atomic:
                os.replace(self._write_path, self.path)


def read_jsonl(path: str) -> List[Dict]:
    """Load a JSONL trace file into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class AsyncSink(Sink):
    """Bounded-queue decorator: never block the emitter, count the drops.

    A daemon writer thread drains a ``queue.Queue(maxsize)`` into the
    ``inner`` sink.  :meth:`emit` uses ``put_nowait``: when the queue is
    full (the writer is stalled on a slow destination) the event is dropped
    and counted — exactly once per lost event — in :attr:`dropped`.
    :meth:`close` is idempotent; the first call waits for the queue to
    drain, stops the thread and closes the inner sink, so close-then-read
    always observes every event that was not dropped.
    """

    _CLOSE = object()

    def __init__(self, inner: Sink, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.inner = inner
        self._queue: "queue.Queue" = queue.Queue(maxsize=maxsize)
        self._dropped = 0
        self._drop_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._writer = threading.Thread(
            target=self._drain, name="repro-telemetry-writer", daemon=True
        )
        self._writer.start()

    @property
    def dropped(self) -> int:
        """Events discarded because the bounded queue was full."""
        with self._drop_lock:
            return self._dropped

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._CLOSE:
                return
            try:
                self.inner.emit(item)
            except Exception:  # noqa: BLE001 - telemetry must not propagate
                with self._drop_lock:
                    self._dropped += 1

    def emit(self, event: Dict) -> None:
        if self._closed:
            with self._drop_lock:
                self._dropped += 1
            return
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            with self._drop_lock:
                self._dropped += 1

    def flush(self) -> None:
        """Best-effort: wait until the queue is momentarily empty."""
        while not self._queue.empty() and self._writer.is_alive():
            threading.Event().wait(0.001)
        self.inner.flush()

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # The blocking put is intentional: close() may wait for the writer,
        # emit() never does.
        self._queue.put(self._CLOSE)
        self._writer.join()
        self.inner.close()


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------
class EventRecorder:
    """Stamp hook reports into versioned, sequenced events and emit them.

    One recorder is one event *stream*: ``seq`` increases by one per event
    and ``time_s`` is non-decreasing (:attr:`last_time_s` carries forward to
    events recorded without a natural sim time).  ``record`` is thread-safe;
    line-level atomicity is the sink's job.
    """

    def __init__(self, sink: Sink) -> None:
        self.sink = sink
        self.last_time_s = 0.0
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def seq(self) -> int:
        """Number of events recorded so far."""
        return self._seq

    def record(self, kind: str, time_s: Optional[float] = None, **fields) -> Dict:
        """Record one event of ``kind`` and return the emitted dict."""
        with self._lock:
            if time_s is None:
                time_s = self.last_time_s
            elif time_s > self.last_time_s:
                self.last_time_s = time_s
            event = {
                "schema": SCHEMA_VERSION,
                "seq": self._seq,
                "kind": kind,
                "time_s": float(time_s),
            }
            self._seq += 1
        event.update(fields)
        self.sink.emit(event)
        return event

    def close(self) -> None:
        """Close the sink (idempotent, delegated)."""
        self.sink.close()

    def __enter__(self) -> "EventRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RecorderHooks(SimHooks):
    """Bridge :class:`~repro.utils.hooks.SimHooks` calls into recorder events."""

    def __init__(self, recorder: EventRecorder) -> None:
        self.recorder = recorder

    # -- frame pipeline ----------------------------------------------------
    def run_start(self, time_s, **info):
        self.recorder.record("run_start", time_s, **info)

    def run_end(self, time_s, **info):
        self.recorder.record("run_end", time_s, **info)

    def stage_enter(self, stage, time_s):
        self.recorder.record("stage_enter", time_s, stage=stage)

    def stage_exit(self, stage, time_s, elapsed_s):
        self.recorder.record("stage_exit", time_s, stage=stage, elapsed_s=elapsed_s)

    def frame(self, frame_index, time_s, pending_requests, active_bursts):
        self.recorder.record(
            "frame",
            time_s,
            frame_index=frame_index,
            pending_requests=pending_requests,
            active_bursts=active_bursts,
        )

    # -- admission path ----------------------------------------------------
    def admission(self, time_s, link, num_pending, num_granted, objective_value, optimal):
        self.recorder.record(
            "admission",
            time_s,
            link=link,
            num_pending=num_pending,
            num_granted=num_granted,
            objective_value=objective_value,
            optimal=optimal,
        )

    # -- campaign executors ------------------------------------------------
    def task_issued(self, key, attempt):
        self.recorder.record("task_issued", key=key, attempt=attempt)

    def task_completed(self, key, attempts, duration_s):
        self.recorder.record(
            "task_completed", key=key, attempts=attempts, duration_s=duration_s
        )

    def task_retry(self, key, attempt, delay_s, reason):
        self.recorder.record(
            "task_retry", key=key, attempt=attempt, delay_s=delay_s, reason=reason
        )

    def task_quarantined(self, key, attempts, reason):
        self.recorder.record(
            "task_quarantined", key=key, attempts=attempts, reason=reason
        )

    def task_shared(self, key, source):
        self.recorder.record("task_shared", key=key, source=source)

    # -- swarm lifecycle ---------------------------------------------------
    def worker_joined(self, worker_id):
        self.recorder.record("worker_joined", worker_id=worker_id)

    def worker_left(self, worker_id, reason):
        self.recorder.record("worker_left", worker_id=worker_id, reason=reason)

    def lease_granted(self, worker_id, attempt, num_tasks):
        self.recorder.record(
            "lease_granted", worker_id=worker_id, attempt=attempt, num_tasks=num_tasks
        )

    def lease_expired(self, worker_id, attempt, reason):
        self.recorder.record(
            "lease_expired", worker_id=worker_id, attempt=attempt, reason=reason
        )

    def work_stolen(self, key, from_worker, to_worker):
        self.recorder.record(
            "work_stolen", key=key, from_worker=from_worker, to_worker=to_worker
        )


# ---------------------------------------------------------------------------
# Ambient recorder (campaign runners have a fixed signature)
# ---------------------------------------------------------------------------
_AMBIENT: "contextvars.ContextVar[Optional[EventRecorder]]" = contextvars.ContextVar(
    "repro_ambient_recorder", default=None
)


def current_recorder() -> Optional[EventRecorder]:
    """The ambient recorder installed by :func:`use_recorder`, if any."""
    return _AMBIENT.get()


@contextlib.contextmanager
def use_recorder(recorder: EventRecorder) -> Iterator[EventRecorder]:
    """Install ``recorder`` as the ambient recorder for the ``with`` body.

    Simulators constructed inside the body with no explicit hooks and no
    ``ScenarioConfig.trace_path`` trace into this recorder — the channel the
    campaign engine uses to give per-replication traces to runners whose
    ``runner(params, seed)`` signature cannot carry one.
    """
    token = _AMBIENT.set(recorder)
    try:
        yield recorder
    finally:
        _AMBIENT.reset(token)
