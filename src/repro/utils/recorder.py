"""Telemetry recorder: the hooks protocol as a stream of structured events.

:class:`EventRecorder` is a :class:`~repro.utils.hooks.SimHooks`: passed as
``hooks=`` (or installed by ``ScenarioConfig.trace_path``, the ambient
recorder or a campaign's ``trace_dir``), it stamps every ``record(kind,
time_s, **fields)`` call into a versioned, sequenced JSON-serialisable event
and ships it to a pluggable **sink**:

:class:`MemorySink`
    Appends events to a list — the test/analysis sink.
:class:`JsonlSink`
    One compact JSON object per line.  Line writes are serialised under a
    lock so concurrent emitters can never interleave partial lines; with
    ``atomic=True`` the sink writes to a ``<path>.tmp-<pid>`` side file and
    publishes it with :func:`os.replace` on close, so two processes racing
    on the same path (a speculative campaign duplicate) leave one complete
    file, never a corrupt mix.

:data:`EVENT_SCHEMA` is the one list of event kinds and of the fields each
kind requires; the recorder refuses a kind that is not in it, so a
misspelt kind fails the first traced run.  Every event carries the envelope
``{"schema", "seq", "kind", "time_s"}`` plus its fields; ``seq`` increases
by one per event and ``time_s`` is non-decreasing within a recorder's
stream (events without a natural sim time inherit the stream's last time).
The ``elapsed_s``/``duration_s``/``delay_s`` fields are wall-clock
durations — trace-golden tests normalise them away (:func:`normalize_event`).

For code that cannot thread a recorder through its call chain (campaign
runners have a fixed ``runner(params, seed)`` signature),
:func:`use_recorder` installs an ambient recorder in a :mod:`contextvars`
context and :class:`~repro.simulation.dynamic.DynamicSystemSimulator` picks
it up automatically.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
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
    "read_jsonl",
    "EventRecorder",
    "use_recorder",
    "current_recorder",
]

#: Version stamped into every event envelope; bump on breaking field changes.
SCHEMA_VERSION = 1

#: Event kind -> required kind-specific fields (the envelope fields
#: ``schema``/``seq``/``kind``/``time_s`` are required for every kind).
#: The one list of event kinds: :meth:`EventRecorder.record` refuses any
#: other.  Extra fields are allowed everywhere: the schema is a floor, not a
#: ceiling.
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


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------
class EventRecorder(SimHooks):
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
        """Record one event of ``kind`` and return the emitted dict.

        Raises :class:`ValueError` on a kind that is not in
        :data:`EVENT_SCHEMA`.
        """
        if kind not in EVENT_SCHEMA:
            raise ValueError(f"unknown event kind {kind!r} (not in EVENT_SCHEMA)")
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
