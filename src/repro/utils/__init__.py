"""Shared utilities: unit conversions, random-number handling, statistics."""

from repro.utils.units import db_to_linear, linear_to_db
from repro.utils.rng import RngFactory
from repro.utils.stats import (
    RunningStats,
    Histogram,
    confidence_interval,
    paired_confidence_interval,
    unpaired_confidence_interval,
)
from repro.utils.tables import format_table
from repro.utils.hooks import (
    SimHooks,
    CompositeHooks,
    StageTimingHooks,
    resolve_hooks,
)
from repro.utils.recorder import (
    SCHEMA_VERSION,
    EVENT_SCHEMA,
    validate_event,
    normalize_event,
    Sink,
    MemorySink,
    JsonlSink,
    read_jsonl,
    EventRecorder,
    use_recorder,
    current_recorder,
)

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "RngFactory",
    "RunningStats",
    "Histogram",
    "confidence_interval",
    "paired_confidence_interval",
    "unpaired_confidence_interval",
    "format_table",
    "SimHooks",
    "CompositeHooks",
    "StageTimingHooks",
    "resolve_hooks",
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
