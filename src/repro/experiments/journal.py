"""Crash-consistent checkpoint journal: compacted JSON + append-only WAL.

The campaign engine checkpoints after *every* completed replication.  The
historic implementation rewrote the whole JSON checkpoint each time, which
has two failure modes at scale:

* the rewrite is O(completed) per result, so a long campaign spends
  quadratic time serialising its own history;
* a crash (power loss, SIGKILL) in the window between truncating/creating
  the temp file and the atomic rename — or an un-fsynced rename picked up
  by a dirty page-cache loss — can publish an empty or partial file, which
  the corrupt-checkpoint quarantine then discards, losing *completed* work.

:class:`CheckpointJournal` replaces that with the classic write-ahead-log
shape:

* ``<path>`` stays the compacted JSON checkpoint in the historic format
  (``{"fingerprint": ..., "completed": {...}}``) — readers and resume
  tooling keep working unchanged;
* ``<path>.wal`` is an append-only journal: one fingerprinted line per
  completed replication, ``crc32<space>json-body``, flushed **and
  fsync'd** before :meth:`append` returns.  A coordinator killed at any
  byte offset leaves at most one torn tail line, which replay detects (bad
  CRC / missing newline) and drops;
* :meth:`compact` folds the WAL into the JSON checkpoint atomically
  (write temp → flush → **fsync** → rename → fsync directory) and then
  resets the WAL the same way.  A crash between the two steps merely
  leaves WAL records that duplicate JSON entries — replay is idempotent
  (dict union), so resume is correct from every intermediate state;
* :meth:`load` reads the JSON (quarantining a corrupt file to
  ``<path>.corrupt`` exactly like the historic loader), replays the valid
  WAL prefix on top, and truncates any torn tail so subsequent appends
  start on a clean line boundary.

Every WAL starts with a header line carrying the campaign fingerprint; a
WAL written by a differently shaped campaign is refused, mirroring the
JSON fingerprint check.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from typing import Dict, List, Optional, Tuple

__all__ = ["CheckpointJournal"]

MetricDict = Dict[str, float]

#: Journal format version stamped into the WAL header line.
WAL_VERSION = 1


def _fsync_dir(path: str) -> None:
    """fsync the directory containing ``path`` (durability of renames)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directory fsync unsupported
        pass
    finally:
        os.close(fd)


def _atomic_write(path: str, data: str) -> None:
    """Publish ``data`` at ``path`` durably: temp → flush → fsync → rename."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


def _encode_line(body: str) -> str:
    """One WAL line: ``crc32-hex<space>body``; the CRC covers the body."""
    return f"{zlib.crc32(body.encode('utf-8')):08x} {body}\n"


def _decode_line(line: bytes) -> Optional[dict]:
    """Decode one complete WAL line; ``None`` if torn or corrupt."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the write never completed
    try:
        text = line.decode("utf-8")
        crc_hex, body = text[:-1].split(" ", 1)
        if int(crc_hex, 16) != zlib.crc32(body.encode("utf-8")):
            return None
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class CheckpointJournal:
    """Durable ``(key -> metrics)`` store behind the campaign checkpoint.

    Parameters
    ----------
    path:
        The JSON checkpoint path (the WAL lives at ``<path>.wal``).
    fingerprint:
        Campaign shape digest; a checkpoint or WAL carrying a different
        fingerprint is refused (``ValueError``) instead of silently mixing
        incompatible replications.
    meta:
        Extra fields recorded in the compacted JSON (campaign name, root
        seed, ...), for human readers — the loader only trusts
        ``fingerprint`` and ``completed``.
    compact_every:
        Fold the WAL into the JSON after this many appended records (the
        WAL stays small and resume replay stays fast).  ``None`` compacts
        only on :meth:`close`.

    Every append is fsync'd before it returns: the durability contract.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        meta: Optional[Dict[str, object]] = None,
        compact_every: Optional[int] = 128,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError("compact_every must be positive (or None)")
        self.path = str(path)
        self.wal_path = f"{self.path}.wal"
        self.fingerprint = str(fingerprint)
        self.meta = dict(meta or {})
        self.compact_every = compact_every
        self._completed: Dict[str, MetricDict] = {}
        self.notes: List[dict] = []
        self._wal_records = 0  # records in the WAL since the last compaction
        self._handle = None
        self._loaded = False

    # -- load / replay -----------------------------------------------------------
    def _load_json(self) -> Dict[str, MetricDict]:
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("checkpoint root is not a JSON object")
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            # A checkpoint truncated by a crash mid-write (or otherwise
            # mangled) must not kill the resume: quarantine the file for
            # post-mortem and recompute from the WAL / from scratch.
            quarantine = f"{self.path}.corrupt"
            os.replace(self.path, quarantine)
            warnings.warn(
                f"checkpoint {self.path!r} is corrupt ({exc}); moved it to "
                f"{quarantine!r} and starting fresh",
                RuntimeWarning,
                stacklevel=3,
            )
            return {}
        if payload.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"checkpoint {self.path!r} was written by a different campaign "
                f"(name/grid/replications/root seed changed); refusing to resume"
            )
        notes = payload.get("notes", [])
        if isinstance(notes, list):
            self.notes = [dict(note) for note in notes if isinstance(note, dict)]
        return {str(k): dict(v) for k, v in payload.get("completed", {}).items()}

    def _replay_wal(self) -> Tuple[Dict[str, MetricDict], int]:
        """Replay the valid WAL prefix; return ``(records, valid_bytes)``."""
        records: Dict[str, MetricDict] = {}
        if not os.path.exists(self.wal_path):
            return records, 0
        with open(self.wal_path, "rb") as handle:
            raw = handle.read()
        offset = 0
        first = True
        while offset < len(raw):
            end = raw.find(b"\n", offset)
            line = raw[offset:] if end < 0 else raw[offset : end + 1]
            payload = _decode_line(line)
            if payload is None:
                break  # torn/corrupt line: everything after it is unreliable
            if first:
                first = False
                if payload.get("wal") != WAL_VERSION:
                    break  # unknown header: treat the whole file as foreign
                if payload.get("fingerprint") != self.fingerprint:
                    raise ValueError(
                        f"journal {self.wal_path!r} was written by a different "
                        f"campaign; refusing to resume"
                    )
            elif "key" in payload:
                records[str(payload["key"])] = dict(payload.get("metrics", {}))
            elif "note" in payload and isinstance(payload["note"], dict):
                self.notes.append(dict(payload["note"]))
            offset += len(line)
        return records, offset

    def load(self) -> Dict[str, MetricDict]:
        """Recover the completed map: compacted JSON ∪ valid WAL prefix.

        Also truncates any torn WAL tail (so appends resume on a clean line
        boundary) and opens the WAL for appending.  Must be called exactly
        once, before :meth:`append`.
        """
        if self._loaded:
            raise RuntimeError("load() must be called exactly once")
        self._loaded = True
        self._completed = self._load_json()
        replayed, valid_bytes = self._replay_wal()
        if os.path.exists(self.wal_path):
            size = os.path.getsize(self.wal_path)
            if valid_bytes < size:
                with open(self.wal_path, "rb+") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
        self._completed.update(replayed)
        self._wal_records = len(replayed)
        self._open_wal(create_header=valid_bytes == 0)
        return dict(self._completed)

    # -- append ------------------------------------------------------------------
    def _open_wal(self, create_header: bool) -> None:
        self._handle = open(self.wal_path, "ab")
        if create_header:
            header = {
                "wal": WAL_VERSION,
                "fingerprint": self.fingerprint,
                **{k: v for k, v in self.meta.items() if k != "completed"},
            }
            self._write_line(json.dumps(header, separators=(",", ":")))

    def _write_line(self, body: str) -> None:
        self._handle.write(_encode_line(body).encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, key: str, metrics: MetricDict) -> None:
        """Durably record one completed replication (O(1), fsync'd)."""
        if not self._loaded:
            raise RuntimeError("call load() before append()")
        self._completed[str(key)] = dict(metrics)
        self._write_line(
            json.dumps({"key": str(key), "metrics": metrics}, separators=(",", ":"))
        )
        self._wal_records += 1
        if self.compact_every is not None and self._wal_records >= self.compact_every:
            self.compact()

    def append_note(self, note: dict) -> None:
        """Durably record one free-form annotation (wave schedules, ...).

        Notes ride the same fsync'd WAL (and survive compaction into the
        JSON under ``"notes"``) but are pure observability: the resume
        loader only trusts ``fingerprint`` and ``completed``, so a foreign
        or missing notes list never changes what gets recomputed.
        """
        if not self._loaded:
            raise RuntimeError("call load() before append_note()")
        self.notes.append(dict(note))
        self._write_line(json.dumps({"note": dict(note)}, separators=(",", ":")))
        self._wal_records += 1
        if self.compact_every is not None and self._wal_records >= self.compact_every:
            self.compact()

    # -- compaction --------------------------------------------------------------
    def compact(self) -> None:
        """Fold the WAL into the JSON checkpoint; both steps are atomic.

        Order matters for crash consistency: the JSON (containing every WAL
        record) is published first, the WAL reset second.  A crash in
        between leaves WAL records that duplicate JSON entries, which
        replay merges idempotently.
        """
        if not self._loaded:
            raise RuntimeError("call load() before compact()")
        payload = {
            **self.meta,
            "fingerprint": self.fingerprint,
            "completed": self._completed,
        }
        if self.notes:
            payload["notes"] = self.notes
        _atomic_write(self.path, json.dumps(payload))
        if self._handle is not None:
            self._handle.close()
        # Reset the WAL to a fresh header (atomically: a crash mid-reset
        # leaves either the old WAL, whose records now duplicate the JSON,
        # or the new header-only WAL — both resume correctly).
        header = {
            "wal": WAL_VERSION,
            "fingerprint": self.fingerprint,
            **{k: v for k, v in self.meta.items() if k != "completed"},
        }
        _atomic_write(self.wal_path, _encode_line(json.dumps(header, separators=(",", ":"))))
        self._wal_records = 0
        self._handle = open(self.wal_path, "ab")

    def close(self) -> None:
        """Compact (when anything was recorded) and release the WAL handle.

        After a clean close the checkpoint is a complete JSON file and the
        WAL is removed — the historic on-disk layout, byte-compatible with
        pre-journal readers.
        """
        if not self._loaded:
            return
        if self._completed or os.path.exists(self.path):
            self.compact()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        # The compacted JSON now owns every record; a header-only WAL is
        # pure noise, so a clean shutdown removes it.
        if os.path.exists(self.wal_path) and self._wal_records == 0:
            os.remove(self.wal_path)
            _fsync_dir(self.wal_path)
        self._loaded = False

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
