"""Crash consistency of the checkpoint journal (WAL + compaction)."""

import json
import os

import pytest

from repro.experiments.journal import (
    CheckpointJournal,
    _decode_line,
    _encode_line,
)

FP = "deadbeefcafe0123"


def make_journal(tmp_path, **kwargs):
    return CheckpointJournal(
        str(tmp_path / "ckpt.json"),
        FP,
        meta={"campaign": "toy", "root_seed": 7},
        **kwargs,
    )


def reload_completed(tmp_path, **kwargs):
    journal = make_journal(tmp_path, **kwargs)
    completed = journal.load()
    journal.close()
    return completed


class TestLineCodec:
    def test_round_trip(self):
        line = _encode_line('{"key":"0/1","metrics":{"x":1.5}}')
        assert _decode_line(line.encode()) == {"key": "0/1", "metrics": {"x": 1.5}}

    def test_missing_newline_is_torn(self):
        line = _encode_line('{"key":"0/1"}').encode()[:-1]
        assert _decode_line(line) is None

    def test_crc_mismatch_rejected(self):
        line = _encode_line('{"key":"0/1"}').encode()
        corrupted = line.replace(b'"0/1"', b'"9/9"')
        assert _decode_line(corrupted) is None

    def test_non_object_body_rejected(self):
        assert _decode_line(_encode_line("[1,2]").encode()) is None


class TestAppendReplay:
    def test_append_then_reload(self, tmp_path):
        with make_journal(tmp_path) as journal:
            journal.load()
            journal.append("0/0", {"x": 1.0})
            journal.append("0/1", {"x": 2.0})
        assert reload_completed(tmp_path) == {"0/0": {"x": 1.0}, "0/1": {"x": 2.0}}

    def test_wal_survives_without_close(self, tmp_path):
        # Simulates a coordinator killed before any compaction: the JSON
        # never exists, every record is recovered from the WAL alone.
        journal = make_journal(tmp_path)
        journal.load()
        journal.append("0/0", {"x": 1.0})
        journal._handle.close()  # drop the handle, skip compaction
        assert not os.path.exists(journal.path)
        assert reload_completed(tmp_path) == {"0/0": {"x": 1.0}}

    def test_append_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        journal = make_journal(tmp_path)
        journal.load()
        synced.clear()
        journal.append("0/0", {"x": 1.0})
        assert synced, "append must fsync before returning"

    def test_load_twice_refused(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.load()
        with pytest.raises(RuntimeError, match="exactly once"):
            journal.load()

    def test_append_before_load_refused(self, tmp_path):
        with pytest.raises(RuntimeError, match="load"):
            make_journal(tmp_path).append("0/0", {})


class TestTornTail:
    def _wal_bytes(self, tmp_path, records=3):
        journal = make_journal(tmp_path)
        journal.load()
        for index in range(records):
            journal.append(f"0/{index}", {"x": float(index)})
        journal._handle.close()
        with open(journal.wal_path, "rb") as handle:
            return journal.wal_path, handle.read()

    def test_kill_at_every_byte_offset_recovers_prefix(self, tmp_path):
        wal_path, raw = self._wal_bytes(tmp_path)
        line_ends = [i + 1 for i, b in enumerate(raw) if raw[i : i + 1] == b"\n"]
        for cut in range(len(raw) + 1):
            with open(wal_path, "wb") as handle:
                handle.write(raw[:cut])
            completed = reload_completed(tmp_path)
            complete_records = sum(1 for end in line_ends[1:] if end <= cut)
            assert len(completed) == complete_records, f"cut at byte {cut}"
            if complete_records:
                # The compacted JSON left behind carries the same records.
                with open(str(tmp_path / "ckpt.json")) as handle:
                    assert len(json.load(handle)["completed"]) == complete_records
                os.remove(str(tmp_path / "ckpt.json"))

    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        wal_path, raw = self._wal_bytes(tmp_path)
        with open(wal_path, "wb") as handle:
            handle.write(raw[:-4])  # tear the last record
        journal = make_journal(tmp_path)
        completed = journal.load()
        assert set(completed) == {"0/0", "0/1"}
        journal.append("1/0", {"x": 9.0})
        journal._handle.close()
        assert set(reload_completed(tmp_path)) == {"0/0", "0/1", "1/0"}

    def test_corrupt_middle_line_drops_the_suffix(self, tmp_path):
        wal_path, raw = self._wal_bytes(tmp_path)
        lines = raw.splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"x"', b'"y"', 1)  # breaks the CRC
        with open(wal_path, "wb") as handle:
            handle.write(b"".join(lines))
        completed = reload_completed(tmp_path)
        # Record 1 survives; the corrupt record 2 and everything after drop.
        assert set(completed) == {"0/0"}

    def test_foreign_wal_fingerprint_refused(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.load()
        journal.append("0/0", {"x": 1.0})
        journal._handle.close()
        other = CheckpointJournal(str(tmp_path / "ckpt.json"), "0123456789abcdef")
        with pytest.raises(ValueError, match="different campaign"):
            other.load()


class TestCompaction:
    def test_compaction_produces_json_and_resets_wal(self, tmp_path):
        journal = make_journal(tmp_path, compact_every=2)
        journal.load()
        journal.append("0/0", {"x": 1.0})
        assert not os.path.exists(journal.path)
        journal.append("0/1", {"x": 2.0})  # triggers the compaction
        with open(journal.path) as handle:
            payload = json.load(handle)
        assert payload["fingerprint"] == FP
        assert payload["campaign"] == "toy"
        assert len(payload["completed"]) == 2
        # The WAL is back to header-only and appends keep working.
        with open(journal.wal_path, "rb") as handle:
            assert handle.read().count(b"\n") == 1
        journal.append("0/2", {"x": 3.0})
        journal.close()
        assert len(reload_completed(tmp_path)) == 3

    def test_close_removes_wal_and_leaves_no_tmp(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.load()
        journal.append("0/0", {"x": 1.0})
        journal.close()
        assert os.path.exists(journal.path)
        assert not os.path.exists(journal.wal_path)
        assert not os.path.exists(journal.path + ".tmp")
        assert not os.path.exists(journal.wal_path + ".tmp")

    def test_kill_between_json_publish_and_wal_reset(self, tmp_path):
        # Crash window: compaction published the JSON but never reset the
        # WAL.  Replay must merge the duplicates idempotently.
        journal = make_journal(tmp_path)
        journal.load()
        journal.append("0/0", {"x": 1.0})
        journal.append("0/1", {"x": 2.0})
        with open(journal.wal_path, "rb") as handle:
            stale_wal = handle.read()
        journal.close()  # compacts; WAL removed
        with open(journal.wal_path, "wb") as handle:
            handle.write(stale_wal)  # resurrect the pre-compaction WAL
        completed = reload_completed(tmp_path)
        assert completed == {"0/0": {"x": 1.0}, "0/1": {"x": 2.0}}

    def test_kill_before_json_publish_keeps_wal_authoritative(self, tmp_path):
        # Crash window: compaction died before the JSON rename — the old
        # JSON (or none) plus the full WAL still reconstructs every record.
        journal = make_journal(tmp_path, compact_every=2)
        journal.load()
        journal.append("0/0", {"x": 1.0})
        journal.append("0/1", {"x": 2.0})  # compaction #1: JSON has 2
        journal.append("1/0", {"x": 3.0})
        journal._handle.close()  # die before compaction #2
        completed = reload_completed(tmp_path)
        assert len(completed) == 3

    def test_corrupt_json_quarantined_wal_still_replays(self, tmp_path):
        journal = make_journal(tmp_path, compact_every=2)
        journal.load()
        for index in range(3):
            journal.append(f"0/{index}", {"x": float(index)})
        journal._handle.close()
        with open(journal.path, "w") as handle:
            handle.write('{"fingerprint": tru')  # torn mid-write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            completed = reload_completed(tmp_path)
        assert os.path.exists(journal.path + ".corrupt")
        # The JSON carried 0/0 and 0/1; only the WAL record after the last
        # compaction (0/2) is guaranteed to survive JSON corruption.
        assert "0/2" in completed

    def test_compact_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compact_every"):
            make_journal(tmp_path, compact_every=0)
