"""The write-ahead journal: appends, salvage, and replay-verify resume."""

from __future__ import annotations

import json

import pytest

from repro import failpoints
from repro.ckpt.errors import CheckpointError
from repro.ckpt.journal import DatasetJournal, read_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventTrace


def _fresh(path, seed=7, config_hash="abc"):
    return DatasetJournal.start(path, seed=seed, config_hash=config_hash)


class TestAppend:
    def test_appends_land_as_jsonl_lines(self, tmp_path):
        journal = _fresh(tmp_path / "j.jsonl")
        journal.append({"type": "liker", "user_id": 1})
        journal.append({"type": "liker", "user_id": 2})
        journal.close()
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 3  # header + 2 records
        assert json.loads(lines[0])["type"] == "journal-header"
        assert json.loads(lines[2]) == {"type": "liker", "user_id": 2}

    def test_appends_flush_and_commit_fsyncs_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = _fresh(path)
        assert journal.fsyncs == 1  # the header
        journal.append({"a": 1})
        journal.append({"a": 2})
        # Flushed, not fsync'd: another process (and a SIGKILL) sees both.
        assert read_journal(path).records == [{"a": 1}, {"a": 2}]
        assert journal.fsyncs == 1
        journal.commit()
        assert journal.fsyncs == 2
        journal.commit()  # nothing pending
        assert journal.fsyncs == 2
        assert journal.records_written == 2
        assert journal.position == 2
        journal.close()

    def test_close_commits_the_pending_tail(self, tmp_path):
        journal = _fresh(tmp_path / "j.jsonl")
        journal.append({"a": 1})
        assert journal.fsyncs == 1
        journal.close()
        assert journal.fsyncs == 2
        journal.close()  # idempotent
        assert journal.fsyncs == 2

    def test_failed_commit_is_a_checkpoint_error(self, tmp_path):
        journal = _fresh(tmp_path / "j.jsonl")
        journal.append({"a": 1})
        failpoints.configure("durable.fsync.file=errno:EIO@1")
        try:
            with pytest.raises(CheckpointError, match="journal commit"):
                journal.commit()
        finally:
            failpoints.reset()
            journal.close()

    def test_append_after_close_raises(self, tmp_path):
        journal = _fresh(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(CheckpointError, match="not open"):
            journal.append({"a": 1})


class TestRecovery:
    def test_missing_file_is_empty_recovery(self, tmp_path):
        recovery = read_journal(tmp_path / "absent.jsonl")
        assert recovery.salvaged == 0
        assert recovery.header is None
        assert not recovery.torn

    def test_clean_journal_round_trips(self, tmp_path):
        journal = _fresh(tmp_path / "j.jsonl")
        rows = [{"type": "liker", "user_id": i} for i in range(5)]
        for row in rows:
            journal.append(row)
        journal.close()
        recovery = read_journal(tmp_path / "j.jsonl")
        assert recovery.records == rows
        assert recovery.header["seed"] == 7
        assert not recovery.torn

    def test_torn_final_line_is_dropped_and_reported(self, tmp_path):
        journal = _fresh(tmp_path / "j.jsonl")
        journal.append({"type": "liker", "user_id": 1})
        journal.close()
        path = tmp_path / "j.jsonl"
        with path.open("a") as handle:
            handle.write('{"type": "liker", "user_i')  # the kill landed here
        metrics = MetricsRegistry(trace=EventTrace())
        recovery = read_journal(path, metrics=metrics)
        assert recovery.torn
        assert recovery.salvaged == 1
        events = [e for e in metrics.trace.events if e.kind == "journal_salvage"]
        assert len(events) == 1
        assert events[0].fields["salvaged"] == 1

    def test_midfile_corruption_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = _fresh(path)
        journal.append({"user_id": 1})
        journal.append({"user_id": 2})
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4]  # tear a line that is NOT the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="mid-file damage"):
            read_journal(path)

    def test_missing_header_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "liker", "user_id": 1}\n')
        with pytest.raises(CheckpointError, match="missing header"):
            read_journal(path)

    def test_wrong_schema_refuses(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "journal-header", "schema": "other@9"}\n')
        with pytest.raises(CheckpointError, match="refusing to resume"):
            read_journal(path)


class TestResume:
    def _crashed(self, tmp_path, rows):
        path = tmp_path / "j.jsonl"
        journal = _fresh(path)
        for row in rows:
            journal.append(row)
        journal.close()
        with path.open("a") as handle:
            handle.write('{"torn')
        return path

    def test_replay_verifies_then_appends(self, tmp_path):
        rows = [{"user_id": 1}, {"user_id": 2}]
        path = self._crashed(tmp_path, rows)
        recovery = read_journal(path)
        journal = DatasetJournal.resume(path, recovery, seed=7, config_hash="abc")
        for row in rows:  # the deterministic replay re-produces these
            journal.append(row)
        journal.append({"user_id": 3})  # ...then new ground
        journal.close()
        assert journal.replayed == 2
        assert journal.records_written == 1
        assert journal.position == 3
        final = read_journal(path)
        assert final.records == rows + [{"user_id": 3}]
        assert not final.torn  # the torn tail was truncated on resume

    def test_divergent_replay_refuses(self, tmp_path):
        path = self._crashed(tmp_path, [{"user_id": 1}])
        journal = DatasetJournal.resume(
            path, read_journal(path), seed=7, config_hash="abc"
        )
        with pytest.raises(CheckpointError, match="journal divergence"):
            journal.append({"user_id": 99})
        journal.close()

    def test_wrong_seed_refuses(self, tmp_path):
        path = self._crashed(tmp_path, [{"user_id": 1}])
        with pytest.raises(CheckpointError, match="seed"):
            DatasetJournal.resume(path, read_journal(path), seed=8, config_hash="abc")

    def test_wrong_config_refuses(self, tmp_path):
        path = self._crashed(tmp_path, [{"user_id": 1}])
        with pytest.raises(CheckpointError, match="config fingerprint"):
            DatasetJournal.resume(path, read_journal(path), seed=7, config_hash="zzz")

    def test_headerless_salvage_degrades_to_fresh_start(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "journal-he')  # killed during the very first write
        recovery = read_journal(path)
        journal = DatasetJournal.resume(path, recovery, seed=7, config_hash="abc")
        journal.append({"user_id": 1})
        journal.close()
        final = read_journal(path)
        assert final.header["seed"] == 7
        assert final.records == [{"user_id": 1}]
