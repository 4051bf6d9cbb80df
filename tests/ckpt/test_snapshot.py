"""Snapshot files and the checkpoint manifest: integrity and refusals."""

from __future__ import annotations

import json

import pytest

from repro.ckpt.errors import CheckpointError
from repro.ckpt.snapshot import (
    SNAPSHOT_SCHEMA,
    barrier_key,
    load_checkpoint_manifest,
    load_snapshot,
    write_checkpoint_manifest,
    write_snapshot,
)
from repro.ckpt.snapshot import MANIFEST_NAME, snapshot_filename

STATE = {"rng": {"study": {"seed": 7}}, "metrics": {"counters": {"a": 1}}}


def _payload(phase="simulate", sim_time=1440):
    return {
        "phase": phase,
        "sim_time": sim_time,
        "seed": 7,
        "config_hash": "abc",
        "journal_records": 12,
        "state": STATE,
    }


class TestSnapshotRoundTrip:
    def test_write_then_load(self, tmp_path):
        entry = write_snapshot(tmp_path, _payload())
        assert entry["file"] == snapshot_filename("simulate", 1440)
        assert entry["journal_records"] == 12
        loaded = load_snapshot(tmp_path, entry)
        assert loaded["state"] == STATE
        assert loaded["schema"] == SNAPSHOT_SCHEMA

    def test_rewrite_is_idempotent(self, tmp_path):
        first = write_snapshot(tmp_path, _payload())
        second = write_snapshot(tmp_path, _payload())
        assert first == second
        snapshots = [p for p in tmp_path.iterdir() if p.name.startswith("snapshot-")]
        assert len(snapshots) == 1

    def test_missing_file_refuses(self, tmp_path):
        entry = write_snapshot(tmp_path, _payload())
        (tmp_path / entry["file"]).unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_snapshot(tmp_path, entry)

    def test_tampered_file_fails_sha256(self, tmp_path):
        entry = write_snapshot(tmp_path, _payload())
        path = tmp_path / entry["file"]
        payload = json.loads(path.read_text())
        payload["state"]["metrics"]["counters"]["a"] = 999
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with pytest.raises(CheckpointError, match="sha256"):
            load_snapshot(tmp_path, entry)

    def test_unknown_schema_refuses(self, tmp_path):
        entry = write_snapshot(tmp_path, _payload())
        path = tmp_path / entry["file"]
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.ckpt/snapshot@99"
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        path.write_text(text)
        entry = dict(entry)
        import hashlib

        entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        with pytest.raises(CheckpointError, match="schema"):
            load_snapshot(tmp_path, entry)


class TestManifest:
    def test_absent_manifest_is_none(self, tmp_path):
        assert load_checkpoint_manifest(tmp_path, 7, "abc") is None

    def test_round_trip(self, tmp_path):
        entry = write_snapshot(tmp_path, _payload())
        write_checkpoint_manifest(tmp_path, 7, "abc", 3.0, [entry])
        manifest = load_checkpoint_manifest(tmp_path, 7, "abc")
        assert manifest["every_days"] == 3.0
        assert manifest["snapshots"] == [entry]

    def test_wrong_seed_refuses(self, tmp_path):
        write_checkpoint_manifest(tmp_path, 7, "abc", None, [])
        with pytest.raises(CheckpointError, match="seed"):
            load_checkpoint_manifest(tmp_path, 8, "abc")

    def test_wrong_config_refuses(self, tmp_path):
        write_checkpoint_manifest(tmp_path, 7, "abc", None, [])
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint_manifest(tmp_path, 7, "zzz")

    def test_unparseable_manifest_refuses(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint_manifest(tmp_path, 7, "abc")

    def test_wrong_schema_refuses(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"schema": "x@1"}))
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint_manifest(tmp_path, 7, "abc")


class TestBarrierKey:
    def test_identity(self):
        assert barrier_key("simulate", 1440) == "simulate@1440"
        assert barrier_key("build", 0.0) == "build@0"
