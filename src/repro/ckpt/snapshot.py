"""Phase-boundary study snapshots with an integrity manifest.

A snapshot is one JSON document capturing every serialisable piece of
study state at a named barrier: the per-label RNG generator states, the
event engine's clock/counters/queue signature, each campaign monitor's
observation state, the resilient client's circuit breakers, the metrics
registry's deterministic sections, and the journal position.  Snapshots
are written atomically (temp file + fsync + rename + directory fsync) and
indexed in ``MANIFEST.json`` alongside their sha256, the run's seed, its
config fingerprint, and the snapshot schema version.

Loading refuses rather than guesses: a schema it does not understand, a
seed or config fingerprint that differs from the resuming run, or a
snapshot file whose digest does not match its manifest entry is a
:class:`~repro.ckpt.errors.CheckpointError`, never a silent partial load.

What is *not* captured — and why that is sound — is documented in
``docs/architecture.md`` ("Durability & resume"): the social network and
pending event callbacks are reconstructed by deterministic replay, and a
snapshot's job is to *verify* that reconstruction bit-for-bit before the
run continues past it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro import failpoints
from repro.ckpt.errors import CheckpointError
from repro.util.durable import atomic_write_json, atomic_write_text

#: Snapshot/manifest format identifier (bump on breaking layout changes).
SNAPSHOT_SCHEMA = "repro.ckpt/snapshot@1"

#: The checkpoint directory's index file.
MANIFEST_NAME = "MANIFEST.json"


def barrier_key(phase: str, sim_time: int) -> str:
    """The stable identity of one checkpoint barrier."""
    return f"{phase}@{int(sim_time)}"


def snapshot_filename(phase: str, sim_time: int) -> str:
    """Deterministic snapshot filename for a barrier (idempotent rewrites)."""
    return f"snapshot-{phase}-{int(sim_time)}.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_snapshot(directory: Path, payload: Dict) -> Dict:
    """Durably write one snapshot; returns its manifest entry.

    ``payload`` must carry ``phase``/``sim_time``; the schema tag is
    stamped here so every snapshot on disk names its format.
    """
    payload = dict(payload)
    payload["schema"] = SNAPSHOT_SCHEMA
    name = snapshot_filename(payload["phase"], payload["sim_time"])
    # Compact separators keep CPython on its C encoder (``indent`` forces
    # the pure-Python one); resume compares parsed dicts, not layout.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        failpoints.hit("ckpt.snapshot.write")
        atomic_write_text(Path(directory) / name, text, tag="snapshot")
    except OSError as error:
        raise CheckpointError(
            f"snapshot write {name} failed: {error}"
        ) from error
    return {
        "file": name,
        "sha256": _digest(text),
        "phase": payload["phase"],
        "sim_time": int(payload["sim_time"]),
        "journal_records": int(payload.get("journal_records", 0)),
        "bytes": len(text),
    }


def load_snapshot(directory: Path, entry: Dict) -> Dict:
    """Load and verify one snapshot named by a manifest entry."""
    path = Path(directory) / entry["file"]
    if not path.exists():
        raise CheckpointError(
            f"manifest lists snapshot {entry['file']} but the file is missing"
        )
    try:
        failpoints.hit("ckpt.snapshot.load")
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise CheckpointError(
            f"snapshot {entry['file']} is unreadable: {error}"
        ) from error
    if _digest(text) != entry["sha256"]:
        raise CheckpointError(
            f"snapshot {entry['file']} failed its sha256 integrity check; "
            "refusing to resume from a corrupt checkpoint"
        )
    payload = json.loads(text)
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"snapshot {entry['file']} has schema {payload.get('schema')!r}, "
            f"expected {SNAPSHOT_SCHEMA!r}; refusing to resume across formats"
        )
    return payload


def write_checkpoint_manifest(
    directory: Path,
    seed: int,
    config_hash: str,
    every_days: Optional[float],
    entries: List[Dict],
    shard_id: Optional[str] = None,
) -> None:
    """Durably (re)write the checkpoint directory's index."""
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "seed": seed,
        "config_hash": config_hash,
        "every_days": every_days,
        "snapshots": entries,
    }
    if shard_id is not None:
        manifest["shard"] = shard_id
    failpoints.hit("ckpt.manifest.write")
    try:
        atomic_write_json(
            Path(directory) / MANIFEST_NAME,
            manifest,
            tag="snapshot",
        )
    except OSError as error:
        raise CheckpointError(
            f"checkpoint manifest write failed: {error}"
        ) from error


def load_checkpoint_manifest(
    directory: Path, seed: int, config_hash: str, shard_id: Optional[str] = None
) -> Optional[Dict]:
    """Load the directory's manifest, refusing on any identity mismatch.

    Returns None when no manifest exists (nothing to resume from).
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"{path}: unreadable checkpoint manifest ({error.msg})"
        ) from error
    if manifest.get("schema") != SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"{path}: checkpoint schema {manifest.get('schema')!r} is not "
            f"{SNAPSHOT_SCHEMA!r}; refusing to resume across formats"
        )
    if manifest.get("seed") != seed:
        raise CheckpointError(
            f"checkpoint was written by seed {manifest.get('seed')}, this "
            f"run uses seed {seed}; resume must use the original seed"
        )
    if manifest.get("config_hash") != config_hash:
        raise CheckpointError(
            "checkpoint was written under config fingerprint "
            f"{manifest.get('config_hash')!r}, this run is {config_hash!r}; "
            "resume must use the original configuration"
        )
    if manifest.get("shard") != shard_id:
        raise CheckpointError(
            f"checkpoint belongs to shard {manifest.get('shard')!r}, this "
            f"run is shard {shard_id!r}; a shard can only resume its own "
            "checkpoint directory"
        )
    return manifest
