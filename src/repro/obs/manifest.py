"""The run manifest: what a study run was and what it counted.

``repro-study run --metrics <path>`` emits one JSON document describing
the run well enough to compare against any other run:

* identity — seed, scale, a fingerprint of the configuration;
* runtime — the Python and NumPy versions that ran it (the seeded
  streams are NumPy ``Generator`` output, which NumPy does not promise
  to keep across releases);
* extent — wall seconds (machine-dependent) and virtual minutes
  (deterministic);
* the full deterministic metrics sections (counters, gauges) and the
  wall-clock timings section;
* trace accounting (events recorded / dropped by the ring bound).

The determinism contract: two runs with the same seed and configuration
produce byte-identical ``counters``/``gauges`` sections (pinned by
``tests/test_metrics_manifest.py``); ``runtime``, ``wall_seconds`` and
``timings`` are explicitly outside it.
"""

from __future__ import annotations

import hashlib
import platform
from pathlib import Path
from typing import Dict

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.util.durable import atomic_write_json

#: Manifest schema identifier (bump on breaking layout changes).
SCHEMA = "repro.obs/manifest@1"


def config_fingerprint(config) -> str:
    """A stable hash of a study configuration's reproducibility inputs.

    Hashes the fields that change what a run *does* (seed, scale, specs,
    population, policies) via their reprs — every one is a dataclass of
    plain values, so the repr is deterministic across processes.  Two
    configs with the same fingerprint and seed produce identical counters.
    """
    parts = []
    for name in (
        "seed",
        "scale",
        "population",
        "specs",
        "monitor_policy",
        "delivery",
        "cost_model",
        "clickworker_config",
        "termination_policy",
        "baseline_sample_size",
        "termination_delay_days",
        "horizon_days",
        "fault_profile",
        "retry_policy",
        "active_spec_ids",
        "collect_globals",
    ):
        parts.append(f"{name}={getattr(config, name, None)!r}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def build_manifest(
    config,
    registry: MetricsRegistry,
    wall_seconds: float,
    virtual_minutes: int,
    dataset=None,
) -> Dict:
    """Assemble the manifest dict for one completed run."""
    snapshot = registry.snapshot()
    manifest: Dict = {
        "schema": SCHEMA,
        "seed": getattr(config, "seed", None),
        "scale": getattr(config, "scale", None),
        "config_hash": config_fingerprint(config),
        "runtime": {"python": platform.python_version(), "numpy": np.__version__},
        "wall_seconds": round(wall_seconds, 3),
        "virtual_minutes": int(virtual_minutes),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "timings": snapshot["timings"],
    }
    trace = registry.trace
    manifest["trace"] = {
        "recorded": len(trace.events) if trace is not None else 0,
        "dropped": trace.dropped if trace is not None else 0,
    }
    if dataset is not None:
        manifest["dataset"] = {
            "campaigns": len(dataset.campaigns),
            "likers": len(dataset.likers),
            "baseline": len(dataset.baseline),
            "total_likes": dataset.total_likes,
        }
    return manifest


def write_manifest(path: Path, manifest: Dict) -> Path:
    """Write ``manifest`` as sorted-key JSON, atomically and durably.

    Delegates to :func:`repro.util.durable.atomic_write_json` for the full
    fsync-then-rename-then-fsync-directory sequence: a crash right after
    this returns can no longer surface an empty or partial manifest.
    """
    return atomic_write_json(Path(path), manifest, tag="manifest")


def deterministic_sections(manifest: Dict) -> Dict:
    """The parts of a manifest covered by the same-seed identity contract.

    Sharded runs add a ``shards`` section (the shard plan and per-shard
    deterministic outcomes) and a ``degraded`` section (quarantined
    shards).  Both are covered: which shards exist and which campaigns
    they own follow from the config, and quarantine only happens under
    injected poison, never from seeded simulation.  Supervisor execution
    detail (attempt counts, restarts, wall timings) lives outside these
    sections.
    """
    return {
        "config_hash": manifest["config_hash"],
        "seed": manifest["seed"],
        "virtual_minutes": manifest["virtual_minutes"],
        "counters": manifest["counters"],
        "gauges": manifest["gauges"],
        "dataset": manifest.get("dataset"),
        "shards": manifest.get("shards"),
        "degraded": manifest.get("degraded"),
    }
