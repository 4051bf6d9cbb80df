"""The observability acceptance gate: ``run --metrics`` and its contract.

Covers the tentpole end to end at CLI level, the way CI runs it:

* the chaos smoke with ``--metrics`` emits a parseable manifest;
* the manifest names the Python and NumPy versions that made it, outside
  the deterministic sections;
* two runs with the same seed produce byte-identical deterministic
  sections (counters, gauges, config hash, virtual minutes, dataset);
* a different seed produces different counters (the hash covers the seed);
* the registry-backed ``RequestStats`` views and the manifest counters are
  two views of the same numbers;
* ``summary.run_health`` folds crawl completeness and request accounting
  into one section.
"""

from __future__ import annotations

import json
import platform

import numpy as np
import pytest

from repro.analysis.summary import run_health
from repro.cli import main
from repro.core.experiment import HoneypotExperiment
from repro.honeypot.study import StudyConfig
from repro.obs.manifest import (
    SCHEMA,
    build_manifest,
    config_fingerprint,
    deterministic_sections,
)
from repro.obs.metrics import ObservabilityConfig


def _run_cli(tmp_path, seed, name, chaos=True):
    manifest_path = tmp_path / f"{name}.json"
    argv = [
        "run",
        "--seed", str(seed),
        "--out", str(tmp_path / f"{name}.jsonl"),
        "--metrics", str(manifest_path),
    ]
    if chaos:
        argv.append("--chaos")
    assert main(argv) == 0
    return json.loads(manifest_path.read_text())


class TestCliManifest:
    def test_chaos_run_emits_parseable_manifest(self, tmp_path):
        manifest = _run_cli(tmp_path, seed=20140312, name="chaos")
        assert manifest["schema"] == SCHEMA
        assert manifest["seed"] == 20140312
        assert len(manifest["config_hash"]) == 16
        assert manifest["virtual_minutes"] > 0
        assert manifest["counters"]["osn.requests.page"] > 0
        assert manifest["counters"]["honeypot.polls"] > 0
        # The chaos profile injects faults, so the resilient layer shows up.
        assert manifest["counters"]["osn.resilience.retries"] > 0
        assert manifest["dataset"]["campaigns"] == 13

    def test_manifest_records_the_runtime(self, tmp_path):
        manifest = _run_cli(tmp_path, seed=5, name="runtime", chaos=False)
        assert manifest["runtime"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        # Like wall_seconds, the runtime is not part of the identity contract.
        assert "runtime" not in deterministic_sections(manifest)

    def test_same_seed_identical_deterministic_sections(self, tmp_path):
        first = _run_cli(tmp_path, seed=99, name="a")
        second = _run_cli(tmp_path, seed=99, name="b")
        assert deterministic_sections(first) == deterministic_sections(second)

    def test_different_seed_differs(self, tmp_path):
        first = _run_cli(tmp_path, seed=1, name="s1", chaos=False)
        second = _run_cli(tmp_path, seed=2, name="s2", chaos=False)
        assert first["config_hash"] != second["config_hash"]
        assert first["counters"] != second["counters"]

    def test_counter_keys_sorted(self, tmp_path):
        manifest = _run_cli(tmp_path, seed=5, name="sorted", chaos=False)
        for section in ("counters", "gauges"):
            keys = list(manifest[section])
            assert keys == sorted(keys)


class TestRegistryViews:
    @pytest.fixture(scope="class")
    def chaos_experiment(self):
        config = StudyConfig.chaos()
        config.observability = ObservabilityConfig(enabled=True)
        experiment = HoneypotExperiment(config)
        experiment.run()
        return experiment

    def test_stats_views_equal_registry_counters(self, chaos_experiment):
        stats = chaos_experiment.artifacts.api.stats
        registry = chaos_experiment.artifacts.metrics
        assert stats.metrics is registry
        assert stats.retries == registry.value("osn.resilience.retries")
        assert stats.total == sum(
            registry.value(f"osn.requests.{kind}")
            for kind in ("profile", "friend_list", "page_likes", "page")
        )

    def test_manifest_from_live_registry(self, chaos_experiment):
        config = chaos_experiment.config
        manifest = build_manifest(
            config,
            chaos_experiment.artifacts.metrics,
            wall_seconds=1.0,
            virtual_minutes=1,
            dataset=chaos_experiment.artifacts.dataset,
        )
        assert manifest["config_hash"] == config_fingerprint(config)
        assert manifest["dataset"]["total_likes"] == (
            chaos_experiment.artifacts.dataset.total_likes
        )

    def test_run_health_section(self, chaos_experiment):
        health = run_health(
            chaos_experiment.artifacts.dataset, chaos_experiment.artifacts
        )
        section = health.as_dict()
        assert section["n_likers"] == len(chaos_experiment.artifacts.dataset.likers)
        assert section["requests"] > 0
        assert section["faults_injected"] > 0
        assert 0.0 <= section["complete_fraction"] <= 1.0
        # The chaos profile loses polls and degrades records.
        assert section["degraded"] is True

    def test_run_health_from_dataset_alone(self, chaos_experiment):
        health = run_health(chaos_experiment.artifacts.dataset)
        assert health.requests == 0
        assert health.crawl.n_likers > 0


class TestDisabledObservability:
    def test_default_study_uses_null_registry(self):
        from repro.obs.metrics import NULL_METRICS

        experiment = HoneypotExperiment.small()
        experiment.run()
        assert experiment.artifacts.metrics is NULL_METRICS
        # RequestStats still counts through its own private registry.
        assert experiment.artifacts.api.stats.total > 0
