"""Self-tests of the end-to-end benchmark harness.

Outside tier-1's ``testpaths``; run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import harness, tracer
from benchmarks.e2e.harness import Harness, Workload


class FakeClock:
    """A clock that moves only when a test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_the_time_child_spans_cover():
    clock = FakeClock()
    spans = tracer.Tracer(clock)
    inner = spans.wrap("inner", lambda: clock.advance(2.0))

    def outer():
        clock.advance(1.0)
        inner()
        clock.advance(0.5)
        inner()

    spans.wrap("outer", outer)()
    assert spans.spans == {
        ("outer",): [1, 5.5, 1.5],
        ("outer", "inner"): [2, 4.0, 4.0],
    }
    assert tracer.unattributed_frac(spans.records(), "outer") == 1.5 / 5.5


def test_one_function_under_two_parents_stays_two_spans():
    clock = FakeClock()
    spans = tracer.Tracer(clock)
    append = spans.wrap("ckpt.journal.append", lambda: clock.advance(1.0))

    def poll():
        clock.advance(3.0)
        append()

    def crawl():
        append()
        append()

    spans.wrap("sim.run_until", poll)()
    spans.wrap("honeypot.crawl_likers", crawl)()
    assert set(spans.spans) == {
        ("sim.run_until",),
        ("sim.run_until", "ckpt.journal.append"),
        ("honeypot.crawl_likers",),
        ("honeypot.crawl_likers", "ckpt.journal.append"),
    }
    names = tracer.by_name(spans.records())
    assert names["ckpt.journal.append"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert names["sim.run_until"]["self_s"] == 3.0
    assert names["honeypot.crawl_likers"]["self_s"] == 0.0


def test_patch_wraps_methods_and_classmethods_and_tallies_results():
    class Store:
        def ingest(self, rows):
            return len(rows)

        @classmethod
        def load(cls, path):
            return cls()

    spans = tracer.Tracer(FakeClock())
    spans.patch(Store, "ingest", "store.ingest",
                ("store.ingest.rows", lambda result, args: result))
    spans.patch(Store, "load", "store.load")
    store = Store.load("data")
    assert isinstance(store, Store)
    assert store.ingest([1, 2, 3]) == 3
    assert spans.counts == {"store.ingest.rows": 3}
    assert [record["path"] for record in spans.records()] == [
        ["store.load"], ["store.ingest"]
    ]


def test_time_medians_are_scaled_to_the_reference_host_speed():
    result = harness.WorkloadResult(harness.WORKLOADS["paper"])
    reference = harness.REFERENCE_GAUGE_S
    result.samples.update(
        run_s=[4.0, 3.0, 4.0], cpu_s=[2.0, 1.5, 2.0], peak_rss_mb=[200.0],
        setup_s=[0.7, 0.6], gauge_s=[2 * reference, reference, 4 * reference],
    )
    # Each run child's times by its own gauge; the rest by the mean.
    assert result.scaled("run_s") == pytest.approx([2.0, 3.0, 1.0])
    assert result.scale == pytest.approx(3 / 7)
    assert result.medians() == pytest.approx(
        {"run_s": 2.0, "cpu_s": 1.0, "setup_s": 0.65 * 3 / 7, "peak_rss_mb": 200.0})
    assert result.medians(scaled=False) == pytest.approx(
        {"run_s": 4.0, "cpu_s": 2.0, "setup_s": 0.65, "peak_rss_mb": 200.0})
    # A workload whose children run no gauge (sharded) stays unscaled.
    result.samples["gauge_s"] = []
    assert result.medians() == result.medians(scaled=False)


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.GATED_WORKLOADS)
    assert all(spec["workloads"][i]["why"] == harness.WORKLOADS[name].why
               for i, name in enumerate(harness.GATED_WORKLOADS))
    assert spec["run_seconds"] == harness.DEFAULT_SECONDS
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == dict(harness.GATED_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        harness.LISTED_LAYER_METRICS
    )


def test_main_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    assert harness.main(["--workload", "paper"]) == 2
    assert capsys.readouterr().out == ""


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    return Harness(seed=harness.DEFAULT_SEED, seconds=0.0, trace=False,
                   scratch=tmp_path)


def test_a_nonzero_exit_raises_failed_ratio(bench):
    broken = Workload("broken", "--jobs 0 is a usage error",
                      ("--scale", "0.1", "--jobs", "0"), max_invocations=1)
    result = bench.run_workload(broken)
    assert "run exited 2" in result.ops[0]
    assert result.failed_ratio > 0
    assert not harness.result_line([result], trace=False)["correct"]


def test_a_digest_mismatch_raises_failed_ratio(bench):
    small = Workload("small", "must match a reference it cannot match",
                     ("--scale", "0.1"), max_invocations=1, same_output_as="paper")
    bench.digests["paper"] = "0" * 64
    result = bench.run_workload(small)
    assert result.ops[0] == ["--out differs from the paper workload's"]
    assert result.failed == 1
    assert result.failed_ratio > 0


def test_a_small_run_through_the_real_child(bench):
    bench.trace = True
    small = Workload("small", "the small preset", ("--scale", "0.1"),
                     max_invocations=1)
    result = bench.run_workload(small)
    assert result.ops and result.failed == 0, result.ops
    line = harness.result_line([result], trace=False)
    assert line["correct"]
    assert set(line["metrics"]) == {name for name, _ in harness.GATED_METRICS}
    assert len(result.samples["query_s"]) == harness.QUERY_SETS
    assert 0.0 < result.samples["gauge_s"][0] < result.samples["run_s"][0]
    layers = result.layers
    assert [name for name, _ in harness.LAYER_METRICS] == list(layers)
    assert layers["query_s"] == result.medians(scaled=False)["query_s"]
    assert layers["honeypot.study.run.calls"] == 1
    assert layers["store.query.table1.calls"] == harness.QUERY_SETS
    assert layers["honeypot.to_jsonl.bytes"] > 0
    # Fixed CLI costs weigh more in the small preset than the 0.10 the
    # paper-scale workloads meet.
    assert 0.0 < layers["trace.unattributed_frac"] < 0.25
