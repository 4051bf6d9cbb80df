"""Profile the end-to-end paper-scale study and record a perf snapshot.

Run via ``make profile`` (or ``python -m benchmarks.perf.profile_pipeline``).

Five passes over ``HoneypotExperiment.paper_scale().run()``:

1. a plain timed run — the honest wall-clock number (cProfile roughly
   triples the runtime because the hot loops are millions of C-method
   calls),
2. a cProfile run — the top cumulative functions, for finding the next
   bottleneck, and
3. a chaos run — the same study crawled through the default
   ``FaultProfile`` + resilient client, so the snapshot records what
   crawl retries/backoff cost on top of a clean run,
4. a checkpointed run — the same study with ``--checkpoint-dir``
   durability on (WAL journal fsyncs + phase snapshots), so the snapshot
   records exactly what crash-safety costs on top of a clean run
   (``checkpoint``: wall-time delta, snapshot bytes, fsync count),
5. sharded runs at ``--jobs 1/2/4`` (:mod:`repro.shard`), recording the
   per-jobs wall time, the order-canonicalized merge cost, and the
   jobs-4 speedup under ``sharded`` — note the speedup is bounded by the
   machine's core count (a single-core CI box honestly reports ~1.0),
6. a store pass (:mod:`repro.store`): the plain run's dataset ingested
   into the SQLite store (batched-transaction throughput in rows/s), the
   overlap/temporal/summary analyses run as SQL queries with the
   in-memory analyses timed alongside, and the export byte-identity
   asserted, recorded under ``store``,

plus a timed ``repro.lint`` pass over ``src/`` — the static determinism
gate every ``make check`` pays, timed per-module and whole-program
(``--xmod``) cold *and* warm so the facts-cache payoff is on record —
recorded under ``lint`` — and a
``--scale N`` *build-only* pass (``StudyConfig.at_scale``, default
``N=100``, override via ``REPRO_PROFILE_SCALE``) that proves the columnar
stores hold a 100x world (hundreds of thousands of users, tens of
millions of like events) in memory, recorded under ``scale_build``.

All land in ``BENCH_pipeline.json`` next to the repo root, which is
committed so every PR leaves a perf trajectory:

* ``wall_seconds`` — plain run wall time (the regression-gate number),
* ``like_events_per_second`` — recorded like events / wall seconds,
* ``top_functions`` — top-10 functions by cumulative profiled time,
* ``chaos`` — chaos-run wall time, retry overhead, and fault counters,
* ``checkpoint`` — checkpointed-run wall time, overhead vs plain, journal
  fsync count, and snapshot bytes,
* ``sharded`` — per-``--jobs`` wall times, shard count, merge seconds,
  sharding overhead vs the plain run, and the jobs-4 speedup,
* ``failpoints`` — the per-chokepoint cost of the *disabled* failpoint
  framework (nanoseconds per ``hit`` with nothing armed),
* ``scale_build`` — scaled-world build wall time, entity counts, and peak
  RSS.

``BENCH_pipeline.json`` is a snapshot — each run overwrites it.  The
headline numbers (plain wall, events/s, the sharded runs, and the scale
build) are
therefore *also appended* to ``BENCH_history.jsonl``, one JSON line per
``make profile`` run, so the perf trajectory stays diffable across PRs
instead of living only in git archaeology.

The chaos pass runs with observability enabled and additionally writes its
full run manifest (every counter, gauge, and timing span) to
``BENCH_metrics.json``, so each PR's perf trajectory carries the metrics
snapshot alongside the wall-clock numbers.
"""

from __future__ import annotations

import cProfile
import json
import os
import platform
import pstats
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.ckpt.manager import CheckpointConfig
from repro.core.experiment import HoneypotExperiment
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.lint.baseline import Baseline
from repro.lint.runner import lint_paths
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import ObservabilityConfig
from repro.osn.faults import FaultProfile
from repro.shard.supervisor import ShardSupervisor

REPO_ROOT = Path(__file__).resolve().parents[2]
OUTPUT_PATH = REPO_ROOT / "BENCH_pipeline.json"
METRICS_PATH = REPO_ROOT / "BENCH_metrics.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"
TOP_N = 10
#: The --scale N world the build-only pass proves fits in memory.
SCALE_BUILD_N = float(os.environ.get("REPRO_PROFILE_SCALE", "100"))


def _run_once() -> tuple:
    """One plain paper-scale run; returns (wall seconds, experiment)."""
    experiment = HoneypotExperiment.paper_scale()
    start = time.perf_counter()
    experiment.run()
    return time.perf_counter() - start, experiment


def _top_functions(stats: pstats.Stats, top_n: int = TOP_N) -> list:
    """The ``top_n`` functions by cumulative time, as JSON-friendly dicts."""
    rows = []
    stats.sort_stats("cumulative")
    for func in stats.fcn_list[:top_n]:  # (file, line, name) in sorted order
        cc, nc, tt, ct, _ = stats.stats[func]
        filename, line, name = func
        filename = filename.replace(str(REPO_ROOT) + "/", "")
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "calls": nc,
                "tottime_seconds": round(tt, 3),
                "cumtime_seconds": round(ct, 3),
            }
        )
    return rows


def _run_chaos(baseline_wall: float) -> dict:
    """One paper-scale run through the default fault profile; stats + overhead.

    Runs with observability on and writes the run manifest to
    ``BENCH_metrics.json`` — the ``make profile`` metrics snapshot.
    """
    config = StudyConfig()
    config.fault_profile = FaultProfile.default()
    config.observability = ObservabilityConfig(enabled=True)
    experiment = HoneypotExperiment(config)
    start = time.perf_counter()
    results = experiment.run()
    wall = time.perf_counter() - start
    registry = experiment.artifacts.metrics
    manifest = build_manifest(
        config,
        registry,
        wall_seconds=round(wall, 3),
        virtual_minutes=int(registry.gauge("sim.virtual_minutes")),
        dataset=results.dataset,
    )
    write_manifest(METRICS_PATH, manifest)
    print(f"  metrics manifest -> {METRICS_PATH}", flush=True)
    stats = experiment.artifacts.api.stats
    return {
        "wall_seconds": round(wall, 2),
        "retry_overhead_seconds": round(wall - baseline_wall, 2),
        "requests": stats.total,
        "faults_injected": stats.faults_injected,
        "retries": stats.retries,
        "failures": stats.failures,
        "rate_limited": stats.rate_limited,
        "breaker_trips": stats.breaker_trips,
        "backoff_minutes_virtual": round(stats.backoff_minutes, 1),
    }


def _run_checkpointed(baseline_wall: float) -> dict:
    """One paper-scale run with full durability on; overhead accounting.

    ``checkpoint_overhead_seconds`` is the wall-time delta against the
    plain pass — what the journal (flushed per record, fsync'd once per
    barrier) plus the phase (and weekly mid-simulation) snapshots cost
    end to end; ``journal_fsyncs`` is the header plus one per snapshot.
    """
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-bench-") as tmp:
        config = StudyConfig()
        config.checkpoint = CheckpointConfig(
            directory=Path(tmp) / "ck", every_days=7.0
        )
        experiment = HoneypotExperiment(config)
        start = time.perf_counter()
        experiment.run()
        wall = time.perf_counter() - start
        stats = experiment.artifacts.checkpoint
    return {
        "wall_seconds": round(wall, 2),
        "checkpoint_overhead_seconds": round(wall - baseline_wall, 2),
        "snapshots_written": stats["snapshots_written"],
        "snapshot_bytes": stats["snapshot_bytes"],
        "journal_records": stats["journal_records_written"],
        "journal_fsyncs": stats["journal_fsyncs"],
    }


def _run_scale_build(n: float) -> dict:
    """Build (only) an ``at_scale(n)`` world; wall time, sizes, peak RSS.

    The tentpole proof for the columnar stores: a 100x world — hundreds
    of thousands of users, millions of friendship edges, tens of millions
    of like events — has to *fit* and build in minutes, not hours.  The
    simulation/crawl phases are skipped; they scale with the same entity
    counts but the build phase is where every array lives at once.
    ``peak_rss_mb`` is the process-wide high-water mark (the scaled build
    dwarfs the earlier passes, so it is an honest ceiling for the build).
    """
    study = HoneypotStudy(StudyConfig.at_scale(n))
    start = time.perf_counter()
    components = study.build_world()
    wall = time.perf_counter() - start
    network = components.network
    return {
        "scale": n,
        "build_seconds": round(wall, 2),
        "users": network.user_count,
        "like_events": len(network.likes),
        "friendship_edges": network.graph.edge_count,
        "like_events_per_second": int(len(network.likes) / wall),
        "peak_rss_mb": int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


def _run_store(experiment: HoneypotExperiment) -> dict:
    """Store the plain run's dataset and time ingest + the SQL queries.

    ``ingest_rows_per_second`` is the batched-transaction ingest rate for
    the full typed-row stream; ``query_seconds`` times the three CLI-level
    analyses (overlap, per-campaign temporal profiles, Table 1) against
    the store, with ``in_memory_seconds`` the same analyses over the
    materialised dataset for comparison.  Export byte-identity is asserted
    here too — the benchmark refuses to record numbers for a store that
    does not reproduce the legacy bytes.
    """
    from repro.analysis import overlap, summary, temporal
    from repro.store import HoneypotStore
    from repro.store import queries as store_queries

    dataset = experiment.artifacts.dataset
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        path = Path(tmp) / "study.sqlite"
        start = time.perf_counter()
        with HoneypotStore.create(path) as store:
            rows = store.ingest_dataset(dataset)
            ingest_wall = time.perf_counter() - start

            start = time.perf_counter()
            store_queries.overlap_summary(store)
            store_queries.shared_liker_counts(store)
            for campaign_id in store.campaign_ids():
                store_queries.temporal_profile(store, campaign_id)
            store_queries.table1(store)
            query_wall = time.perf_counter() - start
            rows_read = sum(store.rows_read.values())

            legacy = Path(tmp) / "legacy.jsonl"
            exported = Path(tmp) / "store.jsonl"
            dataset.to_jsonl(legacy)
            store.to_jsonl(exported)
            if exported.read_bytes() != legacy.read_bytes():
                raise AssertionError(
                    "store export diverged from the legacy JSONL bytes"
                )

    start = time.perf_counter()
    overlap.overlap_summary(dataset)
    overlap.shared_liker_counts(dataset)
    for campaign_id in dataset.campaign_ids():
        temporal.temporal_profile(dataset, campaign_id)
    summary.table1(dataset)
    in_memory_wall = time.perf_counter() - start

    return {
        "ingest_rows": rows,
        "ingest_seconds": round(ingest_wall, 3),
        "ingest_rows_per_second": int(rows / ingest_wall),
        "query_seconds": round(query_wall, 4),
        "query_rows_read": rows_read,
        "in_memory_seconds": round(in_memory_wall, 4),
        "export_byte_identical": True,
    }


def _run_sharded(baseline_wall: float) -> dict:
    """The paper-scale study sharded at --jobs 1, 2, and 4.

    Sharding trades redundant world builds (every worker re-builds the
    identical organic world) for campaign-phase parallelism and fault
    isolation, so ``jobs=1`` is *slower* than the single-process path —
    the interesting numbers are how the wall time scales with workers
    and what the order-canonicalized merge costs on top.
    """
    passes = {}
    merge_seconds = 0.0
    for jobs in (1, 2, 4):
        supervisor = ShardSupervisor(StudyConfig(), jobs=jobs)
        start = time.perf_counter()
        result = supervisor.run()
        wall = time.perf_counter() - start
        merge_seconds = result.execution_section["merge_seconds"]
        passes[f"jobs_{jobs}"] = round(wall, 2)
        print(f"  jobs={jobs}: {wall:.2f}s "
              f"({len(result.plan)} shards, merge {merge_seconds:.2f}s)",
              flush=True)
    return {
        **passes,
        "shards": len(StudyConfig().specs),
        "merge_seconds": merge_seconds,
        "sharding_overhead_seconds": round(
            passes["jobs_1"] - baseline_wall, 2
        ),
        "speedup_jobs_4": round(passes["jobs_1"] / passes["jobs_4"], 2),
    }


def _run_failpoints() -> dict:
    """Microbench the disabled failpoint framework (the always-on cost).

    Every durable-path chokepoint calls ``failpoints.hit(name)`` on every
    run; with nothing armed that must be a dict-miss and nothing more.
    The number recorded here is what crash-safety instrumentation costs
    a production run per chokepoint crossing — a function call plus a
    dict-miss, on the order of 100ns.
    """
    from repro import failpoints

    failpoints.reset()
    iterations = 1_000_000
    start = time.perf_counter()  # repro-lint: allow-DET001 benchmark timer
    for _ in range(iterations):
        failpoints.hit("ckpt.journal.record")
    disabled_wall = time.perf_counter() - start  # repro-lint: allow-DET001 benchmark timer
    return {
        "disabled_hit_ns": round(disabled_wall / iterations * 1e9, 1),
        "iterations": iterations,
        "registered": len(failpoints.all_failpoints()),
    }


def _append_history(records: list) -> None:
    """Append headline records to the cross-PR ``BENCH_history.jsonl``."""
    with HISTORY_PATH.open("a") as history:
        for record in records:
            history.write(json.dumps(record) + "\n")


def _run_lint() -> dict:
    """Time the determinism lint over src/ (the make-check gate).

    Three timed runs: the per-module pass, then the whole-program
    (``--xmod``) pass cold — fact extraction from every file — and warm,
    served from the content-hash facts cache a cold run just wrote.  The
    cold/warm delta is what the cache buys every ``make xmodlint`` after
    the first, and the hit rate proves the warm run really was cached.
    """
    src = REPO_ROOT / "src"
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    start = time.perf_counter()
    result = lint_paths([src], baseline=baseline)
    wall = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-lint-bench-") as tmp:
        cache_path = Path(tmp) / "facts-cache.json"
        start = time.perf_counter()
        cold = lint_paths(
            [src], baseline=baseline, xmod=True, xmod_cache=cache_path
        )
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = lint_paths(
            [src], baseline=baseline, xmod=True, xmod_cache=cache_path
        )
        warm_wall = time.perf_counter() - start

    return {
        "wall_seconds": round(wall, 3),
        "checked_files": result.checked_files,
        "findings": len(result.findings),
        "xmod_cold_seconds": round(cold_wall, 3),
        "xmod_warm_seconds": round(warm_wall, 3),
        "xmod_modules": cold.xmod["modules"],
        "xmod_warm_cache_hit_rate": warm.xmod["cache_hit_rate"],
        "xmod_findings": len(cold.findings),
    }


def main() -> int:
    print("pass 1/7: plain timed run ...", flush=True)
    wall, experiment = _run_once()
    like_events = len(experiment.artifacts.network.likes)
    print(f"  wall: {wall:.2f}s, {like_events} like events", flush=True)

    print("pass 2/7: cProfile run ...", flush=True)
    profiler = cProfile.Profile()
    profiler.enable()
    HoneypotExperiment.paper_scale().run()
    profiler.disable()
    stats = pstats.Stats(profiler)

    print("pass 3/7: chaos run (default FaultProfile) ...", flush=True)
    chaos = _run_chaos(wall)
    print(f"  wall: {chaos['wall_seconds']:.2f}s "
          f"({chaos['faults_injected']} faults, {chaos['retries']} retries)",
          flush=True)

    print("pass 4/7: checkpointed run (journal + snapshots) ...", flush=True)
    checkpoint = _run_checkpointed(wall)
    print(f"  wall: {checkpoint['wall_seconds']:.2f}s "
          f"(+{checkpoint['checkpoint_overhead_seconds']:.2f}s, "
          f"{checkpoint['journal_fsyncs']} fsyncs, "
          f"{checkpoint['snapshot_bytes']} snapshot bytes)", flush=True)

    print("pass 5/7: sharded runs (--jobs 1/2/4) ...", flush=True)
    sharded = _run_sharded(wall)

    print("pass 6/7: store ingest + SQL queries ...", flush=True)
    store = _run_store(experiment)
    print(f"  ingest: {store['ingest_rows']} rows in "
          f"{store['ingest_seconds']:.3f}s "
          f"({store['ingest_rows_per_second']:,} rows/s), "
          f"queries: {store['query_seconds']:.4f}s vs "
          f"{store['in_memory_seconds']:.4f}s in-memory", flush=True)

    print("lint pass: repro.lint over src/ (plain + xmod cold/warm) ...",
          flush=True)
    lint = _run_lint()
    print(f"  wall: {lint['wall_seconds']:.3f}s, "
          f"{lint['checked_files']} files, {lint['findings']} findings; "
          f"xmod cold {lint['xmod_cold_seconds']:.3f}s, "
          f"warm {lint['xmod_warm_seconds']:.3f}s "
          f"({lint['xmod_warm_cache_hit_rate']:.0%} cache hits)",
          flush=True)

    print("failpoint pass: disabled-hit overhead ...", flush=True)
    failpoint_bench = _run_failpoints()
    print(f"  {failpoint_bench['disabled_hit_ns']:.1f}ns per disabled hit "
          f"({failpoint_bench['registered']} registered)", flush=True)

    print(f"pass 7/7: --scale {SCALE_BUILD_N:g} build (world only) ...",
          flush=True)
    scale_build = _run_scale_build(SCALE_BUILD_N)
    print(f"  build: {scale_build['build_seconds']:.2f}s, "
          f"{scale_build['users']} users, "
          f"{scale_build['like_events']} like events, "
          f"{scale_build['friendship_edges']} edges, "
          f"peak rss {scale_build['peak_rss_mb']}MB", flush=True)

    snapshot = {
        "benchmark": "HoneypotExperiment.paper_scale().run()",
        "wall_seconds": round(wall, 2),
        "like_events": like_events,
        "like_events_per_second": int(like_events / wall),
        "profiled_seconds": round(stats.total_tt, 2),
        "python": platform.python_version(),
        "chaos": chaos,
        "checkpoint": checkpoint,
        "sharded": sharded,
        "store": store,
        "lint": lint,
        "failpoints": failpoint_bench,
        "scale_build": scale_build,
        "metrics_manifest": METRICS_PATH.name,
        "top_functions": _top_functions(stats),
    }
    OUTPUT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
    _append_history(
        [
            {
                "benchmark": "paper_scale_run",
                "scale": 1.0,
                "wall_seconds": round(wall, 2),
                "like_events": like_events,
                "like_events_per_second": int(like_events / wall),
                "python": platform.python_version(),
            },
            {"benchmark": "sharded_run", **sharded},
            {"benchmark": "store", **store},
            {"benchmark": "lint", **lint},
            {"benchmark": "scale_build", **scale_build},
        ]
    )
    print(f"wrote {OUTPUT_PATH}, appended 5 lines to {HISTORY_PATH.name}")
    print(json.dumps({k: v for k, v in snapshot.items() if k != "top_functions"}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
