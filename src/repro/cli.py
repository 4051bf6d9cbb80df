"""Command-line interface.

Five subcommands covering the full workflow::

    repro-study run      --scale 0.1 --seed 20140312 --out study.jsonl
    repro-study report   study.jsonl            # render all tables/figures
    repro-study export   study.jsonl --dir csv/ # CSVs for re-plotting
    repro-study detect   study.jsonl            # rule-based screening
    repro-study query    study.sqlite overlap   # SQL-backed analyses

``run`` executes the honeypot study and persists the crawled dataset;
the other subcommands work purely from persisted data, so an expensive
run can be analysed many times.  ``run --store S`` additionally lands the
dataset in a queryable SQLite store (:mod:`repro.store`) whose export is
byte-identical to the JSONL; ``query`` runs the overlap/temporal/summary
analyses against such a store without materialising the dataset.  ``run --checkpoint-dir D`` makes the run
crash-safe (WAL journal + phase snapshots); after a kill,
``run --resume D`` continues it to a byte-identical result.
``run --jobs N`` runs the study as supervised per-campaign shards
(:mod:`repro.shard`): crashed shards restart from their own WALs,
hung shards are detected by heartbeat and SIGKILLed, and shards that
exhaust the ``--shard-retry`` budget are quarantined — the run then
completes *degraded* with an explicit manifest section instead of dying.

``query <store> verify`` integrity-checks a store (SQLite
``integrity_check`` + schema tag + row counts vs the recorded ingest
counts) and ``query <store> repair --journal J`` rebuilds a damaged
store from a checkpoint WAL.  ``run --failpoint name=action@N``
(repeatable; also the ``REPRO_FAILPOINTS`` env) arms deterministic
fault injection on the durable path — see :mod:`repro.failpoints`.

Exit codes: 0 success, 1 shape-check failure (or an injected
``raise`` fault), 2 usage error or store corruption, 3 checkpoint
refusal, 4 completed degraded (one or more shards quarantined),
5 unrecoverable shard failure (primary or every shard lost),
6 i/o error on the durable path (e.g. ENOSPC), 130 operator
interrupt (after every live shard flushed a final checkpoint
snapshot).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

# Only what a plain ``run`` executes loads here; every subsystem behind a
# flag or another command (store, checkpoint, shards, the fault stack,
# the manifest, CSV export) is imported where that flag or command runs.
from repro import failpoints
from repro.analysis.report import full_report
from repro.core.experiment import HoneypotExperiment
from repro.core.results import ExperimentResults
from repro.honeypot.storage import HoneypotDataset
from repro.honeypot.study import StudyConfig
from repro.obs.metrics import MetricsRegistry, ObservabilityConfig
from repro.osn.population import PopulationConfig
from repro.util.tables import render_table


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Honeypot like-fraud study: run, report, export, detect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run the study and persist the dataset",
        epilog=(
            "exit codes: 0 success; 1 shape-check failure; 2 usage error; "
            "3 checkpoint refusal; 4 completed degraded (one or more shards "
            "quarantined after --shard-retry restarts); 5 unrecoverable "
            "shard failure (primary shard or every shard lost); "
            "6 i/o error on the durable path (e.g. ENOSPC); "
            "130 operator interrupt (every live shard flushes a final "
            "checkpoint snapshot first)"
        ),
    )
    run.add_argument("--scale", type=float, default=0.1,
                     help="study scale: 0.1 = small preset (default), 1.0 = "
                          "paper scale, N > 1 multiplies population and "
                          "campaign sizes N-fold (e.g. --scale 100)")
    run.add_argument("--seed", type=int, default=20140312)
    run.add_argument("--out", type=Path, default=Path("study.jsonl"))
    run.add_argument("--report", action="store_true",
                     help="also print the full text report")
    run.add_argument("--population", type=int, default=None,
                     help="organic world size (default: preset for the scale)")
    run.add_argument("--chaos", action="store_true",
                     help="crawl through the default fault-injection profile "
                          "(retries/backoff/circuit breaking exercised)")
    run.add_argument("--metrics", type=Path, default=None,
                     help="enable observability and write the run manifest "
                          "(config hash, seed, counters, timings) to this "
                          "JSON file")
    run.add_argument("--checkpoint-dir", type=Path, default=None,
                     help="write a crash-safe checkpoint (WAL journal + "
                          "phase snapshots) into this directory")
    run.add_argument("--checkpoint-every", type=float, default=None,
                     metavar="DAYS",
                     help="extra mid-simulation snapshot cadence in simulated "
                          "days (phase boundaries always snapshot)")
    run.add_argument("--resume", type=Path, default=None, metavar="DIR",
                     help="resume a crashed/killed run from its checkpoint "
                          "directory (same seed/config required; final "
                          "output is byte-identical to an uninterrupted run)")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run the study as supervised per-campaign shards "
                          "with up to N worker processes; --jobs N is "
                          "byte-identical to --jobs 1 (sharded runs are "
                          "their own determinism domain, distinct from the "
                          "default single-process path)")
    run.add_argument("--shard-retry", type=int, default=2, metavar="N",
                     help="restarts allowed per crashed/hung shard before "
                          "it is quarantined and the run completes "
                          "degraded (default: 2; only with --jobs)")
    run.add_argument("--campaigns", type=int, default=None, metavar="K",
                     help="restrict the study to the first K campaign "
                          "specs (page-id assignment keeps all specs' "
                          "pages, so results are comparable across K)")
    run.add_argument("--store", type=Path, default=None, metavar="DB",
                     help="also land the dataset in a queryable SQLite "
                          "store at this path (export byte-identical to "
                          "--out; analyse with 'repro-study query')")
    run.add_argument("--failpoint", action="append", default=None,
                     metavar="SPEC",
                     help="arm a deterministic failpoint, e.g. "
                          "'ckpt.journal.record=kill@25' (repeatable; "
                          "name=action[:arg][@N], actions: errno:<NAME>, "
                          "kill, torn, exit:<code>, raise, stall:<secs>, "
                          "hang, count; inherited by shard workers, scope "
                          "with REPRO_SHARD_TARGET)")

    report = sub.add_parser("report", help="render tables/figures from a dataset")
    report.add_argument("dataset", type=Path)

    export = sub.add_parser("export", help="write every table/figure as CSV")
    export.add_argument("dataset", type=Path)
    export.add_argument("--dir", type=Path, default=Path("export"))

    detect = sub.add_parser("detect", help="rule-based fake-like screening")
    detect.add_argument("dataset", type=Path)
    detect.add_argument("--like-threshold", type=float, default=300.0,
                        help="page-like count above which a liker is suspicious")

    query = sub.add_parser(
        "query", help="run an analysis as SQL queries against a store"
    )
    query.add_argument("store", type=Path,
                       help="store file written by 'run --store'")
    query.add_argument("analysis",
                       choices=("overlap", "temporal", "summary",
                                "verify", "repair"),
                       help="which analysis to run; 'verify' integrity-"
                            "checks the store (exit 2 on corruption), "
                            "'repair' rebuilds it from a checkpoint WAL "
                            "(needs --journal)")
    query.add_argument("--journal", type=Path, default=None,
                       help="checkpoint journal (journal.jsonl) to rebuild "
                            "from (repair only)")
    return parser


def _config_for(args: argparse.Namespace) -> StudyConfig:
    if abs(args.scale - 0.1) < 1e-9 and args.population is None:
        config = StudyConfig.small(seed=args.seed)
    elif args.scale > 1 and args.population is None:
        # N > 1 scales the world, not just the campaigns: population and
        # budgets both grow N-fold (see StudyConfig.at_scale).
        config = StudyConfig.at_scale(args.scale, seed=args.seed)
    else:
        population = PopulationConfig()
        if args.population is not None:
            population = PopulationConfig(
                n_users=args.population,
                n_normal_pages=max(80, args.population // 3),
                n_spam_pages=max(30, args.population // 10),
            )
        config = StudyConfig(seed=args.seed, scale=args.scale, population=population)
    if getattr(args, "campaigns", None) is not None:
        count = args.campaigns
        if count < 1 or count > len(config.specs):
            print(
                f"error: --campaigns must be in 1..{len(config.specs)}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        config.active_spec_ids = [
            spec.campaign_id for spec in config.specs[:count]
        ]
    if getattr(args, "chaos", False):
        from repro.osn.faults import FaultProfile

        config.fault_profile = FaultProfile.default()
    if getattr(args, "metrics", None) is not None:
        config.observability = ObservabilityConfig(enabled=True)
    resume_dir = getattr(args, "resume", None)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if resume_dir is not None or checkpoint_dir is not None:
        from repro.ckpt.manager import CheckpointConfig
    if resume_dir is not None:
        config.checkpoint = CheckpointConfig(directory=resume_dir, resume=True)
    elif checkpoint_dir is not None:
        config.checkpoint = CheckpointConfig(
            directory=checkpoint_dir,
            every_days=getattr(args, "checkpoint_every", None),
        )
    return config


def _write_store(path: Path, dataset: HoneypotDataset) -> None:
    """Land the run's dataset in a queryable store, reporting throughput."""
    from repro.store.store import HoneypotStore

    if path.exists():
        path.unlink()  # --store names this run's output, like --out
    started = time.perf_counter()
    with HoneypotStore.create(path) as store:
        rows = store.ingest_dataset(dataset)
    elapsed = time.perf_counter() - started
    rate = rows / elapsed if elapsed > 0 else float("inf")
    print(f"store: {rows} rows -> {path} ({rate:,.0f} rows/s)")


def cmd_run(args: argparse.Namespace) -> int:
    if args.resume is not None and args.checkpoint_dir is not None:
        print("error: --resume already names the checkpoint directory; "
              "drop --checkpoint-dir", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.failpoint:
        text = ",".join(args.failpoint)
        try:
            failpoints.configure(text)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        # Spawned shard workers inherit the spec through the environment
        # (scope with REPRO_SHARD_TARGET); this process is already armed.
        existing = os.environ.get(failpoints.ENV_VAR, "")
        os.environ[failpoints.ENV_VAR] = (
            f"{existing},{text}" if existing else text
        )
    if args.jobs is not None:
        return _run_sharded(args)
    experiment = HoneypotExperiment(_config_for(args))
    started = time.perf_counter()
    results = experiment.run()
    wall_seconds = time.perf_counter() - started
    dataset = results.dataset
    dataset.to_jsonl(args.out)
    print(f"study complete: {dataset.total_likes} likes, "
          f"{len(dataset.likers)} likers -> {args.out}")
    if args.store is not None:
        _write_store(args.store, dataset)
    if args.metrics is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        registry = experiment.artifacts.metrics
        manifest = build_manifest(
            experiment.config,
            registry,
            wall_seconds=wall_seconds,
            virtual_minutes=int(registry.gauge("sim.virtual_minutes")),
            dataset=dataset,
        )
        write_manifest(args.metrics, manifest)
        print(f"run manifest: {len(manifest['counters'])} counters, "
              f"{len(manifest['gauges'])} gauges, "
              f"config {manifest['config_hash']} -> {args.metrics}")
    checkpoint = experiment.artifacts.checkpoint
    if checkpoint is not None:
        mode = "resumed" if checkpoint["resumed"] else "fresh"
        print(f"checkpoint ({mode}): {checkpoint['snapshots_written']} snapshots "
              f"({checkpoint['snapshot_bytes']} bytes), "
              f"{checkpoint['barriers_validated']} barriers validated, "
              f"{checkpoint['journal_records_replayed']} journal records "
              f"replay-verified, {checkpoint['journal_records_written']} written")
    stats = experiment.artifacts.api.stats
    if stats.faults_injected:
        print(f"crawl faults survived: {stats.faults_injected} injected, "
              f"{stats.retries} retries, {stats.failures} exhausted, "
              f"{stats.breaker_trips} breaker trips")
    if args.report:
        print()
        print(full_report(results))
    failures = [c for c in results.shape_checks() if not c.passed]
    for check in failures:
        print(f"shape check FAILED: {check.name} ({check.detail})")
    return 1 if failures else 0


def _run_sharded(args: argparse.Namespace) -> int:
    """The ``--jobs N`` path: supervised shards, deterministic merge."""
    from repro.shard.supervisor import ShardSupervisor

    config = _config_for(args)
    supervisor = ShardSupervisor(
        config, jobs=args.jobs, shard_retry=args.shard_retry
    )
    started = time.perf_counter()
    result = supervisor.run()
    wall_seconds = time.perf_counter() - started
    dataset = result.dataset
    dataset.to_jsonl(args.out)
    print(f"study complete (sharded, jobs={args.jobs}, "
          f"{len(result.plan)} shards): {dataset.total_likes} likes, "
          f"{len(dataset.likers)} likers -> {args.out}")
    if args.store is not None:
        _write_store(args.store, dataset)
    for shard_id in result.quarantined:
        outcome = result.outcomes[shard_id]
        print(f"shard QUARANTINED after {outcome.attempts} attempts: "
              f"{shard_id} ({outcome.error})", file=sys.stderr)
    if args.metrics is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        registry = MetricsRegistry()
        for name, value in result.counters.items():
            registry.set_counter(name, value)
        for name, value in result.gauges.items():
            registry.set_gauge(name, value)
        manifest = build_manifest(
            config,
            registry,
            wall_seconds=wall_seconds,
            virtual_minutes=result.virtual_minutes,
            dataset=dataset,
        )
        manifest["shards"] = result.shards_section
        if result.degraded_section is not None:
            manifest["degraded"] = result.degraded_section
        manifest["shard_execution"] = result.execution_section
        write_manifest(args.metrics, manifest)
        print(f"run manifest: {len(manifest['counters'])} counters, "
              f"{len(manifest['gauges'])} gauges, "
              f"config {manifest['config_hash']} -> {args.metrics}")
    checkpoint = result.checkpoint
    if checkpoint.get("snapshots_written") or checkpoint.get("resumed"):
        mode = "resumed" if checkpoint["resumed"] else "fresh"
        print(f"checkpoint ({mode}, per-shard): "
              f"{checkpoint.get('snapshots_written', 0)} snapshots "
              f"({checkpoint.get('snapshot_bytes', 0)} bytes), "
              f"{checkpoint.get('barriers_validated', 0)} barriers validated, "
              f"{checkpoint.get('journal_records_replayed', 0)} journal "
              f"records replay-verified, "
              f"{checkpoint.get('journal_records_written', 0)} written")
    results = ExperimentResults(dataset=dataset, sharded_execution=True)
    if args.report:
        print()
        print(full_report(results))
    if result.quarantined:
        return 4
    failures = [c for c in results.shape_checks() if not c.passed]
    for check in failures:
        print(f"shape check FAILED: {check.name} ({check.detail})")
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    results = ExperimentResults(dataset=HoneypotDataset.from_jsonl(args.dataset))
    print(full_report(results))
    print()
    print("Shape checks:")
    for check in results.shape_checks():
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_all

    dataset = HoneypotDataset.from_jsonl(args.dataset)
    outputs = export_all(dataset, args.dir)
    for name, path in outputs.items():
        print(f"{name}: {path}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from repro.detection.features import extract_liker_features
    from repro.detection.rules import RuleBasedDetector

    dataset = HoneypotDataset.from_jsonl(args.dataset)
    detector = RuleBasedDetector(like_count_threshold=args.like_threshold)
    features = extract_liker_features(dataset)
    verdicts = detector.classify_all(features)
    flagged = {u for u, v in verdicts.items() if v.flagged}

    rows = []
    for campaign_id in dataset.campaign_ids():
        record = dataset.campaign(campaign_id)
        liker_ids = set(record.liker_ids)
        hits = len(liker_ids & flagged)
        rows.append([
            campaign_id, record.total_likes, hits,
            f"{hits / record.total_likes * 100:.0f}%" if record.total_likes else "-",
        ])
    print(render_table(
        ["Campaign", "Likes", "Flagged", "Share"],
        rows,
        title="Rule-based screening (no ground truth required)",
    ))
    total = len(dataset.likers)
    print(f"\n{len(flagged)}/{total} likers flagged as likely fake.")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.analysis.temporal import classify_strategy
    from repro.store import queries as store_queries
    from repro.store.ingest import repair_from_journal
    from repro.store.store import HoneypotStore

    if args.analysis == "verify":
        with HoneypotStore.open(args.store) as store:
            problems = store.verify()
        if problems:
            for problem in problems:
                print(f"verify: {problem}", file=sys.stderr)
            print(f"{args.store}: CORRUPT ({len(problems)} problem(s))",
                  file=sys.stderr)
            return 2
        print(f"{args.store}: ok")
        return 0
    if args.analysis == "repair":
        if args.journal is None:
            print("error: repair needs --journal pointing at the run's "
                  "checkpoint journal.jsonl", file=sys.stderr)
            return 2
        summary = repair_from_journal(args.store, args.journal)
        print(f"repaired {args.store} from {args.journal}: "
              f"{summary['records']} journal records -> {summary['rows']} "
              f"rows (torn tail: {'yes' if summary['torn'] else 'no'})")
        return 0
    with HoneypotStore.open(args.store) as store:
        if args.analysis == "overlap":
            summary = store_queries.overlap_summary(store)
            print(render_table(
                ["#Campaigns liked", "#Likers"],
                [[n, count] for n, count in summary.multiplicity.items()],
                title=(
                    f"Liker multiplicity: {summary.total_likes} likes from "
                    f"{summary.unique_likers} likers "
                    f"({summary.repeat_fraction * 100:.1f}% repeat)"
                ),
            ))
            counts = store_queries.shared_liker_counts(store)
            pairs = sorted(
                (item for item in counts.items() if item[1] > 0),
                key=lambda item: -item[1],
            )[:10]
            if pairs:
                print()
                print(render_table(
                    ["Campaign A", "Campaign B", "Shared likers"],
                    [[a, b, n] for (a, b), n in pairs],
                    title="Largest cross-campaign overlaps",
                ))
        elif args.analysis == "temporal":
            rows = []
            for campaign_id in store.campaign_ids():
                profile = store_queries.temporal_profile(store, campaign_id)
                rows.append([
                    campaign_id, profile.total_likes,
                    f"{profile.span_days:.1f}", profile.max_2h_likes,
                    f"{profile.max_2h_fraction * 100:.0f}%",
                    f"{profile.days_to_half:.2f}",
                    classify_strategy(profile),
                ])
            print(render_table(
                ["Campaign", "Likes", "Span (d)", "Max 2h", "Max 2h %",
                 "Days to half", "Strategy"],
                rows,
                title="Temporal delivery profiles (store query)",
            ))
        else:
            rows = [
                [row.campaign_id, row.provider, row.location, row.budget,
                 row.duration_days, row.monitored_days, row.likes,
                 row.terminated, "yes" if row.inactive else "no"]
                for row in store_queries.table1(store)
            ]
            print(render_table(
                ["Campaign", "Provider", "Location", "Budget", "Days",
                 "Monitored", "Likes", "Terminated", "Inactive"],
                rows,
                title="Campaign summary (store query)",
            ))
        reads = sum(store.rows_read.values())
        print(f"\n{reads} rows read across "
              f"{len(store.rows_read)} tables")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "report": cmd_report,
    "export": cmd_export,
    "detect": cmd_detect,
    "query": cmd_query,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        failpoints.install_from_env()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dataset_path = getattr(args, "dataset", None)
    if dataset_path is not None and not Path(dataset_path).exists():
        print(f"error: dataset file not found: {dataset_path}", file=sys.stderr)
        return 2
    store_path = getattr(args, "store", None)
    if args.command == "query" and not Path(store_path).exists():
        print(f"error: store file not found: {store_path}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # The study already flushed its final snapshot (when checkpointing
        # was on) before the interrupt propagated here.
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as error:
        named = _named_failure(error)
        if named is None:
            raise
        label, code = named
        print(f"{label}: {error}", file=sys.stderr)
        return code


def _named_failure(error: Exception) -> Optional[Tuple[str, int]]:
    """The message label and exit code of a failure the CLI names.

    The subsystem error modules load only here, once an exception has
    escaped a command: a subsystem that was never loaded cannot have
    raised.  ``None`` lets any other exception propagate.
    """
    from repro.ckpt.errors import CheckpointError
    from repro.shard.errors import ShardError
    from repro.store.errors import StoreError

    for kind, label, code in (
        (StoreError, "store error", 2),
        (CheckpointError, "checkpoint error", 3),
        (ShardError, "unrecoverable shard failure", 5),
        (failpoints.FailpointError, "injected failure", 1),
        # The durable path surfaces disk faults (ENOSPC, EIO) here when no
        # subsystem owns them; a named exit, never a raw traceback.
        (OSError, "i/o error", 6),
    ):
        if isinstance(error, kind):
            return label, code
    return None


if __name__ == "__main__":
    sys.exit(main())
