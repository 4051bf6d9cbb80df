"""One benchmark invocation, in a fresh interpreter the harness starts.

Run as ``python -m benchmarks.e2e.child --t0 T [options] [-- run args]``
from the repository root with ``src`` on ``PYTHONPATH``.  The child
imports ``repro.cli`` (``setup_s`` runs from the parent's ``--t0`` to
here), then does what its options ask, in this order:

* ``-- run ...``: times one in-process ``repro.cli.main(["run", ...])``
  (``run_s``) and reads the peak RSS of itself and its waited-for
  children (``peak_rss_mb``);
* ``--ingest JSONL``: lands a dataset in the ``--query`` store, untimed;
* ``--verify JSONL``: runs ``query DB verify`` and compares the store's
  export with the JSONL bytes, untimed;
* ``--query DB --sets N``: times N back-to-back sets of
  ``cli.main(["query", DB, X])`` for X in overlap, temporal, summary.

With no run and no query it only reports ``setup_s`` (a set-up probe).
``--gauge`` keeps the child on the CPU it starts on and runs a
:class:`SpeedGauge` there through the run, so the harness can scale the
run's times to one host speed.
Its last stdout line is one JSON object.  ``--trace`` wraps the
:data:`SPANS` functions (:mod:`benchmarks.e2e.tracer`) and adds the span
records; tracing is never on in an invocation whose times are metrics.

The module keeps its work under the ``__main__`` guard: the sharded run
spawns workers that re-import the main module.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e.tracer import Tracer, clock, thread_clock

#: (layer metric name, module, qualified attribute) for every function
#: the traced invocation wraps, in call-tree order.
SPANS = (
    ("honeypot.study.run", "repro.honeypot.study", "HoneypotStudy.run"),
    ("osn.population.build", "repro.osn.population", "WorldBuilder.build"),
    ("ads.launch", "repro.ads.delivery", "AdDeliveryEngine.launch"),
    ("farms.place_order", "repro.farms.catalog", "LikeFarmService.place_order"),
    ("sim.run_until", "repro.sim.engine", "EventEngine.run_until"),
    ("osn.api.get_page", "repro.osn.api", "PlatformAPI.get_page"),
    ("osn.api.get_profile", "repro.osn.api", "PlatformAPI.get_profile"),
    ("osn.api.get_friend_list", "repro.osn.api", "PlatformAPI.get_friend_list"),
    ("osn.api.get_declared_friend_count", "repro.osn.api",
     "PlatformAPI.get_declared_friend_count"),
    ("osn.api.get_page_likes", "repro.osn.api", "PlatformAPI.get_page_likes"),
    ("osn.api.get_declared_like_count", "repro.osn.api",
     "PlatformAPI.get_declared_like_count"),
    ("honeypot.crawl_likers", "repro.honeypot.crawler", "ProfileCrawler.crawl_likers"),
    ("honeypot.crawl_baseline", "repro.honeypot.crawler",
     "ProfileCrawler.crawl_baseline"),
    ("honeypot.recheck_terminations", "repro.honeypot.crawler",
     "ProfileCrawler.recheck_terminations"),
    ("osn.termination.run", "repro.osn.termination", "TerminationSweep.run"),
    ("ads.global_report", "repro.ads.reports", "ReportsTool.global_report"),
    ("ckpt.journal.append", "repro.ckpt.journal", "DatasetJournal.append"),
    ("ckpt.at_barrier", "repro.ckpt.manager", "CheckpointManager.at_barrier"),
    ("honeypot.to_jsonl", "repro.honeypot.storage", "HoneypotDataset.to_jsonl"),
    ("core.shape_checks", "repro.core.results", "ExperimentResults.shape_checks"),
    ("store.ingest_dataset", "repro.store.store", "HoneypotStore.ingest_dataset"),
    ("store.query.overlap_summary", "repro.store.queries", "overlap_summary"),
    ("store.query.shared_liker_counts", "repro.store.queries", "shared_liker_counts"),
    ("store.query.temporal_profile", "repro.store.queries", "temporal_profile"),
    ("store.query.table1", "repro.store.queries", "table1"),
    ("shard.supervisor.run", "repro.shard.supervisor", "ShardSupervisor.run"),
    ("shard.load", "repro.honeypot.storage", "HoneypotDataset.from_jsonl"),
    ("shard.merge", "repro.shard.supervisor", "merge_shards"),
)

#: span -> (metric, fn(result, call args)): counts a wrapped call adds to.
TALLIES = {
    "honeypot.to_jsonl": ("honeypot.to_jsonl.bytes",
                          lambda result, args: Path(args[1]).stat().st_size),
    "store.ingest_dataset": ("store.ingest_dataset.rows",
                             lambda result, args: result),
}

#: The root span around each ``cli.main`` call.
ROOT_SPAN = "cli.main"

QUERIES = ("overlap", "temporal", "summary")


def install(tracer: Tracer) -> None:
    """Wrap every :data:`SPANS` function for the rest of this process."""
    for name, module, qualname in SPANS:
        owner = importlib.import_module(module)
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part)
        tracer.patch(owner, attr, name, TALLIES.get(name))


#: Seconds between two :class:`SpeedGauge` steps.
GAUGE_PERIOD_S = 0.05


def gauge_step() -> None:
    """About a millisecond of pure-Python dict counting that no change
    to the program can speed up.  It allocates no tracked object but
    one dict, so it never sets off a garbage collection of the run's
    heap."""
    counts: Dict[int, int] = {}
    for i in range(6000):
        key = (i * 2654435761) & 0xFFF
        counts[key] = counts.get(key, 0) + 1


class SpeedGauge:
    """Times :func:`gauge_step` every :data:`GAUGE_PERIOD_S` on a thread
    of this process, for as long as the ``with`` block runs.

    The host slows a CPU by up to 2x for a second or so at a time, and
    the two CPUs do so independently.  A gauge on the run's own CPU
    (:func:`pin_to_current_cpu`) samples that state 20 times a second, so its mean step
    time tracks the speed the run itself met.  A step holds the GIL and
    the CPU, so the run waits it out: :attr:`wall_s` is subtracted from
    ``run_s`` and :attr:`cpu_s` from ``cpu_s``.
    """

    def __init__(self) -> None:
        self.steps: List[float] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            started, cpu = clock(), thread_clock()
            gauge_step()
            self.steps.append(clock() - started)
            self.cpu_s += thread_clock() - cpu
            if self._stop.wait(GAUGE_PERIOD_S):
                return

    @property
    def wall_s(self) -> float:
        return sum(self.steps)

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def pin_to_current_cpu() -> None:
    """Keep the calling thread, and every thread it starts later, on
    the CPU it runs on now (Linux only; elsewhere a no-op)."""
    try:
        stat = Path("/proc/self/stat").read_text(encoding="ascii")
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, IndexError, OSError, ValueError):
        pass


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest waited-for child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's clock() reading just before the spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gauge", action="store_true",
                        help="stay on the CPU the child starts on and time "
                             "the host's speed there through the run")
    parser.add_argument("--query", type=Path, default=None, metavar="DB")
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--ingest", type=Path, default=None, metavar="JSONL")
    parser.add_argument("--verify", type=Path, default=None, metavar="JSONL")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = build_parser().parse_args(argv[:split])
    run_argv = argv[split + 1:]
    from repro import cli

    report: Dict = {"setup_s": clock() - args.t0}
    if args.gauge:
        pin_to_current_cpu()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    cli_main = cli.main if tracer is None else tracer.wrap(ROOT_SPAN, cli.main)

    if run_argv:
        report.update(_run(run_argv, cli_main, gauged=args.gauge))
    if args.query is not None:
        report.update(_query(args, cli_main))
    if tracer is not None:
        report["spans"] = tracer.records()
        report["counts"] = tracer.counts
    print(json.dumps(report), flush=True)
    return 0


def _run(run_argv: List[str], cli_main, gauged: bool) -> Dict:
    """One timed run, with a :class:`SpeedGauge` alongside if ``gauged``.

    ``run_s`` leaves out the gauge's steps; ``gauge_s`` is their mean
    and ``gauge_cpu_s`` their CPU time."""
    from repro.util.durable import FSYNC_COUNTS

    gauge = SpeedGauge() if gauged else None
    before = dict(FSYNC_COUNTS)
    started = clock()
    with gauge or contextlib.nullcontext():
        out: Dict = {"rc": cli_main(run_argv)}
    out["run_s"] = clock() - started
    out["peak_rss_mb"] = peak_rss_mb()
    out["fsyncs"] = {
        tag: count - before.get(tag, 0) for tag, count in FSYNC_COUNTS.items()
    }
    if gauge is not None:
        out["run_s"] -= gauge.wall_s
        out["gauge_s"] = gauge.wall_s / len(gauge.steps)
        out["gauge_cpu_s"] = gauge.cpu_s
    return out


def _query(args: argparse.Namespace, cli_main) -> Dict:
    """The untimed store preparation and checks, then the timed query sets."""
    from repro.store import HoneypotStore

    db = str(args.query)
    out: Dict = {"query_rcs": [], "query_s": []}
    if args.ingest is not None:
        with HoneypotStore.create(args.query) as store:
            store.ingest_jsonl(args.ingest)
    if args.verify is not None:
        out["verify_rc"] = cli_main(["query", db, "verify"])
        exported = args.query.with_name("export.jsonl")
        with HoneypotStore.open(args.query) as store:
            store.to_jsonl(exported)
        out["export_matches"] = exported.read_bytes() == args.verify.read_bytes()
    for _ in range(args.sets):
        started = clock()
        out["query_rcs"] += [cli_main(["query", db, name]) for name in QUERIES]
        out["query_s"].append(clock() - started)
    return out


if __name__ == "__main__":
    sys.exit(main())
