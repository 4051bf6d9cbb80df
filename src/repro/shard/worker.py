"""The shard worker: one process, one shard, durable results on disk.

A worker is launched by the supervisor (spawn context, so it inherits no
lock or RNG state), detaches into its own process group (terminal Ctrl-C
reaches only the supervisor, which forwards SIGINT deliberately), starts
a heartbeat thread, and runs the shard's :class:`HoneypotStudy` with a
per-shard checkpoint directory.  All supervisor/worker communication is
through files in the shard directory — robust to SIGKILL at any point:

* ``heartbeat``       — counter a daemon thread bumps continuously; the
                        supervisor declares the worker hung when it stops.
* ``ckpt/``           — the shard's own WAL journal + phase snapshots
                        (:mod:`repro.ckpt`), namespaced by shard id.
* ``dataset.jsonl``   — the shard's dataset (atomic, fsync'd).
* ``state.json``      — deterministic run state: virtual minutes, the
                        dynamic-id floor, metric counters/gauges.
* ``done.json``       — written **last**; its presence is the one success
                        signal the supervisor trusts.
* ``error.json``      — exception + traceback when the shard failed.

On SIGINT the study's existing KeyboardInterrupt path flushes and fsyncs
a final checkpoint snapshot for *this shard* before the worker exits 130
— every live shard leaves a durable record of how far it got, not just
the supervisor.

Fault-injection scoping: all injection runs through the failpoint
registry (:mod:`repro.failpoints`); workers arm it from the inherited
``REPRO_FAILPOINTS`` environment on entry.  Because spawned workers
inherit the supervisor's environment verbatim, an armed spec would hit
every worker of a sharded run at once — ``REPRO_SHARD_TARGET`` narrows
the injection to one shard id, and a restarted worker (attempt > 0)
always scrubs it so injected crashes do not recur forever.  A spec
therefore never survives a restart; ``REPRO_SHARD_POISON`` is the one
fault that does: it arms the ``shard.worker.poison`` failpoint on every
attempt, driving the quarantine path.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from pathlib import Path

from repro import failpoints
from repro.honeypot.study import HoneypotStudy, StudyConfig
from repro.util.durable import atomic_write_json

#: Scope the injection envs (failpoints included) to one shard id.
TARGET_ENV = "REPRO_SHARD_TARGET"
#: Targeted shard raises on every attempt (the quarantine driver).
POISON_ENV = "REPRO_SHARD_POISON"

#: Result-file names inside a shard directory.
HEARTBEAT_NAME = "heartbeat"
DATASET_NAME = "dataset.jsonl"
STATE_NAME = "state.json"
DONE_NAME = "done.json"
ERROR_NAME = "error.json"

#: Shard state-file format identifier.
STATE_SCHEMA = "repro.shard/state@1"

#: Seconds between heartbeat writes.
HEARTBEAT_INTERVAL = 0.2


class _Heartbeat:
    """Daemon thread bumping a counter file until the process dies."""

    def __init__(self, path: Path, interval: float = HEARTBEAT_INTERVAL) -> None:
        self.path = Path(path)
        self.interval = interval
        self._counter = 0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._beat()  # one synchronous beat so launch is never heartbeat-less
        self._thread.start()

    def _run(self) -> None:
        while True:
            time.sleep(self.interval)
            self._beat()

    def _beat(self) -> None:
        self._counter += 1
        failpoints.hit("shard.worker.heartbeat")
        # Plain write, no fsync: the heartbeat is liveness, not durability,
        # and the supervisor tolerates a torn read as "no change yet".
        self.path.write_text(f"{self._counter}\n", encoding="utf-8")


def _arm_failpoints(shard_id: str, attempt: int) -> None:
    """Shard-scope the inherited injection envs, then arm the registry.

    Workers are spawned, so the registry starts clean in every attempt;
    whatever the supervisor's environment carries is the only injection
    source.  ``REPRO_SHARD_TARGET`` narrows it to one shard, and injected
    faults hit their target's first attempt only — a restarted worker (or
    an untargeted sibling) must run clean or no retry ever heals.  Poison
    (``REPRO_SHARD_POISON``) is the exception: it recurs on every attempt
    (the quarantine driver).
    """
    target = os.environ.get(TARGET_ENV)
    targeted = target is None or target == shard_id
    if not targeted or attempt > 0:
        os.environ.pop(failpoints.ENV_VAR, None)
    failpoints.install_from_env()
    if os.environ.get(POISON_ENV) and targeted:
        failpoints.configure(
            f"shard.worker.poison=raise:injected poison in shard {shard_id}"
        )


def worker_entry(
    config: StudyConfig, shard_id: str, shard_dir: str, attempt: int
) -> None:
    """Process entry point for one shard attempt (spawn target)."""
    os.setpgrp()  # terminal SIGINT reaches only the supervisor
    directory = Path(shard_dir)
    directory.mkdir(parents=True, exist_ok=True)
    _arm_failpoints(shard_id, attempt)
    # A hung worker: alive forever, heartbeat never written.  The
    # supervisor's staleness detector must SIGKILL and restart us.
    failpoints.hit("shard.worker.hang")
    heartbeat = _Heartbeat(directory / HEARTBEAT_NAME)
    heartbeat.start()
    started = time.perf_counter()
    try:
        failpoints.hit("shard.worker.poison")
        artifacts = HoneypotStudy(config).run()
        artifacts.dataset.to_jsonl(directory / DATASET_NAME)
        failpoints.hit("shard.worker.state")
        atomic_write_json(
            directory / STATE_NAME,
            {
                "schema": STATE_SCHEMA,
                "shard": shard_id,
                "virtual_minutes": int(artifacts.virtual_minutes),
                "dynamic_id_floor": int(
                    artifacts.network.profiles.id_base + artifacts.build_user_count
                ),
                "counters": artifacts.metrics.counters_snapshot(),
                "gauges": artifacts.metrics.gauges_snapshot(),
                "checkpoint": artifacts.checkpoint,
                "wall_seconds": round(time.perf_counter() - started, 3),
            },
            tag="shard",
        )
        # done.json last: everything above is durable before success shows.
        failpoints.hit("shard.worker.done")
        atomic_write_json(
            directory / DONE_NAME,
            {"schema": STATE_SCHEMA, "shard": shard_id, "status": "ok",
             "attempt": attempt},
            tag="shard",
        )
    except KeyboardInterrupt:
        # The study already flushed this shard's final checkpoint snapshot
        # (CheckpointManager.interrupt) before the interrupt reached here.
        atomic_write_json(
            directory / ERROR_NAME,
            {"shard": shard_id, "attempt": attempt, "error": "KeyboardInterrupt",
             "traceback": ""},
            tag="shard",
        )
        sys.exit(130)
    except Exception as error:  # repro-lint: allow-HYG002 process boundary; failure is reported via error.json and exit code
        atomic_write_json(
            directory / ERROR_NAME,
            {
                "shard": shard_id,
                "attempt": attempt,
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
            },
            tag="shard",
        )
        sys.exit(1)
