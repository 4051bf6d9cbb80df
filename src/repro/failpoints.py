"""Deterministic failpoints: named fault-injection sites on the durable path.

Every chokepoint a storage fault can hit — the atomic-write/fsync
primitives (:mod:`repro.util.durable`), the checkpoint journal and
snapshots (:mod:`repro.ckpt`), the SQLite store (:mod:`repro.store`) and
the shard worker/supervisor protocol (:mod:`repro.shard`) — calls
:func:`hit` with a name from the catalog below.  A disarmed hit is one
dict lookup on an empty-by-default table (``make profile`` records the
cost as ~0); an armed hit counts deterministically and *fires* its fault
on exactly the Nth occurrence, so the storage-fault sweep
(``tests/test_fault_sweep.py``) can kill, corrupt, or fail any durable
write at a reproducible point instead of a racy wall-clock timer.

Activation (both merge):

* env: ``REPRO_FAILPOINTS="name=action@N,name=action@N"`` — inherited by
  spawned shard workers, installed by :func:`install_from_env`;
* CLI: ``repro-study run --failpoint name=action@N`` (repeatable).

Actions: ``errno:<NAME>`` raises :class:`OSError` with that errno;
``kill`` SIGKILLs the process (uncatchable; unlike a power loss, it
keeps what was flushed to the OS); ``torn`` runs the call site's
partial-effect callback (a short write, a skipped rename) and then
SIGKILLs; ``exit:<code>`` hard-exits; ``raise`` raises
:class:`FailpointError` (the poison driver); ``stall:<seconds>`` sleeps
interruptibly once; ``hang`` never returns; ``count`` only counts
(coverage mode — ``*=count`` arms every registered name).

A kill after the Nth journaled record, header included, is
``ckpt.journal.record=kill@N`` and a stall there
``ckpt.journal.record=stall:<seconds>@N``: the record is flushed to the
OS before the hit, so a SIGKILL there keeps it (the fsync comes later,
once per checkpoint barrier).

Firing is announced on stderr and — when a metrics registry is bound via
:func:`bind_metrics` — as a ``failpoint_fired`` trace event.  Neither
touches the deterministic counters/gauges sections: a disabled run is
byte-identical to one where this module does not exist.
"""

from __future__ import annotations

import errno as errno_codes
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The activation environment variable (spec string, comma-separated).
ENV_VAR = "REPRO_FAILPOINTS"

#: Actions a failpoint may fire (the part before ``:<arg>``).
ACTIONS = ("errno", "kill", "torn", "exit", "raise", "stall", "hang", "count")


class FailpointError(RuntimeError):
    """An injected software fault (the ``raise`` action; poison driver)."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire ``action`` on the ``nth`` hit of ``name``."""

    name: str
    action: str
    arg: str
    nth: int

    def render(self) -> str:
        action = f"{self.action}:{self.arg}" if self.arg else self.action
        return f"{self.name}={action}@{self.nth}"


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #

_NAMES: List[str] = []


def register(name: str) -> str:
    """Declare one failpoint name (catalog below; unique, checked by FP001)."""
    if name in _NAMES:
        raise ValueError(f"failpoint {name!r} registered twice")
    _NAMES.append(name)
    return name


# The complete catalog.  FP001 (repro.lint.xmod.fp) statically enforces
# that every registration lives here, every name is a unique literal, and
# every hit() site names one of these — which is what makes the sweep's
# "every failpoint exercised" check complete.

# -- repro.util.durable: the atomic-write/fsync primitives
register("durable.write.data")
register("durable.fsync.file")
register("durable.rename")
register("durable.fsync.dir")

# -- repro.ckpt: journal appends, snapshots, manifest, resume
register("ckpt.journal.record")
register("ckpt.snapshot.write")
register("ckpt.snapshot.corrupt")
register("ckpt.snapshot.load")
register("ckpt.manifest.write")
register("ckpt.manager.resume")

# -- repro.store: SQLite open/ingest/export
register("store.open")
register("store.ingest.batch")
register("store.export.rows")

# -- repro.shard: the worker file protocol and supervisor restarts
register("shard.worker.hang")
register("shard.worker.poison")
register("shard.worker.heartbeat")
register("shard.worker.state")
register("shard.worker.done")
register("shard.supervisor.restart")


def all_failpoints() -> List[str]:
    """Every registered failpoint name, sorted."""
    return sorted(_NAMES)


# --------------------------------------------------------------------------- #
# Arming and firing
# --------------------------------------------------------------------------- #

#: name -> armed specs.  Empty means every hit() is a single dict check.
_ARMED: Dict[str, List[FaultSpec]] = {}
#: Per-process deterministic hit counters (armed names only).
_HITS: Dict[str, int] = {}
#: What fired, in order: (name, rendered spec, hit number).
_FIRED: List[Tuple[str, str, int]] = []
#: Optional MetricsRegistry for ``failpoint_fired`` trace events.
_METRICS = None


def parse_spec(text: str) -> List[FaultSpec]:
    """Parse ``name=action[:arg][@N]`` items (comma-separated)."""
    specs: List[FaultSpec] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, fault = item.partition("=")
        name = name.strip()
        if not sep or not name or not fault.strip():
            raise ValueError(
                f"bad failpoint spec {item!r}: expected name=action[:arg][@N]"
            )
        fault, at, nth_text = fault.partition("@")
        try:
            nth = int(nth_text) if at else 1
        except ValueError as error:
            raise ValueError(
                f"bad failpoint spec {item!r}: @N must be an integer"
            ) from error
        if nth < 1:
            raise ValueError(f"bad failpoint spec {item!r}: @N must be >= 1")
        action, _, arg = fault.strip().partition(":")
        if action not in ACTIONS:
            raise ValueError(
                f"bad failpoint spec {item!r}: unknown action {action!r} "
                f"(choose from {', '.join(ACTIONS)})"
            )
        if action == "errno":
            if not hasattr(errno_codes, arg):
                raise ValueError(
                    f"bad failpoint spec {item!r}: unknown errno {arg!r}"
                )
        specs.append(FaultSpec(name=name, action=action, arg=arg, nth=nth))
    return specs


def configure(text: str) -> List[FaultSpec]:
    """Arm the failpoints named in ``text`` (merges with what is armed).

    Raises :class:`ValueError` for malformed specs or names not in the
    registry.  ``*=<action>`` expands over every registered name —
    ``*=count`` is the sweep's coverage mode.
    """
    armed: List[FaultSpec] = []
    for spec in parse_spec(text):
        if spec.name == "*":
            expanded = [
                FaultSpec(name, spec.action, spec.arg, spec.nth)
                for name in all_failpoints()
            ]
        elif spec.name not in _NAMES:
            raise ValueError(
                f"unknown failpoint {spec.name!r}; registered: "
                f"{', '.join(all_failpoints())}"
            )
        else:
            expanded = [spec]
        for item in expanded:
            _ARMED.setdefault(item.name, []).append(item)
            armed.append(item)
    return armed


def install_from_env(environ=None) -> List[FaultSpec]:
    """Arm the failpoints named in :data:`ENV_VAR`."""
    env = os.environ if environ is None else environ
    text = env.get(ENV_VAR, "").strip()
    if not text:
        return []
    return configure(text)


def reset() -> None:
    """Disarm everything and clear counters (test isolation)."""
    _ARMED.clear()
    _HITS.clear()
    _FIRED.clear()


def bind_metrics(registry) -> None:
    """Emit ``failpoint_fired`` trace events on ``registry`` (trace only —
    never counters, so deterministic manifest sections stay untouched)."""
    global _METRICS
    _METRICS = registry


def is_armed() -> bool:
    """Whether any failpoint is armed in this process."""
    return bool(_ARMED)


def state() -> Dict:
    """Hit counters and fired events (armed names only; diagnostics)."""
    return {
        "armed": {
            name: [spec.render() for spec in specs]
            for name, specs in sorted(_ARMED.items())
        },
        "hits": dict(sorted(_HITS.items())),
        "fired": [
            {"name": name, "spec": spec, "hit": hit_number}
            for name, spec, hit_number in _FIRED
        ],
    }


def hit(name: str, torn: Optional[Callable[[], None]] = None) -> None:
    """One pass through a named chokepoint.

    Disarmed (the default): a single falsy check — effectively free, and
    behaviourally invisible.  Armed: the per-process counter for ``name``
    advances and any spec whose ``@N`` equals the new count fires.
    ``torn`` is the call site's partial-effect callback for the ``torn``
    action (e.g. "write half the bytes"); sites without a meaningful
    partial effect omit it and ``torn`` degrades to ``kill``.
    """
    if not _ARMED:
        return
    specs = _ARMED.get(name)
    if specs is None:
        return
    count = _HITS.get(name, 0) + 1
    _HITS[name] = count
    for spec in specs:
        if spec.nth == count:
            _fire(spec, count, torn)


def _fire(spec: FaultSpec, count: int, torn: Optional[Callable[[], None]]) -> None:
    _FIRED.append((spec.name, spec.render(), count))
    if spec.action != "count":
        print(
            f"failpoint fired: {spec.render()} (hit {count})",
            file=sys.stderr,
            flush=True,
        )
    if _METRICS is not None:
        _METRICS.trace_event(
            "failpoint_fired", name=spec.name, action=spec.action, hit=count
        )
    if spec.action == "count":
        return
    if spec.action == "errno":
        code = getattr(errno_codes, spec.arg)
        raise OSError(code, os.strerror(code), spec.name)
    if spec.action == "raise":
        raise FailpointError(spec.arg or f"injected fault at failpoint {spec.name}")
    if spec.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.action == "exit":
        os._exit(int(spec.arg) if spec.arg else 1)
    if spec.action == "stall":
        time.sleep(float(spec.arg) if spec.arg else 60.0)
        return
    if spec.action == "hang":
        while True:
            time.sleep(3600)
    if spec.action == "torn":
        try:
            if torn is not None:
                torn()
        finally:
            os.kill(os.getpid(), signal.SIGKILL)
