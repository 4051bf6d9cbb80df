"""In-memory span tracer for the benchmark's traced invocation.

The traced child wraps public ``repro`` functions from the outside
(:meth:`Tracer.patch`); no span lives inside the program.  Each call
becomes a span keyed by its full parent path, so one function called
under two parents (``DatasetJournal.append`` under the monitor poll and
under the liker crawl) stays two spans.  A span's self time is its
duration minus the time its child spans cover.  Spans stay in memory
until the child reports them as :meth:`Tracer.records`.
"""

from __future__ import annotations

import functools
import inspect
import time  # repro-lint: allow-DET001 benchmark timers; no simulated quantity reads them
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(metric name, fn(result, call args) -> amount)``: a count a wrapped
#: call adds to once it returns, outside its span.
Tally = Tuple[str, Callable[[object, tuple], float]]


def clock() -> float:
    """CLOCK_MONOTONIC seconds.

    One system-wide clock, so a reading taken in the parent before a
    child starts can be subtracted from one taken inside the child.
    """
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # repro-lint: allow-DET001 benchmark timer


def thread_clock() -> float:
    """CPU seconds of the calling thread."""
    return time.thread_time()


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self, clock: Callable[[], float] = clock) -> None:
        self._clock = clock
        #: path -> [calls, total seconds, self seconds]
        self.spans: Dict[Tuple[str, ...], List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[list] = []  # [path, start, seconds covered by children]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ()
        self._stack.append([parent + (name,), self._clock(), 0.0])

    def exit(self) -> None:
        path, start, covered = self._stack.pop()
        duration = self._clock() - start
        span = self.spans.setdefault(path, [0, 0.0, 0.0])
        span[0] += 1
        span[1] += duration
        span[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable, tally: Optional[Tally] = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if tally is not None:
                metric, amount = tally
                self.counts[metric] = self.counts.get(metric, 0) + amount(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, tally: Optional[Tally] = None) -> None:
        """Replace ``owner.attr`` (function, method, class- or staticmethod)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, tally)))
        else:
            setattr(owner, attr, self.wrap(name, raw, tally))

    def records(self) -> List[Dict]:
        """Every span as a JSON-ready dict, in first-seen order."""
        return [
            {"path": list(path), "calls": int(calls), "total_s": total, "self_s": own}
            for path, (calls, total, own) in self.spans.items()
        ]


def by_name(records: Iterable[Dict]) -> Dict[str, Dict[str, float]]:
    """Sum calls, total and self seconds over every path ending in a name."""
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = totals.setdefault(
            record["path"][-1], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for key in entry:
            entry[key] += record[key]
    return totals


def unattributed_frac(records: Iterable[Dict], root: str) -> float:
    """Root self time over root total: the share no wrapped layer covers."""
    total = own = 0.0
    for record in records:
        if record["path"] == [root]:
            total += record["total_s"]
            own += record["self_s"]
    return own / total if total else 0.0
