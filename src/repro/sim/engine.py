"""Deterministic discrete-event engine.

The queue is a binary heap of ``(time, sequence, callback, label)``
tuples, and a tuple is all an event is.  The sequence number breaks ties
so that two events scheduled for the same minute always fire in
scheduling order — determinism matters because callbacks draw from
seeded RNG streams.  Sequences are unique, so the heap compares tuples in
C and never reaches the callback.  :meth:`EventEngine.schedule` returns
the sequence, and the sequence is the handle :meth:`EventEngine.cancel`
takes.
"""

from __future__ import annotations

import heapq
import time as _walltime
from typing import Callable, List, Optional, Set, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sim.clock import SimClock
from repro.util.validation import ValidationError, require

EventCallback = Callable[[int], None]

#: One queued event: ``(time, sequence, callback, label)``.
Event = Tuple[int, int, EventCallback, str]


class EventEngine:
    """A minimal deterministic event loop over a :class:`SimClock`.

    >>> engine = EventEngine()
    >>> fired = []
    >>> _ = engine.schedule(10, lambda t: fired.append(t))
    >>> engine.run()
    >>> fired
    [10]
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._queue: List[Event] = []
        # repro-lint: allow-CKPT002 replay-derived like the queue it marks: deterministic replay cancels the same sequences again, and the snapshot's queue signature already leaves them out
        self._cancelled: Set[int] = set()  # queued sequences to skip
        self._sequence = 0
        self._fired = 0
        self._skipped_cancelled = 0

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return len(self._queue) - len(self._cancelled)

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    def schedule(self, time: int, callback: EventCallback, label: str = "") -> int:
        """Schedule ``callback(time)`` to fire at ``time``; returns its sequence.

        ``time`` must not be in the clock's past.
        """
        if not time >= self.clock.now:
            raise ValidationError(
                f"cannot schedule event at {time} before current time {self.clock.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (time, sequence, callback, label))
        return sequence

    def schedule_after(self, delay: int, callback: EventCallback, label: str = "") -> int:
        """Schedule ``callback`` ``delay`` minutes from now."""
        require(delay >= 0, "delay must be >= 0")
        return self.schedule(self.clock.now + delay, callback, label=label)

    def cancel(self, sequence: int) -> None:
        """Skip the queued event ``sequence`` when its time comes.

        A sequence that already fired, was never scheduled or is already
        cancelled is left alone.  Cancels are rare (a stopped process),
        so finding the event scans the queue rather than indexing it on
        every schedule.
        """
        if any(queued[1] == sequence for queued in self._queue):
            self._cancelled.add(sequence)

    def run_until(self, end_time: int) -> None:
        """Fire every event with ``time <= end_time``, then advance the clock.

        The clock finishes exactly at ``end_time`` even if the queue drains
        earlier, so recurring processes observe a consistent end-of-horizon.
        """
        require(end_time >= self.clock.now, "end_time must be >= current time")
        started = _walltime.perf_counter()
        self._dispatch(end_time)
        self.clock.advance_to(end_time)
        self._flush_metrics(started)

    def run(self) -> None:
        """Fire all remaining events in order; the clock stays at the last one."""
        started = _walltime.perf_counter()
        self._dispatch(float("inf"))
        self._flush_metrics(started)

    def _dispatch(self, end_time: float) -> None:
        """The one dispatch loop: fire queued events up to ``end_time``."""
        queue = self._queue
        cancelled = self._cancelled
        advance_to = self.clock.advance_to
        pop = heapq.heappop
        while queue and queue[0][0] <= end_time:
            time, sequence, callback, _ = pop(queue)
            if sequence in cancelled:
                cancelled.remove(sequence)
                self._skipped_cancelled += 1
                continue
            advance_to(time)
            self._fired += 1
            callback(time)

    # -- checkpoint support -------------------------------------------------------

    def queue_signature(self) -> List[List]:
        """The live queue as ``[time, sequence, label]`` rows, heap-order-free.

        Callbacks are closures and cannot be serialised; the signature is
        what a checkpoint *can* capture — enough to verify that a rebuilt
        engine carries exactly the same pending work.
        """
        cancelled = self._cancelled
        return sorted(
            [time, sequence, label]
            for time, sequence, _, label in self._queue
            if sequence not in cancelled
        )

    def state_dict(self) -> dict:
        """Engine state as plain types: clock, counters, queue signature."""
        return {
            "clock": self.clock.state_dict(),
            "sequence": self._sequence,
            "fired": self._fired,
            "skipped_cancelled": self._skipped_cancelled,
            "queue": self.queue_signature(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters/clock from a state captured by :meth:`state_dict`.

        Pending callbacks cannot be reconstructed from a snapshot, so the
        engine refuses to load a state whose queue signature differs from
        its own: the caller must first rebuild the schedule (by replaying
        the deterministic run that produced it), after which loading makes
        the stored counters authoritative.
        """
        require(
            state["queue"] == self.queue_signature(),
            "engine queue signature mismatch: the snapshot's pending events "
            "do not match this engine's (replay diverged or state is stale)",
        )
        require(
            state["sequence"] == self._sequence,
            f"engine sequence mismatch: snapshot has {state['sequence']}, "
            f"engine has {self._sequence}",
        )
        self.clock.load_state_dict(state["clock"])
        self._fired = int(state["fired"])
        self._skipped_cancelled = int(state["skipped_cancelled"])

    def _flush_metrics(self, started: float) -> None:
        """Batch-publish loop totals once per run, not once per event.

        The dispatch loop is the hottest path in the simulator (hundreds of
        thousands of events at paper scale), so instrumentation happens in
        bulk on exit: gauges carry the cumulative deterministic totals,
        while the wall-clock cost of the dispatch loop itself goes to the
        (non-deterministic) timings section.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.set_gauge("sim.events_scheduled", self._sequence)
        metrics.set_gauge("sim.events_fired", self._fired)
        metrics.set_gauge("sim.events_cancelled_skipped", self._skipped_cancelled)
        metrics.set_gauge("sim.events_pending", self.pending)
        metrics.set_gauge("sim.virtual_minutes", self.clock.now)
        metrics.observe("sim.dispatch", _walltime.perf_counter() - started)
