"""Deterministic discrete-event engine.

The queue is a binary heap of ``(time, sequence, event)`` tuples.  The
sequence number breaks ties so that two events scheduled for the same minute
always fire in scheduling order — determinism matters because callbacks draw
from seeded RNG streams.  Sequences are unique, so the heap compares tuples
in C and never reaches the event itself.
"""

from __future__ import annotations

import heapq
import time as _walltime
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sim.clock import SimClock
from repro.util.validation import require

EventCallback = Callable[[int], None]


@dataclass(slots=True)
class ScheduledEvent:
    """A pending event in the engine's queue."""

    time: int
    sequence: int
    callback: EventCallback = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True


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
        self._queue: List[Tuple[int, int, ScheduledEvent]] = []
        self._sequence = 0
        self._fired = 0
        self._skipped_cancelled = 0

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    def schedule(self, time: int, callback: EventCallback, label: str = "") -> ScheduledEvent:
        """Schedule ``callback(time)`` to fire at ``time``.

        ``time`` must not be in the clock's past.
        """
        require(
            time >= self.clock.now,
            f"cannot schedule event at {time} before current time {self.clock.now}",
        )
        event = ScheduledEvent(time=time, sequence=self._sequence, callback=callback, label=label)
        self._sequence += 1
        heapq.heappush(self._queue, (time, event.sequence, event))
        return event

    def schedule_after(self, delay: int, callback: EventCallback, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` minutes from now."""
        require(delay >= 0, "delay must be >= 0")
        return self.schedule(self.clock.now + delay, callback, label=label)

    def run_until(self, end_time: int) -> None:
        """Fire every event with ``time <= end_time``, then advance the clock.

        The clock finishes exactly at ``end_time`` even if the queue drains
        earlier, so recurring processes observe a consistent end-of-horizon.
        """
        require(end_time >= self.clock.now, "end_time must be >= current time")
        started = _walltime.perf_counter()
        while self._queue and self._queue[0][0] <= end_time:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._skipped_cancelled += 1
                continue
            self.clock.advance_to(event.time)
            self._fired += 1
            event.callback(event.time)
        self.clock.advance_to(end_time)
        self._flush_metrics(started)

    def run(self) -> None:
        """Fire all remaining events in order."""
        started = _walltime.perf_counter()
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._skipped_cancelled += 1
                continue
            self.clock.advance_to(event.time)
            self._fired += 1
            event.callback(event.time)
        self._flush_metrics(started)

    # -- checkpoint support -------------------------------------------------------

    def queue_signature(self) -> List[List]:
        """The live queue as ``[time, sequence, label]`` rows, heap-order-free.

        Callbacks are closures and cannot be serialised; the signature is
        what a checkpoint *can* capture — enough to verify that a rebuilt
        engine carries exactly the same pending work.
        """
        return sorted(
            [event.time, event.sequence, event.label]
            for _, _, event in self._queue
            if not event.cancelled
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
