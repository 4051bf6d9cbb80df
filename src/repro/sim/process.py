"""Recurring processes on top of the event engine.

A :class:`RecurringProcess` reschedules itself after each firing with an
interval chosen by a policy callback, which lets the honeypot monitor start
at the paper's two-hour cadence, decay to daily polls after the campaign, and
stop after a quiet week.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventEngine
from repro.util.validation import require

#: Decide the next interval (minutes) after a tick at ``time``; ``None`` stops.
IntervalPolicy = Callable[[int], Optional[int]]


class RecurringProcess:
    """Fires ``action(time)`` repeatedly with policy-controlled intervals.

    >>> from repro.sim.engine import EventEngine
    >>> engine = EventEngine()
    >>> ticks = []
    >>> proc = RecurringProcess(engine, action=ticks.append,
    ...                         interval_policy=lambda t: 10 if t < 30 else None)
    >>> proc.start(at=0)
    >>> engine.run()
    >>> ticks
    [0, 10, 20, 30]
    """

    def __init__(
        self,
        engine: EventEngine,
        action: Callable[[int], None],
        interval_policy: IntervalPolicy,
        label: str = "recurring",
    ) -> None:
        self._engine = engine
        self._action = action
        self._interval_policy = interval_policy
        self._label = label
        self._current: Optional[int] = None  # the pending tick's sequence
        self._stopped = False
        self.tick_count = 0

    @property
    def stopped(self) -> bool:
        """True once the process has stopped (by policy or explicitly)."""
        return self._stopped

    def start(self, at: int) -> None:
        """Schedule the first tick at time ``at``."""
        require(self._current is None and not self._stopped, "process already started")
        self._current = self._engine.schedule(at, self._tick, label=self._label)

    def stop(self) -> None:
        """Cancel any pending tick and stop the process."""
        if self._current is not None:
            self._engine.cancel(self._current)
            self._current = None
        self._stopped = True

    def _tick(self, time: int) -> None:
        self._current = None
        if self._stopped:
            return
        self.tick_count += 1
        self._action(time)
        if self._stopped:  # the action stopped the process
            return
        interval = self._interval_policy(time)
        if interval is None:
            self._stopped = True
            return
        require(interval > 0, "interval policy must return a positive interval or None")
        self._current = self._engine.schedule(time + interval, self._tick, label=self._label)
