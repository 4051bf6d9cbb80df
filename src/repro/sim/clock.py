"""The simulation clock.

Time is an integer count of minutes since the study epoch (see
:mod:`repro.util.timeutil`).  The clock only moves forward; the event engine
is the sole writer in a running experiment.
"""

from __future__ import annotations

from repro.util.timeutil import format_time
from repro.util.validation import ValidationError, require


class SimClock:
    """Monotonic simulated clock.

    >>> clock = SimClock()
    >>> clock.now
    0
    >>> clock.advance_to(120)
    >>> clock.now
    120
    """

    def __init__(self, start: int = 0) -> None:
        require(start >= 0, "start time must be >= 0")
        self._now = start

    @property
    def now(self) -> int:
        """Current simulated time in minutes since the epoch."""
        return self._now

    def advance_to(self, time: int) -> None:
        """Move the clock forward to ``time``.

        Raises if ``time`` is in the past: the simulation never rewinds.
        """
        if not time >= self._now:
            raise ValidationError(
                f"clock cannot move backwards ({format_time(self._now)} -> {time})"
            )
        self._now = time

    # -- checkpoint support -------------------------------------------------------

    def state_dict(self) -> dict:
        """The clock's state (its current minute) as plain types."""
        return {"now": self._now}

    def load_state_dict(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`.

        Restoration still honours monotonicity: a clock can only be
        restored to its own time or a later one, never rewound.
        """
        self.advance_to(int(state["now"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({format_time(self._now)})"
