"""A small deterministic discrete-event simulation kernel.

Everything that *happens over time* in the reproduction — ad impressions,
farm like deliveries, crawler polls, the termination sweep — is scheduled on
one :class:`EventEngine` so that a whole multi-week measurement study runs in
milliseconds while preserving exact event ordering.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.process import RecurringProcess

__all__ = ["EventEngine", "RecurringProcess", "SimClock"]
