"""Tests for repro.sim.engine and repro.sim.clock."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.util.validation import ValidationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_custom_start(self):
        assert SimClock(start=100).now == 100

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(50)
        assert clock.now == 50

    def test_no_rewind(self):
        clock = SimClock(start=10)
        with pytest.raises(ValidationError):
            clock.advance_to(5)

    def test_advance_to_same_time_ok(self):
        clock = SimClock(start=10)
        clock.advance_to(10)
        assert clock.now == 10

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError):
            SimClock(start=-1)


class TestEventEngine:
    def test_fires_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(30, lambda t: fired.append(("c", t)))
        engine.schedule(10, lambda t: fired.append(("a", t)))
        engine.schedule(20, lambda t: fired.append(("b", t)))
        engine.run()
        assert fired == [("a", 10), ("b", 20), ("c", 30)]

    def test_ties_fire_in_schedule_order(self):
        engine = EventEngine()
        fired = []
        for name in "abc":
            engine.schedule(5, lambda t, n=name: fired.append(n))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_stops_and_advances_clock(self):
        engine = EventEngine()
        fired = []
        engine.schedule(10, fired.append)
        engine.schedule(100, fired.append)
        engine.run_until(50)
        assert fired == [10]
        assert engine.clock.now == 50
        engine.run_until(100)
        assert fired == [10, 100]

    def test_run_until_boundary_inclusive(self):
        engine = EventEngine()
        fired = []
        engine.schedule(50, fired.append)
        engine.run_until(50)
        assert fired == [50]

    def test_cannot_schedule_in_past(self):
        engine = EventEngine()
        engine.schedule(10, lambda t: None)
        engine.run_until(20)
        with pytest.raises(ValidationError):
            engine.schedule(5, lambda t: None)

    def test_schedule_after(self):
        engine = EventEngine()
        engine.run_until(40)
        fired = []
        engine.schedule_after(10, fired.append)
        engine.run()
        assert fired == [50]

    def test_cancel(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule(10, fired.append)
        engine.cancel(event)
        engine.run()
        assert fired == []
        assert engine.fired == 0

    def test_pending_counts_uncancelled(self):
        engine = EventEngine()
        keep = engine.schedule(10, lambda t: None)
        drop = engine.schedule(20, lambda t: None)
        engine.cancel(drop)
        assert engine.pending == 1
        del keep

    def test_events_scheduled_during_run(self):
        engine = EventEngine()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 30:
                engine.schedule(t + 10, chain)

        engine.schedule(10, chain)
        engine.run()
        assert fired == [10, 20, 30]

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_property_all_events_fire_in_order(self, times):
        engine = EventEngine()
        fired = []
        for t in times:
            engine.schedule(t, fired.append)
        engine.run()
        assert fired == sorted(times)
        assert engine.fired == len(times)


class TestStateDict:
    def _engine_with_history(self):
        engine = EventEngine()
        fired = []
        for t in (10, 20, 30, 40):
            engine.schedule(t, fired.append)
        engine.run_until(25)
        return engine, fired

    def test_round_trip_restores_clock_and_counters(self):
        engine, _ = self._engine_with_history()
        state = engine.state_dict()
        rebuilt = EventEngine()
        fired = []
        for t in (10, 20, 30, 40):
            rebuilt.schedule(t, fired.append)
        rebuilt.run_until(25)  # deterministic replay rebuilds the queue...
        rebuilt.load_state_dict(state)  # ...and the state loads over it
        assert rebuilt.clock.now == engine.clock.now
        assert rebuilt.fired == engine.fired
        rebuilt.run()
        assert fired == [10, 20, 30, 40]

    def test_state_is_json_pure(self):
        import json

        engine, _ = self._engine_with_history()
        state = engine.state_dict()
        assert json.loads(json.dumps(state)) == state

    def test_load_refuses_a_different_queue(self):
        engine, _ = self._engine_with_history()
        state = engine.state_dict()
        other = EventEngine()
        other.schedule(99, lambda t: None)
        with pytest.raises(ValidationError):
            other.load_state_dict(state)

    def test_queue_signature_ignores_cancelled_events(self):
        engine = EventEngine()
        keep = engine.schedule(10, lambda t: None)
        drop = engine.schedule(20, lambda t: None)
        signature_with = engine.queue_signature()
        engine.cancel(drop)
        assert engine.queue_signature() != signature_with
        assert len(engine.queue_signature()) == 1
        del keep
