"""Tests for repro.sim.process."""

import pytest

from repro.sim.engine import EventEngine
from repro.sim.process import RecurringProcess
from repro.util.validation import ValidationError


def make_process(engine, ticks, policy):
    return RecurringProcess(engine, action=ticks.append, interval_policy=policy)


class TestRecurringProcess:
    def test_fixed_interval_until_none(self):
        engine = EventEngine()
        ticks = []
        proc = make_process(engine, ticks, lambda t: 10 if t < 30 else None)
        proc.start(at=0)
        engine.run()
        assert ticks == [0, 10, 20, 30]
        assert proc.stopped
        assert proc.tick_count == 4

    def test_variable_interval(self):
        engine = EventEngine()
        ticks = []
        # 5-minute cadence early, 20-minute later, stop past 60
        def policy(t):
            if t >= 60:
                return None
            return 5 if t < 20 else 20

        proc = make_process(engine, ticks, policy)
        proc.start(at=0)
        engine.run()
        assert ticks == [0, 5, 10, 15, 20, 40, 60]

    def test_stop_cancels_pending(self):
        engine = EventEngine()
        ticks = []
        proc = make_process(engine, ticks, lambda t: 10)
        proc.start(at=0)
        engine.run_until(25)
        proc.stop()
        engine.run_until(100)
        assert ticks == [0, 10, 20]
        assert proc.stopped

    def test_double_start_rejected(self):
        engine = EventEngine()
        proc = make_process(engine, [], lambda t: 10)
        proc.start(at=0)
        with pytest.raises(ValidationError):
            proc.start(at=5)

    def test_non_positive_interval_rejected(self):
        engine = EventEngine()
        proc = make_process(engine, [], lambda t: 0)
        proc.start(at=0)
        with pytest.raises(ValidationError):
            engine.run()

    def test_start_later(self):
        engine = EventEngine()
        ticks = []
        proc = make_process(engine, ticks, lambda t: None)
        proc.start(at=42)
        engine.run()
        assert ticks == [42]

    def test_stop_inside_own_tick_schedules_nothing(self):
        engine = EventEngine()
        ticks = []

        def action(time):
            ticks.append(time)
            if time == 20:
                proc.stop()

        proc = RecurringProcess(engine, action=action, interval_policy=lambda t: 10)
        proc.start(at=0)
        engine.run_until(25)
        assert ticks == [0, 10, 20]
        assert proc.stopped
        assert engine.pending == 0
        assert engine.queue_signature() == []
        assert engine.fired == 3
        engine.run()
        assert engine.fired == 3
