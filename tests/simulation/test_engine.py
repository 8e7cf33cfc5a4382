"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(3.0, lambda: order.append("c"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.schedule_at(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(1.0, lambda: order.append("first"))
        engine.schedule_at(1.0, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    def test_clock_advances_with_events(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_scheduling_in_the_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="cannot schedule"):
            engine.schedule_at(1.0, lambda: None)


class TestExecution:
    def test_run_returns_fired_count(self):
        engine = SimulationEngine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        assert engine.run() == 5

    def test_run_until_stops_and_advances_clock(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_self_rescheduling_process(self):
        engine = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            if len(ticks) < 5:
                engine.schedule_at(engine.now + 1.0, tick)

        engine.schedule_at(0.0, tick)
        engine.run()
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_runaway_guard(self):
        engine = SimulationEngine()

        def forever():
            engine.schedule_at(engine.now, forever)

        engine.schedule_at(0.0, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run(max_events=100)

    def test_step_on_empty_queue(self):
        assert SimulationEngine().step() is False
