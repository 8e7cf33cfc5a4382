"""Tests for the virtual clock."""

from __future__ import annotations

from repro.obs import Observer
from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_clock_advances_with_events(self):
        # The clock moves forward to each record's time and never back.
        engine = SimulationEngine()
        engine.advance(2.5)
        assert engine.now == 2.5
        engine.advance(1.0)
        assert engine.now == 2.5
        engine.advance(4.0)
        assert engine.now == 4.0


class TestExecution:
    def test_run_returns_fired_count(self):
        # Nothing is ever scheduled: a run fires no event, and says so.
        observer = Observer(time_source=lambda: 0.0)
        engine = SimulationEngine(observer=observer)
        engine.advance(3.0)
        assert engine.run() == 0
        assert engine.now == 3.0
        assert observer.registry.counter("sim.events_fired").value == 0.0
        assert observer.registry.gauge("sim.virtual_time").value == 3.0
        assert observer.registry.histogram("profile.sim_run").count == 1
        events = [e for e in observer.sink.events if e.type == "sim.run"]
        assert [(e.fields["fired"], e.fields["now"]) for e in events] == [(0, 3.0)]

    def test_step_on_empty_queue(self):
        assert SimulationEngine().step() is False
