"""Tests for the manual transport clock."""

from __future__ import annotations

import pytest

from repro.transport.clock import ManualClock


class TestManualClock:
    def test_timers_fire_in_time_then_insertion_order(self):
        clock = ManualClock()
        fired = []
        clock.call_later(2.0, lambda: fired.append("late"))
        clock.call_later(1.0, lambda: fired.append("early-a"))
        clock.call_later(1.0, lambda: fired.append("early-b"))
        clock.advance(3.0)
        assert fired == ["early-a", "early-b", "late"]
        assert clock.now == pytest.approx(3.0)

    def test_now_is_due_time_inside_callback(self):
        clock = ManualClock()
        seen = []
        clock.call_later(1.5, lambda: seen.append(clock.now))
        clock.advance(10.0)
        assert seen == [pytest.approx(1.5)]

    def test_cancelled_timer_does_not_fire(self):
        clock = ManualClock()
        fired = []
        handle = clock.call_later(1.0, lambda: fired.append(1))
        handle.cancel()
        clock.advance(2.0)
        assert fired == []

    def test_callback_may_reschedule_itself(self):
        clock = ManualClock()
        ticks = []

        def tick():
            ticks.append(clock.now)
            if len(ticks) < 3:
                clock.call_later(1.0, tick)

        clock.call_later(1.0, tick)
        clock.advance(10.0)
        assert ticks == [pytest.approx(t) for t in (1.0, 2.0, 3.0)]

    def test_rejects_negative_delay_and_rewind(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.call_later(-1.0, lambda: None)
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.advance_to(0.5)

