"""Tests for the discrete-event kernel."""

import pytest

from repro.hw.events import Simulator


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now_ns == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append("c"))
        sim.schedule(10, lambda: fired.append("a"))
        sim.schedule(20, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_is_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(5, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(42, lambda: None)
        sim.run()
        assert sim.now_ns == 42

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.schedule(100, lambda: fired.append(2))
        sim.run(until_ns=50)
        assert fired == [1]
        assert sim.now_ns == 50
        assert sim.pending == 1

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_rescheduling_from_callback(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now_ns)
            if len(fired) < 3:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        sim.run()
        assert fired == [10, 20, 30]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(50, lambda: fired.append(sim.now_ns))
        sim.run()
        assert fired == [50]

    def test_advance_window(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.schedule(30, lambda: fired.append(2))
        sim.advance(15)
        assert fired == [1] and sim.now_ns == 15

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        executed = sim.run(max_events=100)
        assert executed == 100

    def test_step_empty_returns_false(self):
        assert Simulator().step() is False


class TestWorkAndObservers:
    def test_cancel_twice_leaves_pending_unchanged(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending == 2
        handle.cancel()
        assert sim.pending == 1
        handle.cancel()
        assert sim.pending == 1

    def test_cancel_after_run_leaves_pending_unchanged(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until_ns=15)
        assert sim.pending == 1
        handle.cancel()
        assert sim.pending == 1
        assert sim.run() == 1 and sim.pending == 0

    def test_ticks_are_not_pending_work(self):
        sim = Simulator()
        sim.every(10, lambda: None)
        assert sim.pending == 0
        assert sim.run() == 0 and sim.now_ns == 0

    def test_run_ends_at_the_last_work_event(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now_ns))
        sim.schedule(35, lambda: None)
        sim.run()
        assert ticks == [10, 20, 30] and sim.now_ns == 35

    def test_horizon_runs_ticks_without_work(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.now_ns))
        sim.run(until_ns=40)
        assert ticks == [10, 20, 30, 40] and sim.now_ns == 40

    def test_ticker_cancel_stops_ticks_even_from_its_callback(self):
        sim = Simulator()
        ticks = []
        handle = None

        def tick():
            ticks.append(sim.now_ns)
            if len(ticks) == 2:
                handle.cancel()

        handle = sim.every(10, tick)
        sim.run(until_ns=100)
        assert ticks == [10, 20]

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Simulator().every(0, lambda: None)
