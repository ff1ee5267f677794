"""The gauge view of the windowed series: probes sampled on the
aggregator's rotations (deterministic cadence, observer ticks that end
with the work, aligned export) and the fixed-grid series helpers."""

from __future__ import annotations

import pytest

from repro.hw.events import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import (
    Series,
    WindowedAggregator,
    merge_series_csv,
    sample_function,
)


class TestSeries:
    def test_points_and_latest(self):
        series = Series("x")
        assert series.latest() is None
        series.append(0.0, 1.0)
        series.append(10.0, 2.0)
        assert series.points() == [(0.0, 1.0), (10.0, 2.0)]
        assert series.latest() == (10.0, 2.0)
        assert len(series) == 2


def workload(sim: Simulator, counter: dict, at_ns) -> None:
    for t in at_ns:
        sim.schedule(t, lambda: counter.__setitem__(
            "n", counter["n"] + 1))


def sampler(sim: Simulator, interval_ns: int) -> WindowedAggregator:
    """An aggregator that tracks no registry instruments: gauges only."""
    return WindowedAggregator(sim, window_ns=interval_ns,
                              registry=MetricsRegistry(), prefixes=())


class TestSampler:
    def test_samples_on_the_grid_and_stops_when_idle(self):
        sim = Simulator()
        counter = {"n": 0}
        workload(sim, counter, [300, 1300, 2300, 3300, 4300])
        agg = sampler(sim, interval_ns=1000)
        series = agg.watch("events_seen", lambda: float(counter["n"]))
        agg.start()
        sim.run()  # terminates: rotation ticks are not work
        assert sim.pending == 0 and sim.now_ns == 4300
        assert series.times == [0.0, 1000.0, 2000.0, 3000.0, 4000.0]
        assert series.values == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_until_horizon_keeps_sampling_without_other_work(self):
        sim = Simulator()
        agg = sampler(sim, interval_ns=500)
        series = agg.watch("const", lambda: 7.0)
        agg.start()
        sim.run(until_ns=2000)
        assert series.times == [0.0, 500.0, 1000.0, 1500.0, 2000.0]
        assert all(v == 7.0 for v in series.values)

    def test_two_runs_are_byte_identical(self):
        def one_run() -> str:
            sim = Simulator()
            counter = {"n": 0}
            workload(sim, counter, [300, 1300, 2300])
            agg = sampler(sim, interval_ns=1000)
            agg.watch("events_seen", lambda: float(counter["n"]))
            agg.start()
            sim.run()
            agg.close()
            return agg.to_csv()

        assert one_run() == one_run()

    def test_duplicate_name_rejected(self):
        agg = sampler(Simulator(), interval_ns=100)
        agg.watch("x", lambda: 0.0)
        with pytest.raises(ValueError):
            agg.watch("x", lambda: 1.0)

    def test_double_start_rejected(self):
        agg = sampler(Simulator(), interval_ns=100)
        agg.start()
        with pytest.raises(RuntimeError):
            agg.start()

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            sampler(Simulator(), interval_ns=0)

    def test_csv_rows_are_aligned_and_sorted(self):
        sim = Simulator()
        agg = sampler(sim, interval_ns=100)
        b = agg.watch("b_metric", lambda: 2.0)
        a = agg.watch("a_metric", lambda: 1.0)
        agg.start()
        sim.run(until_ns=200)
        assert a.times == b.times == [0.0, 100.0, 200.0]
        assert agg.to_csv().splitlines() == [
            "time_ns,a_metric,b_metric", "0,1,2", "100,1,2", "200,1,2"]

    def test_stop_cancels_the_pending_tick(self):
        sim = Simulator()
        agg = sampler(sim, interval_ns=100)
        series = agg.watch("x", lambda: 1.0)
        agg.start()
        agg.stop()
        assert not agg.running
        sim.run(until_ns=10_000)  # the cancelled tick must not fire
        assert series.times == [0.0]


class TestSampleFunction:
    def test_grid_is_inclusive_and_accumulation_free(self):
        series = sample_function(lambda t: t, start=0.0, stop=150.0,
                                 step=0.5)
        assert len(series) == 301
        assert series.times[0] == 0.0
        assert series.times[-1] == 150.0  # exact, no fp drift
        assert series.values[100] == series.times[100]

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_function(lambda t: t, 0.0, 1.0, 0.0)


class TestMergeSeriesCsv:
    def test_shared_grid_merges_into_columns(self):
        a = sample_function(lambda t: t, 0.0, 2.0, 1.0, name="a")
        b = sample_function(lambda t: t * 10, 0.0, 2.0, 1.0, name="b")
        csv = merge_series_csv([a, b], time_label="time_s")
        assert csv.splitlines() == ["time_s,a,b", "0,0,0", "1,1,10",
                                    "2,2,20"]

    def test_mismatched_grids_are_rejected(self):
        a = sample_function(lambda t: t, 0.0, 2.0, 1.0, name="a")
        b = sample_function(lambda t: t, 0.0, 2.0, 0.5, name="b")
        with pytest.raises(ValueError):
            merge_series_csv([a, b])

    def test_empty_input(self):
        assert merge_series_csv([]) == "t\n"
