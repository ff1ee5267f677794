"""Tests for repro.obs.windows: sim-time windowed delta aggregation."""

import pytest

from repro.hw.events import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import (
    DEFAULT_PREFIXES,
    WindowedAggregator,
    WindowSnapshot,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestRotation:
    def test_counter_deltas_per_window(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        counter.inc(3)
        agg.rotate(now_ns=100)
        counter.inc(5)
        agg.rotate(now_ns=200)
        assert agg.snapshots[0].counter("slo_events_total", tenant=1) == 3
        assert agg.snapshots[1].counter("slo_events_total", tenant=1) == 5

    def test_pre_start_state_excluded_from_window_zero(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        counter.inc(40)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        counter.inc(2)
        snap = agg.rotate(now_ns=100)
        assert snap.counter("slo_events_total", tenant=1) == 2

    def test_untracked_prefixes_ignored(self, registry):
        sim = Simulator()
        registry.counter("cache_hits_total", tenant=1).inc(9)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        registry.counter("cache_hits_total", tenant=1).inc(9)
        snap = agg.rotate(now_ns=100)
        assert snap.counters == {}

    def test_default_prefixes_cover_slo_and_interference(self):
        assert "slo_" in DEFAULT_PREFIXES
        assert "interference_" in DEFAULT_PREFIXES

    def test_window_indices_and_bounds(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=50, registry=registry)
        agg.start()
        first = agg.rotate(now_ns=50)
        second = agg.rotate(now_ns=120)
        assert (first.index, first.start_ns, first.end_ns) == (0, 0.0, 50.0)
        assert (second.index, second.start_ns, second.end_ns) == \
            (1, 50.0, 120.0)
        assert second.duration_ns == 70.0

    def test_max_windows_prunes_oldest(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=10, registry=registry,
                                 max_windows=3)
        agg.start()
        for i in range(5):
            agg.rotate(now_ns=(i + 1) * 10)
        assert len(agg.snapshots) == 3
        assert agg.windows_dropped == 2
        assert [s.index for s in agg.snapshots] == [2, 3, 4]

    def test_on_rotate_callback_sees_each_snapshot(self, registry):
        sim = Simulator()
        seen = []
        agg = WindowedAggregator(sim, window_ns=10, registry=registry,
                                 on_rotate=seen.append)
        agg.start()
        agg.rotate(now_ns=10)
        agg.rotate(now_ns=20)
        assert [s.index for s in seen] == [0, 1]
        assert all(isinstance(s, WindowSnapshot) for s in seen)

    def test_validation(self, registry):
        sim = Simulator()
        with pytest.raises(ValueError):
            WindowedAggregator(sim, window_ns=0, registry=registry)
        with pytest.raises(ValueError):
            WindowedAggregator(sim, window_ns=10, registry=registry,
                               max_windows=0)


class TestKernelDriven:
    def test_scheduled_rotation_on_sim_time(self, registry):
        sim = Simulator()
        counter = registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        for t in (30, 60, 130, 160):
            sim.schedule_at(t, lambda: counter.inc())
        sim.schedule_at(170, lambda: None)
        sim.run()
        agg.close()
        assert agg.total_counter("slo_events_total", tenant=1) == 4
        assert agg.snapshots[0].end_ns == 100
        assert agg.snapshots[0].counter("slo_events_total", tenant=1) == 2

    def test_cooperative_termination_does_not_spin_kernel(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        sim.schedule_at(250, lambda: None)
        sim.run()
        # After draining, the aggregator must not have kept rescheduling
        # itself forever — the kernel stopped close to the last event.
        assert sim.now_ns <= 400
        assert not sim.pending

    def test_two_observers_stop_with_the_work(self, registry):
        from repro.obs.timeseries import TimeSeriesSampler

        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        sampler = TimeSeriesSampler(sim, interval_ns=70)
        series = sampler.watch("x", lambda: 1.0)
        sampler.start()
        sim.schedule_at(250, lambda: None)
        executed = sim.run(max_events=100_000)
        # 2 rotations + 3 samples + the one work event.
        assert executed == 6
        assert sim.now_ns == 250 and sim.pending == 0
        assert [s.end_ns for s in agg.snapshots] == [100.0, 200.0]
        assert series.times == [0.0, 70.0, 140.0, 210.0]

    def test_start_twice_raises(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        with pytest.raises(RuntimeError):
            agg.start()
        agg.stop()
        assert not agg.running

    def test_close_is_idempotent_and_drops_empty_tail(self, registry):
        sim = Simulator()
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        agg.rotate(now_ns=100)
        agg.close(now_ns=100)
        agg.close(now_ns=100)
        assert len(agg.snapshots) == 1


class TestDeltaHistograms:
    def test_histogram_delta_counts_and_sum(self, registry):
        sim = Simulator()
        hist = registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        hist.observe(500.0)
        hist.observe(1500.0)
        snap1 = agg.rotate(now_ns=100)
        hist.observe(2500.0)
        snap2 = agg.rotate(now_ns=200)
        delta1 = snap1.histogram("slo_latency_ns", tenant=1)
        delta2 = snap2.histogram("slo_latency_ns", tenant=1)
        assert delta1.count == 2 and delta1.sum == 2000.0
        assert delta2.count == 1 and delta2.sum == 2500.0

    def test_untouched_histogram_absent_from_window(self, registry):
        sim = Simulator()
        registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        snap = agg.rotate(now_ns=100)
        assert snap.histogram("slo_latency_ns", tenant=1) is None

    def test_merge_windows_reproduces_cumulative(self, registry):
        sim = Simulator()
        hist = registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        samples = [100.0, 900.0, 4000.0, 12_000.0, 55_000.0, 200.0]
        for i, value in enumerate(samples):
            hist.observe(value)
            if i % 2:
                agg.rotate(now_ns=(i + 1) * 100)
        agg.close(now_ns=1000)
        merged = agg.merged_histogram("slo_latency_ns", tenant=1)
        assert merged.counts == hist.counts
        assert merged.count == hist.count
        assert merged.sum == hist.sum

    def test_delta_extrema_bucket_resolved(self, registry):
        sim = Simulator()
        hist = registry.histogram("slo_latency_ns", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        hist.observe(700.0)
        snap = agg.rotate(now_ns=100)
        delta = snap.histogram("slo_latency_ns", tenant=1)
        # 700 falls in some bucket [lo, hi]: the reconstructed extrema
        # must bracket the sample at bucket resolution.
        assert delta.min <= 700.0 <= delta.max


class TestInterferenceReadThrough:
    def test_cross_tenant_wait_by_victim(self, registry):
        sim = Simulator()
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=1, culprit=2).inc(300.0)
        registry.counter("interference_wait_ns_total", resource="dma",
                         tenant=1, culprit=3).inc(200.0)
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=2, culprit=2).inc(999.0)  # self-wait
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=1, culprit=2).inc(300.0)
        registry.counter("interference_wait_ns_total", resource="dma",
                         tenant=1, culprit=3).inc(200.0)
        registry.counter("interference_wait_ns_total", resource="bus",
                         tenant=2, culprit=2).inc(999.0)
        snap = agg.rotate(now_ns=100)
        assert snap.cross_tenant_wait_by_victim() == {"1": 500.0}

    def test_snapshot_as_dict_is_jsonable(self, registry):
        import json

        sim = Simulator()
        registry.counter("slo_events_total", tenant=1)
        agg = WindowedAggregator(sim, window_ns=100, registry=registry)
        agg.start()
        registry.counter("slo_events_total", tenant=1).inc()
        snap = agg.rotate(now_ns=100)
        payload = json.loads(json.dumps(snap.as_dict()))
        assert payload["index"] == 0
        assert payload["n_counters"] == 1
