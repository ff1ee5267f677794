"""Tests for repro.obs: the span/event tracer and Chrome-trace export."""

import json

import pytest

from repro.obs.chrome_trace import INFRA_PID, to_chrome_trace, write_chrome_trace
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import TraceEvent, Tracer


class TestDisabledFastPath:
    def test_disabled_by_default(self, telemetry):
        assert telemetry.tracer is None
        assert Telemetry().tracer is None

    def test_disabled_span_is_shared_noop_singleton(self, telemetry):
        """The disabled path must not allocate: a disarmed tracer is the
        shared ``None`` in every run, never a per-run no-op object."""
        assert telemetry.tracer is None
        assert Telemetry().tracer is Telemetry().tracer

    def test_disabled_records_nothing(self, telemetry):
        """A component built while the tracer is disarmed records
        nothing, then records into a tracer armed afterwards."""
        from repro.hw.cache import Cache, CacheConfig

        cache = Cache(CacheConfig(size_bytes=8192, ways=4), name="l2t")
        cache.access(0, owner=1)
        tracer = Tracer()
        telemetry.arm(tracer=tracer)
        cache.access(64, owner=2)
        assert [s.tenant for s in tracer.spans("cache.miss")] == [2]

    def test_noop_span_accepts_annotations(self):
        tracer = Tracer()
        with tracer.span("s", tenant=1) as span:
            span.annotate(key="value")
        (event,) = tracer.events
        assert event.args == {"key": "value"}


class TestSpans:
    def test_span_nesting_containment(self):
        tracer = Tracer()
        with tracer.span("outer", tenant=1, track="t"):
            with tracer.span("inner", tenant=1, track="t"):
                pass
        inner, outer = tracer.events  # inner exits (and records) first
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.ts_ns <= inner.ts_ns
        assert inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns

    def test_span_annotations_recorded(self):
        tracer = Tracer()
        with tracer.span("s", tenant=4, frames=3) as span:
            span.annotate(bytes=64)
        event = tracer.events[0]
        assert event.args == {"frames": 3, "bytes": 64}
        assert event.tenant == 4

    def test_complete_with_explicit_timestamps(self):
        tracer = Tracer()
        tracer.complete("bus.transfer", 100.0, 40.0, tenant=2, track="bus",
                        cat="bus", bytes=512)
        event = tracer.events[0]
        assert event.ph == "X"
        assert event.ts_ns == 100.0 and event.dur_ns == 40.0
        assert event.track == "bus" and event.args["bytes"] == 512

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.complete("x", 10.0, -5.0)
        assert tracer.events[0].dur_ns == 0.0

    def test_instant_and_counter(self):
        tracer = Tracer()
        tracer.instant("drop", tenant=1, track="rx")
        tracer.counter_sample("depth", 7, tenant=1, track="rx")
        drop, depth = tracer.events
        assert drop.ph == "i"
        assert depth.ph == "C" and depth.args == {"value": 7}

    def test_bound_clock_drives_timestamps(self):
        now = {"t": 500.0}
        tracer = Tracer(clock=lambda: now["t"])
        with tracer.span("s"):
            now["t"] = 800.0
        event = tracer.events[0]
        assert event.ts_ns == 500.0 and event.dur_ns == 300.0

    def test_fallback_clock_is_monotonic_ticks(self):
        tracer = Tracer()
        first, second = tracer.now(), tracer.now()
        assert second > first

    def test_drain_and_clear(self):
        tracer = Tracer()
        tracer.instant("a")
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0
        tracer.instant("b")
        tracer.clear()
        assert len(tracer) == 0

    def test_query_helpers(self):
        tracer = Tracer()
        tracer.complete("a", 0, 1, tenant=2, track="bus")
        tracer.complete("b", 0, 1, tenant=1, track="l2")
        tracer.instant("c", track="bus")
        assert [e.name for e in tracer.spans()] == ["a", "b"]
        assert [e.name for e in tracer.spans("a")] == ["a"]
        assert tracer.tracks() == ["bus", "l2"]
        assert tracer.tenants() == [1, 2, None]


class TestChromeExport:
    def _demo_tracer(self):
        tracer = Tracer()
        tracer.complete("bus.transfer", 1000.0, 250.0, tenant=1, track="bus",
                        cat="bus", bytes=64)
        tracer.complete("bus.transfer", 2000.0, 250.0, tenant=2, track="bus",
                        cat="bus", bytes=64)
        tracer.instant("cache.scrub", ts_ns=3000.0, tenant=1, track="l2")
        tracer.counter_sample("depth", 3, ts_ns=3500.0, tenant=2, track="ring")
        tracer.complete("boot", 0.0, 10.0, track="mgmt")  # infra, no tenant
        return tracer

    def test_schema_fields(self):
        doc = to_chrome_trace(self._demo_tracer())
        assert "traceEvents" in doc
        for event in doc["traceEvents"]:
            assert event["ph"] in {"X", "i", "C", "M"}
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] != "M":
                assert isinstance(event["ts"], float)
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_ns_converted_to_us(self):
        doc = to_chrome_trace(self._demo_tracer())
        spans = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "bus.transfer"]
        assert spans[0]["ts"] == pytest.approx(1.0)   # 1000 ns = 1 µs
        assert spans[0]["dur"] == pytest.approx(0.25)

    def test_tenants_become_processes_with_names(self):
        doc = to_chrome_trace(self._demo_tracer())
        names = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names[INFRA_PID] == "nic-infra"
        assert "tenant-1" in names.values()
        assert "tenant-2" in names.values()
        # tenant pids never collide with the infra pid
        assert all(pid != INFRA_PID for pid, name in names.items()
                   if name.startswith("tenant-"))

    def test_per_tenant_labels_in_args(self):
        doc = to_chrome_trace(self._demo_tracer())
        spans = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "bus.transfer"]
        assert {s["args"]["tenant"] for s in spans} == {1, 2}

    def test_same_track_same_tid_across_tenants(self):
        """Shared-resource tracks keep one tid so interference lines up."""
        doc = to_chrome_trace(self._demo_tracer())
        spans = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "bus.transfer"]
        assert len({s["tid"] for s in spans}) == 1
        assert len({s["pid"] for s in spans}) == 2

    def test_round_trips_through_json(self, tmp_path):
        path = write_chrome_trace(self._demo_tracer(),
                                  str(tmp_path / "trace.json"))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["otherData"]["generator"] == "repro.obs"
        assert len(doc["traceEvents"]) > 0

    def test_export_accepts_raw_event_list(self):
        events = [TraceEvent(ph="X", name="e", ts_ns=0.0, dur_ns=5.0,
                             tenant=3, track="t")]
        doc = to_chrome_trace(events)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestInstrumentationHooks:
    """End-to-end: arming the run's tracer makes the hw layers emit."""

    @pytest.fixture(autouse=True)
    def _armed(self, telemetry):
        self.tracer = Tracer()
        telemetry.arm(tracer=self.tracer)

    def test_cache_miss_spans_are_tenant_tagged(self):
        from repro.hw.cache import Cache, CacheConfig

        cache = Cache(CacheConfig(size_bytes=8192, ways=4), name="l2t")
        cache.access(0, owner=1)
        cache.access(64, owner=2)
        spans = self.tracer.spans("cache.miss")
        assert {s.tenant for s in spans} == {1, 2}
        assert all(s.track == "l2t" for s in spans)

    def test_bus_transfer_spans(self):
        from repro.hw.bus import FCFSArbiter, IOBus

        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=1.0))
        bus.transfer(5, 100, now_ns=0.0)
        (span,) = self.tracer.spans("bus.transfer")
        assert span.tenant == 5 and span.dur_ns == pytest.approx(100.0)

    def test_accelerator_spans(self):
        from repro.hw.accelerator import (
            AcceleratorCluster, AcceleratorKind, AcceleratorRequest)

        cluster = AcceleratorCluster(AcceleratorKind.DPI, 0, n_threads=2)
        cluster.bind(9)
        cluster.submit(AcceleratorRequest(owner=9, n_bytes=256, issue_ns=0.0))
        (span,) = self.tracer.spans("accel.dpi")
        assert span.tenant == 9 and span.dur_ns > 0

    def test_lifecycle_spans_from_snic(self):
        from repro.core import NFConfig, SNIC

        snic = SNIC(n_cores=2, dram_bytes=64 * 1024 * 1024, key_seed=3)
        nf_id = snic.nf_launch(NFConfig(name="t", core_ids=(0,),
                                        memory_bytes=4 * 1024 * 1024))
        snic.nf_teardown(nf_id)
        names = {s.name for s in self.tracer.spans()}
        assert {"nf_launch", "nf_teardown"} <= names
        launch = self.tracer.spans("nf_launch")[0]
        assert launch.tenant == nf_id and launch.dur_ns > 0


class TestScenario:
    def test_cotenancy_scenario_meets_acceptance(self, tmp_path, telemetry):
        """The `python -m repro trace` payload: valid Chrome JSON with
        spans from >= 3 hardware layers, all tenant-labelled."""
        from repro.obs.scenario import run_cotenancy_scenario

        out = str(tmp_path / "trace.json")
        summary = run_cotenancy_scenario(out_path=out, n_packets=20)
        with open(out) as fh:
            doc = json.load(fh)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        layers = {e["cat"] for e in spans}
        assert {"cache", "bus", "accel"} <= layers
        tenant_labels = {e["args"]["tenant"] for e in spans
                         if "args" in e and "tenant" in e["args"]}
        assert len(tenant_labels) >= 2
        assert summary["events"] == sum(
            1 for e in doc["traceEvents"] if e["ph"] != "M")
        # The scenario's tracer lives on the caller's run.
        assert telemetry.tracer is summary["tracer"]
