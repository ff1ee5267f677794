"""The flight recorder: ring semantics, sim-time windowing, tracer
mirroring, and arming on a run."""

from __future__ import annotations

from repro.obs.flight import DEFAULT_RING_CAPACITY, FlightRecorder
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Tracer


class TestRingSemantics:
    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(50):
            recorder.record("event", f"e{i}", ts_ns=float(i))
        assert len(recorder) == 8
        assert [e.name for e in recorder.entries()] == \
            [f"e{i}" for i in range(42, 50)]

    def test_window_evicts_by_sim_age(self):
        recorder = FlightRecorder(capacity=100, window_ns=10.0)
        for ts in (0.0, 2.0, 5.0, 11.0, 14.0):
            recorder.record("event", f"t{ts}", ts_ns=ts)
        # now=14, window=10 → entries with ts < 4 are gone.
        assert [e.ts_ns for e in recorder.entries()] == [5.0, 11.0, 14.0]

    def test_tail_returns_json_ready_dicts(self):
        recorder = FlightRecorder()
        recorder.record("audit", "tlb.install", ts_ns=3.0, tenant=1,
                        track="audit", args={"bank": "c0"})
        (entry,) = recorder.tail()
        assert entry == {"kind": "audit", "name": "tlb.install",
                         "ts_ns": 3.0, "tenant": 1, "track": "audit",
                         "args": {"bank": "c0"}}

    def test_tail_n_takes_the_most_recent(self):
        recorder = FlightRecorder()
        for i in range(10):
            recorder.record("event", f"e{i}", ts_ns=float(i))
        assert [e["name"] for e in recorder.tail(3)] == ["e7", "e8", "e9"]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_RING_CAPACITY

    def test_internal_tick_advances_without_a_clock(self):
        recorder = FlightRecorder()
        recorder.record("event", "a")
        recorder.record("event", "b")
        ts = [e.ts_ns for e in recorder.entries()]
        assert ts == sorted(ts) and len(set(ts)) == 2


class TestDisabledNoOp:
    def test_disabled_record_is_a_no_op(self, telemetry):
        # A disarmed run routes a component's security events nowhere;
        # a recorder armed afterwards holds only what follows.
        from repro.hw.mmu import TLB

        tlb = TLB(name="core0")
        tlb.lock()
        recorder = FlightRecorder()
        telemetry.arm(flight=recorder)
        assert len(recorder) == 0
        tlb.clear(force=True)
        assert [e.name for e in recorder.entries()] == ["tlb.clear"]


class TestTracerMirror:
    def test_enable_attaches_mirror_and_disable_detaches(self):
        telemetry, tracer, recorder = Telemetry(), Tracer(), FlightRecorder()
        telemetry.arm(tracer=tracer, flight=recorder)
        assert tracer.mirror is recorder
        telemetry.arm(flight=None)
        assert tracer.mirror is None

    def test_tracer_events_are_mirrored_into_the_ring(self):
        recorder = FlightRecorder()
        tracer = Tracer(clock=lambda: 100)
        Telemetry().arm(tracer=tracer, flight=recorder)
        tracer.instant("pkt.drop", tenant=3, track="net")
        tracer.complete("dma.xfer", ts_ns=50, dur_ns=10, tenant=1)
        tracer.counter_sample("queue_depth", 4.0)
        kinds = [(e.kind, e.name) for e in recorder.entries()]
        assert ("event", "pkt.drop") in kinds
        assert ("span", "dma.xfer") in kinds
        assert ("counter", "queue_depth") in kinds

    def test_mirror_keeps_only_the_tail_while_tracer_keeps_all(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer(clock=lambda: 0)
        Telemetry().arm(tracer=tracer, flight=recorder)
        for i in range(20):
            tracer.instant(f"e{i}", tenant=None)
        assert len(tracer.events) == 20
        assert len(recorder) == 4


class TestEnableDisableLifecycle:
    def test_enable_refreshes_the_audit_emitter(self, telemetry):
        recorder = FlightRecorder()
        telemetry.arm(flight=recorder)
        assert telemetry.audit is recorder
        telemetry.arm(flight=None)
        assert telemetry.audit is None

    def test_capacity_override_rebuilds_preserving_entries(self):
        # The ring is a bounded deque: a recorder built with a smaller
        # capacity keeps the newest entries of the same stream.
        big, small = FlightRecorder(), FlightRecorder(capacity=4)
        for recorder in (big, small):
            for i in range(6):
                recorder.record("event", f"e{i}", ts_ns=float(i))
        assert small.capacity == 4
        assert [e.name for e in small.entries()] == \
            [e.name for e in big.entries()][-4:] == ["e2", "e3", "e4", "e5"]

    def test_reset_restores_import_time_state(self):
        # Every run starts from a disarmed state; a recorder armed on a
        # fresh run starts its internal ticks from 1.
        telemetry = Telemetry()
        assert (telemetry.tracer, telemetry.audit_log, telemetry.flight,
                telemetry.audit) == (None, None, None, None)
        recorder = FlightRecorder()
        telemetry.arm(flight=recorder)
        assert recorder.window_ns is None
        recorder.record("event", "y")
        assert recorder.entries()[0].ts_ns == 1.0
