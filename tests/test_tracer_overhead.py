"""Micro-tests for the disarmed-sink fast path.

The tracing discipline (see :mod:`repro.obs.tracer`) promises that a
disarmed sink costs two attribute loads and an identity test on the hot
path — no event allocation, no clock read.  A run's disarmed tracer,
flight recorder and audit sink are ``None``.  These tests pin that down
two ways: a real scenario run with nothing armed must leave nothing
armed, and a timed hot loop against a disarmed run's telemetry must
stay within a few percent of the same loop against a telemetry-free
stub.
"""

from __future__ import annotations

import types
from time import perf_counter_ns

from repro.core import NFConfig, NICOS, SNIC
from repro.core.runtime import SNICRuntime
from repro.core.vpp import VPPConfig
from repro.net.packet import Packet
from repro.net.rules import MatchRule
from repro.nf import Monitor
from repro.obs.flight import FlightRecorder
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Tracer

MB = 1024 * 1024


def run_small_scenario(n_packets: int = 10):
    snic = SNIC(n_cores=2, dram_bytes=64 * MB, key_seed=5)
    nic_os = NICOS(snic)
    vnic = nic_os.NF_create(NFConfig(
        name="mon", core_ids=(0,), memory_bytes=4 * MB,
        vpp=VPPConfig(rules=[MatchRule()])))
    runtime = SNICRuntime(snic)
    runtime.attach(vnic.nf_id, Monitor())
    packets = []
    for i in range(n_packets):
        p = Packet.make("10.0.0.1", "20.0.0.1", src_port=1000 + i,
                        dst_port=80)
        p.arrival_ns = (i + 1) * 1_000
        packets.append(p)
    runtime.inject(packets)
    stats = runtime.run()
    nic_os.NF_destroy(vnic.nf_id)
    return stats


class TestDisabledPathAllocatesNothing:
    def test_full_scenario_records_zero_events(self, telemetry):
        stats = run_small_scenario()
        assert stats.completed == 10
        # The hot layers (cores, cache, bus, dma, accelerators, runtime,
        # NIC OS lifecycle) all ran — and armed nothing to record into.
        assert telemetry.tracer is None
        assert telemetry.flight is None
        assert telemetry.audit is None

    def test_disabled_span_is_one_shared_object(self):
        # Disarmed, every run's tracer is the one shared None: nothing
        # is allocated per run or per call.
        assert Telemetry().tracer is Telemetry().tracer is None

    def test_disabled_complete_and_instant_record_nothing(self, telemetry):
        from repro.hw.cores import ProgrammableCore
        from repro.hw.memory import PhysicalMemory

        core = ProgrammableCore(0, PhysicalMemory(64 * 4096))
        core.record_stalls(10)  # instant hook, disarmed: goes nowhere
        tracer = Tracer()
        telemetry.arm(tracer=tracer)
        assert tracer.events == []
        core.record_stalls(10)
        assert [e.name for e in tracer.events] == ["core.stall"]


class _StubTelemetry:
    """Telemetry-free baseline: the sinks are constant ``None`` class
    attributes, guarded exactly as the hot-path discipline guards a
    run's disarmed sinks."""

    tracer = None
    flight = None


def hot_loop(telemetry, n: int) -> int:
    """A hot loop instrumented exactly like the simulation layers:
    ``tracer = telemetry.tracer; if tracer is not None:`` guarding
    every emission."""
    acc = 0
    for i in range(n):
        tracer = telemetry.tracer
        if tracer is not None:
            tracer.complete("op", i, 10.0, tenant=1, track="t", cat="core")
        acc += (i * 3) ^ (i >> 2)
    return acc


class TestDisabledPathTiming:
    def test_disabled_tracer_within_5pct_of_stub(self):
        real = Telemetry()
        stub = _StubTelemetry()
        n = 50_000

        # Warm up both paths so the comparison sees steady-state code.
        hot_loop(real, n)
        hot_loop(stub, n)

        # Interleaved min-of-N: alternate the two variants within each
        # round so scheduler noise hits both equally; the minimum over
        # rounds estimates the noise-free cost of each path.  Retry the
        # whole measurement a few times before declaring failure so one
        # noisy CI machine burst cannot flake the suite.
        for attempt in range(4):
            best_real = best_stub = float("inf")
            for _ in range(9):
                t0 = perf_counter_ns()
                hot_loop(real, n)
                best_real = min(best_real, perf_counter_ns() - t0)
                t0 = perf_counter_ns()
                hot_loop(stub, n)
                best_stub = min(best_stub, perf_counter_ns() - t0)
            if best_real <= best_stub * 1.05:
                break
        assert best_real <= best_stub * 1.05, (
            f"disarmed tracer {best_real} ns vs stub {best_stub} ns "
            f"({100.0 * (best_real / best_stub - 1.0):+.1f}%)")

    def test_enabled_tracer_actually_records_in_same_loop(self):
        # Sanity check that the loop above is really on the emit path.
        tracer = Tracer()
        hot_loop(Telemetry().arm(tracer=tracer), 100)
        assert len(tracer.events) == 100


def flight_hot_loop(telemetry, n: int) -> int:
    """A hot loop instrumented exactly like the audit/flight hooks:
    ``flight = telemetry.flight; if flight is not None:`` guarding
    every emission."""
    acc = 0
    for i in range(n):
        flight = telemetry.flight
        if flight is not None:
            flight.record("audit", "memory.scrub", ts_ns=float(i),
                          tenant=1, args={"pages": 4})
        acc += (i * 3) ^ (i >> 2)
    return acc


class TestDisabledFlightRecorder:
    def test_disabled_recorder_records_nothing(self, telemetry):
        flight_hot_loop(telemetry, 100)  # disarmed: nothing recorded
        recorder = FlightRecorder()
        telemetry.arm(flight=recorder)
        assert len(recorder) == 0
        flight_hot_loop(telemetry, 3)
        assert len(recorder) == 3

    def test_disabled_recorder_within_5pct_of_stub(self):
        """The flight recorder inherits the tracer's overhead contract:
        disarmed, its guard is two attribute loads and an identity
        test."""
        real = Telemetry()
        stub = _StubTelemetry()
        n = 50_000

        flight_hot_loop(real, n)
        flight_hot_loop(stub, n)

        # Same interleaved min-of-N + retry discipline as the tracer
        # bound above.
        for attempt in range(4):
            best_real = best_stub = float("inf")
            for _ in range(9):
                t0 = perf_counter_ns()
                flight_hot_loop(real, n)
                best_real = min(best_real, perf_counter_ns() - t0)
                t0 = perf_counter_ns()
                flight_hot_loop(stub, n)
                best_stub = min(best_stub, perf_counter_ns() - t0)
            if best_real <= best_stub * 1.05:
                break
        assert best_real <= best_stub * 1.05, (
            f"disarmed flight recorder {best_real} ns vs stub "
            f"{best_stub} ns "
            f"({100.0 * (best_real / best_stub - 1.0):+.1f}%)")

    def test_enabled_recorder_actually_records_in_same_loop(self):
        flight = FlightRecorder(capacity=1024)
        flight_hot_loop(Telemetry().arm(flight=flight), 100)
        assert len(flight) == 100

    def test_inactive_audit_emitter_is_one_attribute_load(self):
        """The instrumentation sites guard with ``audit =
        self._telemetry.audit; if audit is not None:`` — with both sinks
        disarmed the audit slot is plain None (a slot, no property, no
        call)."""
        telemetry = Telemetry()
        assert telemetry.audit is None
        assert isinstance(Telemetry.__dict__["audit"],
                          types.MemberDescriptorType)
