"""Tests for the event-driven S-NIC runtime."""

import pytest

from repro.core import NFConfig, NICOS, SNIC
from repro.core.runtime import PacketTiming, RuntimeStats, SNICRuntime
from repro.core.vpp import VPPConfig
from repro.net.packet import Packet
from repro.net.rules import MatchRule, Prefix
from repro.nf import Monitor

MB = 1024 * 1024


def make_system():
    snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=95)
    nic_os = NICOS(snic)
    vnic = nic_os.NF_create(
        NFConfig(name="mon", core_ids=(0,), memory_bytes=4 * MB,
                 vpp=VPPConfig(rules=[MatchRule()]))
    )
    return snic, vnic


def timed_packets(n, spacing_ns=1_000):
    out = []
    for i in range(n):
        packet = Packet.make("10.0.0.1", "20.0.0.1", src_port=1000 + i, dst_port=80)
        packet.arrival_ns = (i + 1) * spacing_ns
        out.append(packet)
    return out


class TestRuntime:
    def test_all_packets_complete(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        mon = Monitor()
        runtime.attach(vnic.nf_id, mon)
        runtime.inject(timed_packets(20))
        stats = runtime.run()
        assert stats.completed == 20
        assert stats.dropped == 0
        assert mon.stats.received == 20
        assert len(snic.tx_port.transmitted) == 20

    def test_latencies_positive_and_ordered(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(10))
        stats = runtime.run()
        for timing in stats.timings:
            assert timing.latency_ns > 0
            assert timing.departure_ns > timing.arrival_ns

    def test_latency_includes_poll_and_service(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic, poll_interval_ns=5_000,
                              service_ns_per_packet=1_000)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(1))
        stats = runtime.run()
        # One packet: waits for a poll tick then one service quantum.
        assert stats.timings[0].latency_ns >= 1_000

    def test_percentiles(self):
        stats = RuntimeStats(
            timings=[PacketTiming(1, 0, latency) for latency in
                     (100, 200, 300, 400, 500)]
        )
        assert stats.latency_percentile(0) == 100
        assert stats.latency_percentile(99) == 500

    def test_throughput_positive(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(50, spacing_ns=500))
        stats = runtime.run()
        assert stats.throughput_mpps() > 0

    def test_unmatched_packets_counted_dropped(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=96)
        nic_os = NICOS(snic)
        vnic = nic_os.NF_create(
            NFConfig(name="narrow", core_ids=(0,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule(
                         dst_prefix=Prefix.parse("99.99.99.99/32"))]))
        )
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(5))
        stats = runtime.run()
        assert stats.dropped == 5
        assert stats.completed == 0

    def test_attach_requires_live_function(self):
        snic, _ = make_system()
        runtime = SNICRuntime(snic)
        with pytest.raises(ValueError):
            runtime.attach(999, Monitor())

    def test_duration_bound_run(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(5))
        stats = runtime.run(duration_ns=50_000)
        assert runtime.sim.now_ns <= 50_000 + 1
        assert stats.completed <= 5

    def test_two_functions_served_independently(self):
        snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=97)
        nic_os = NICOS(snic)
        a = nic_os.NF_create(
            NFConfig(name="a", core_ids=(0,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule(
                         dst_prefix=Prefix.parse("20.0.0.0/8"))]))
        )
        b = nic_os.NF_create(
            NFConfig(name="b", core_ids=(1,), memory_bytes=4 * MB,
                     vpp=VPPConfig(rules=[MatchRule(
                         dst_prefix=Prefix.parse("30.0.0.0/8"))]))
        )
        runtime = SNICRuntime(snic)
        mon_a, mon_b = Monitor(), Monitor()
        runtime.attach(a.nf_id, mon_a)
        runtime.attach(b.nf_id, mon_b)
        packets = []
        for i in range(10):
            dst = "20.0.0.1" if i % 2 == 0 else "30.0.0.1"
            packet = Packet.make("10.0.0.1", dst, src_port=2000 + i, dst_port=80)
            packet.arrival_ns = (i + 1) * 1_000
            packets.append(packet)
        runtime.inject(packets)
        stats = runtime.run()
        assert stats.completed == 10
        assert mon_a.stats.received == 5
        assert mon_b.stats.received == 5


def two_tenant_system():
    snic = SNIC(n_cores=2, dram_bytes=128 * MB, key_seed=98)
    nic_os = NICOS(snic)
    ids = []
    for name, core, prefix in (("a", 0, "20.0.0.0/8"), ("b", 1, "30.0.0.0/8")):
        ids.append(nic_os.NF_create(NFConfig(
            name=name, core_ids=(core,), memory_bytes=4 * MB,
            vpp=VPPConfig(rules=[MatchRule(
                dst_prefix=Prefix.parse(prefix))]))).nf_id)
    return snic, ids


def mixed_trace():
    """Arrivals on poll boundaries, between them, at t=0, at the same
    instant for both tenants, and a burst that outlasts one interval."""
    schedule = [("20.0.0.1", t) for t in (2_000, 4_000, 4_000, 16_000)]
    schedule += [("30.0.0.1", t) for t in (0, 2_500, 3_100, 4_000, 9_999)]
    schedule += [("20.0.0.1", 5_000 + 10 * i) for i in range(8)]
    schedule += [("30.0.0.1", 12_001 + 7 * i) for i in range(5)]
    packets = []
    for i, (dst, t) in enumerate(schedule):
        packet = Packet.make("10.0.0.1", dst, src_port=3000 + i, dst_port=80)
        packet.arrival_ns = t
        packets.append(packet)
    return packets


class AlwaysPollingRuntime(SNICRuntime):
    """Reference model: every attached NF polls on every boundary, busy
    or idle, re-arming itself until an explicit horizon."""

    def _on_arrival(self, packet):
        self.snic.rx_port.wire_arrival(packet)
        for nf_id, count in self.snic.process_ingress().items():
            if nf_id == -1:
                self.stats.dropped += count
            else:
                self._arrival_by_identity.setdefault(nf_id, []).extend(
                    [self.sim.now_ns] * count)

    def _poll(self, nf_id):
        super()._poll(nf_id)
        self.sim.schedule(self.poll_interval_ns, lambda: self._poll(nf_id))

    def run_until(self, horizon_ns):
        for nf_id in self._functions:
            self.sim.schedule(self.poll_interval_ns,
                              lambda n=nf_id: self._poll(n))
        self.sim.run(until_ns=horizon_ns)
        return self.stats


def timing_multiset(stats):
    return sorted((t.nf_id, t.arrival_ns, t.departure_ns)
                  for t in stats.timings)


class TestWakeOnEnqueue:
    def test_burst_is_conserved_and_run_ends_idle(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        runtime.attach(vnic.nf_id, Monitor())
        runtime.inject(timed_packets(60, spacing_ns=10))
        stats = runtime.run()
        assert stats.completed + stats.dropped == 60
        assert runtime.sim.pending == 0

    def test_matches_the_always_polling_reference(self):
        results = []
        for cls in (SNICRuntime, AlwaysPollingRuntime):
            snic, ids = two_tenant_system()
            runtime = cls(snic)
            for nf_id in ids:
                runtime.attach(nf_id, Monitor())
            runtime.inject(mixed_trace())
            if cls is SNICRuntime:
                stats = runtime.run()
            else:
                stats = runtime.run_until(200_000)
            results.append(timing_multiset(stats))
        ours, reference = results
        assert len(ours) == len(mixed_trace())
        assert ours == reference

    def test_idle_functions_schedule_no_polls(self):
        snic, ids = two_tenant_system()
        runtime = SNICRuntime(snic)
        for nf_id in ids:
            runtime.attach(nf_id, Monitor())
        packet = Packet.make("10.0.0.1", "20.0.0.1", src_port=1, dst_port=80)
        packet.arrival_ns = 50_000
        runtime.inject([packet])
        # One arrival, one poll (at the 50 us boundary), one completion.
        assert runtime.sim.run() == 3
        assert runtime.stats.timings[0].latency_ns == 600

    def test_detach_cancels_the_pending_poll(self):
        snic, vnic = make_system()
        runtime = SNICRuntime(snic)
        mon = Monitor()
        runtime.attach(vnic.nf_id, mon)
        runtime.inject(timed_packets(1))
        runtime.sim.run(until_ns=1_000)  # delivered, poll due at 2 us
        assert runtime.sim.pending == 1
        assert runtime.detach(vnic.nf_id) is mon
        assert runtime.sim.pending == 0
        assert runtime.run().completed == 0


def p99_of(**knobs):
    snic, ids = two_tenant_system()
    runtime = SNICRuntime(snic, **knobs)
    for nf_id in ids:
        runtime.attach(nf_id, Monitor())
    runtime.inject(mixed_trace())
    return runtime.run().latency_percentile(99)


class TestKnobSensitivity:
    def test_poll_interval_config(self):
        assert p99_of(poll_interval_ns=1_000) < p99_of(poll_interval_ns=2_000) \
            < p99_of(poll_interval_ns=8_000)

    def test_service_time_config(self):
        assert p99_of(service_ns_per_packet=300) \
            < p99_of(service_ns_per_packet=600) \
            < p99_of(service_ns_per_packet=2_400)
