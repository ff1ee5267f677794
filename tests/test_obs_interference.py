"""Per-tenant contention attribution: every shared resource blames the
right culprit for hand-computable waits, and the S-NIC configurations
attribute exactly zero cross-tenant nanoseconds."""

from __future__ import annotations

import pytest

from repro.hw.bus import FCFSArbiter, TemporalPartitioningArbiter
from repro.hw.cache import HARD, Cache, CacheConfig
from repro.hw.cores import ProgrammableCore
from repro.hw.dma import DMAController, DMAWindow
from repro.hw.dram import DRAMChannel
from repro.hw.memory import HostMemory, PhysicalMemory
from repro.obs.interference import (
    RESOURCE_BUS,
    RESOURCE_CACHE,
    RESOURCE_CORES,
    FCFSWaitAttributor,
    blame_matrix,
    cross_tenant_events,
    cross_tenant_wait_ns,
    get_accountant,
)

VICTIM = 1
AGGRESSOR = 2


def cell(resource: str, victim: int, culprit: int):
    """The (victim, culprit) cell of the current registry's matrix."""
    matrix = blame_matrix(resource=resource)
    return matrix.get(resource, {}).get((str(victim), str(culprit)))


# ----------------------------------------------------------------------
# The accountant and matrix plumbing
# ----------------------------------------------------------------------

class TestAccountant:
    def test_blame_lands_in_both_counter_families(self):
        get_accountant().blame("bus", victim=VICTIM, culprit=AGGRESSOR,
                               wait_ns=42.0)
        entry = cell("bus", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 42.0, "events": 1.0}

    def test_blame_accumulates(self):
        acc = get_accountant()
        acc.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=10.0)
        acc.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=5.0,
                  events=3)
        entry = cell("bus", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 15.0, "events": 4.0}

    def test_zero_blame_is_dropped(self):
        get_accountant().blame("bus", victim=VICTIM, culprit=AGGRESSOR,
                               wait_ns=0.0, events=0)
        assert blame_matrix(resource="bus") == {}

    def test_cross_tenant_totals_exclude_self_waits(self):
        acc = get_accountant()
        acc.blame("bus", victim=VICTIM, culprit=VICTIM, wait_ns=100.0)
        acc.blame("bus", victim=VICTIM, culprit=AGGRESSOR, wait_ns=30.0)
        acc.blame("dram", victim=AGGRESSOR, culprit=VICTIM, wait_ns=7.0)
        matrix = blame_matrix()
        assert cross_tenant_wait_ns(matrix) == 37.0
        assert cross_tenant_events(matrix) == 2.0
        assert cross_tenant_wait_ns(matrix, resource="dram") == 7.0


class TestFCFSWaitAttributor:
    def test_wait_is_split_across_occupying_clients(self):
        att = FCFSWaitAttributor("bus")
        att.occupy(AGGRESSOR, 0.0, 100.0)
        # Victim issues at t=10 and cannot start before t=100: the
        # remaining 90 ns of the aggressor's segment are its fault.
        att.attribute(VICTIM, 10.0, 100.0)
        assert cell("bus", VICTIM, AGGRESSOR) == {"wait_ns": 90.0,
                                                  "events": 1.0}

    def test_expired_segments_are_not_blamed(self):
        att = FCFSWaitAttributor("bus")
        att.occupy(AGGRESSOR, 0.0, 100.0)
        att.occupy(VICTIM, 100.0, 150.0)
        # At t=120 the aggressor's segment has fully drained; only the
        # victim's own in-flight transfer still covers the wait.
        att.attribute(VICTIM, 120.0, 150.0)
        assert cell("bus", VICTIM, AGGRESSOR) is None
        assert cell("bus", VICTIM, VICTIM) == {"wait_ns": 30.0,
                                               "events": 1.0}

    def test_no_wait_no_blame(self):
        att = FCFSWaitAttributor("bus")
        att.occupy(AGGRESSOR, 0.0, 100.0)
        att.attribute(VICTIM, 200.0, 200.0)
        assert blame_matrix(resource="bus") == {}


# ----------------------------------------------------------------------
# The bus: FCFS blames the queue owners; temporal partitioning never
# blames across domains.
# ----------------------------------------------------------------------

class TestBusAttribution:
    def test_fcfs_queueing_is_blamed_on_the_aggressor(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=1.0)
        arbiter.request(AGGRESSOR, 100, 0.0)   # occupies [0, 100)
        done = arbiter.request(VICTIM, 50, 10.0)
        assert done == 150.0  # waited until 100, then 50 ns of wire time
        assert cell(RESOURCE_BUS, VICTIM, AGGRESSOR) == {"wait_ns": 90.0,
                                                         "events": 1.0}

    def test_fcfs_self_queueing_is_blamed_on_self(self):
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=1.0)
        arbiter.request(VICTIM, 100, 0.0)
        arbiter.request(VICTIM, 10, 40.0)  # waits 60 ns behind itself
        entry = cell(RESOURCE_BUS, VICTIM, VICTIM)
        assert entry == {"wait_ns": 60.0, "events": 1.0}
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_temporal_partitioning_attributes_zero_cross_tenant(self):
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, AGGRESSOR], bandwidth_bytes_per_ns=1.0,
            epoch_ns=1000.0, dead_time_ns=100.0)
        # The aggressor saturates its own epochs...
        for i in range(8):
            arbiter.request(AGGRESSOR, 2000, i * 500.0)
        # ...and the victim's completions never blame it.
        arbiter.request(VICTIM, 100, 0.0)
        arbiter.request(VICTIM, 100, 2500.0)
        matrix = blame_matrix(resource=RESOURCE_BUS)
        assert cross_tenant_wait_ns(matrix) == 0.0
        assert cross_tenant_events(matrix) == 0.0

    def test_temporal_partitioning_epoch_gap_is_self_blame(self):
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, AGGRESSOR], bandwidth_bytes_per_ns=1.0,
            epoch_ns=1000.0, dead_time_ns=100.0)
        # Issued during the OTHER domain's epoch [1000, 2000): the victim
        # waits until its next epoch at t=2000 — purely structural.
        done = arbiter.request(VICTIM, 100, 1000.0)
        assert done == 2100.0
        entry = cell(RESOURCE_BUS, VICTIM, VICTIM)
        assert entry is not None
        assert entry["wait_ns"] == pytest.approx(1000.0)


# ----------------------------------------------------------------------
# The cache: shared-mode conflict misses blame the evictor; hard
# partitioning makes cross-tenant eviction impossible.
# ----------------------------------------------------------------------

def one_set_cache() -> Cache:
    """ways=2, one set: the smallest geometry where eviction is forced."""
    return Cache(CacheConfig(size_bytes=128, line_bytes=64, ways=2),
                 name="tiny")


class TestCacheAttribution:
    def test_conflict_miss_blames_the_evictor(self):
        cache = one_set_cache()
        cache.access(0, owner=VICTIM)      # tag 0 resident
        cache.access(64, owner=VICTIM)     # tag 1 resident, set full
        cache.access(128, owner=AGGRESSOR)  # evicts the LRU line (tag 0)
        assert cell(RESOURCE_CACHE, VICTIM, AGGRESSOR) is None  # not yet
        hit = cache.access(0, owner=VICTIM)  # the conflict miss
        assert not hit
        entry = cell(RESOURCE_CACHE, VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 60.0, "events": 1.0}

    def test_cold_misses_are_not_interference(self):
        cache = one_set_cache()
        cache.access(0, owner=VICTIM)
        cache.access(64, owner=AGGRESSOR)
        assert blame_matrix(resource=RESOURCE_CACHE) == {}

    def test_self_eviction_is_not_blamed(self):
        cache = one_set_cache()
        for tag in range(3):               # victim thrashes its own set
            cache.access(tag * 64, owner=VICTIM)
        cache.access(0, owner=VICTIM)      # misses on its own eviction
        assert blame_matrix(resource=RESOURCE_CACHE) == {}

    def test_hard_partitioning_attributes_zero_cross_tenant(self):
        cache = Cache(CacheConfig(size_bytes=4096, line_bytes=64, ways=4),
                      name="part")
        cache.set_partitions({VICTIM: 2, AGGRESSOR: 2}, mode=HARD)
        stride = cache.config.n_sets * 64
        victim_ws = [k * stride for k in range(2)]
        for addr in victim_ws:
            cache.access(addr, owner=VICTIM)
        for round_index in range(4):       # aggressor thrashes every set
            for k in range(6):
                cache.access((8 + k) * stride, owner=AGGRESSOR)
            for addr in victim_ws:
                assert cache.access(addr, owner=VICTIM)  # still resident
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_scrub_voids_pending_blame(self):
        cache = one_set_cache()
        cache.access(0, owner=VICTIM)
        cache.access(64, owner=VICTIM)
        cache.access(128, owner=AGGRESSOR)  # eviction remembered
        cache.flush_owner(VICTIM)           # teardown scrub
        cache.access(0, owner=VICTIM)       # cold again, not a conflict
        assert blame_matrix(resource=RESOURCE_CACHE) == {}


# ----------------------------------------------------------------------
# DRAM: one shared channel vs per-tenant bandwidth reservations.
# ----------------------------------------------------------------------

class TestDRAMAttribution:
    def test_shared_channel_blames_the_occupant(self):
        channel = DRAMChannel()
        # 1280 B at 12.8 B/ns + 50 ns access = occupies [0, 150).
        channel.access(AGGRESSOR, 1280, 0.0)
        done = channel.access(VICTIM, 0, 0.0)
        assert done == 200.0  # 150 queue + 50 access latency
        entry = cell("dram", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 150.0, "events": 1.0}

    def test_partitioned_channel_attributes_zero_cross_tenant(self):
        channel = DRAMChannel()
        channel.partition([VICTIM, AGGRESSOR])
        channel.access(AGGRESSOR, 64_000, 0.0)
        done = channel.access(VICTIM, 0, 0.0)
        assert done == 50.0  # pure access latency: aggressor invisible
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_unreserved_tenant_is_rejected_when_partitioned(self):
        channel = DRAMChannel()
        channel.partition([VICTIM])
        with pytest.raises(KeyError):
            channel.access(AGGRESSOR, 64, 0.0)


# ----------------------------------------------------------------------
# DMA: a shared commodity engine serializes banks; per-bank engines
# (S-NIC) are independent by construction.
# ----------------------------------------------------------------------

def configured_controller(shared_engine: bool) -> DMAController:
    controller = DMAController(2, shared_engine=shared_engine)
    window = 16 * 1024
    for bank_id, owner in ((0, VICTIM), (1, AGGRESSOR)):
        controller.bank_for_core(bank_id).configure(
            owner,
            nic_window=DMAWindow(base=bank_id * window, size=window),
            host_window=DMAWindow(base=(2 + bank_id) * window, size=window),
        )
    return controller


class TestDMAAttribution:
    def test_shared_engine_blames_the_other_bank(self):
        controller = configured_controller(shared_engine=True)
        host, nic = HostMemory(1 << 16), PhysicalMemory(1 << 16)
        window = 16 * 1024
        # Aggressor: 8000 B at 8 B/ns occupies the engine for [0, 1000).
        controller.bank_for_core(1).to_nic(
            host, nic, host_addr=3 * window, nic_addr=window,
            n_bytes=8000, now_ns=0.0)
        done = controller.bank_for_core(0).to_nic(
            host, nic, host_addr=2 * window, nic_addr=0,
            n_bytes=800, now_ns=0.0)
        assert done == 1100.0  # 1000 queue + 100 wire
        entry = cell("dma", VICTIM, AGGRESSOR)
        assert entry == {"wait_ns": 1000.0, "events": 1.0}

    def test_per_bank_engines_attribute_zero_cross_tenant(self):
        controller = configured_controller(shared_engine=False)
        host, nic = HostMemory(1 << 16), PhysicalMemory(1 << 16)
        window = 16 * 1024
        controller.bank_for_core(1).to_nic(
            host, nic, host_addr=3 * window, nic_addr=window,
            n_bytes=8000, now_ns=0.0)
        done = controller.bank_for_core(0).to_nic(
            host, nic, host_addr=2 * window, nic_addr=0,
            n_bytes=800, now_ns=0.0)
        assert done == 100.0  # pure wire time, aggressor invisible
        assert cross_tenant_wait_ns(blame_matrix()) == 0.0

    def test_untimed_transfers_skip_the_queueing_model(self):
        controller = configured_controller(shared_engine=True)
        host, nic = HostMemory(1 << 16), PhysicalMemory(1 << 16)
        window = 16 * 1024
        done = controller.bank_for_core(0).to_nic(
            host, nic, host_addr=2 * window, nic_addr=0, n_bytes=64)
        assert done is None
        assert blame_matrix(resource="dma") == {}


# ----------------------------------------------------------------------
# Cores: explicitly attributed stall cycles.
# ----------------------------------------------------------------------

class TestCoreAttribution:
    def test_attributed_stalls_convert_cycles_to_ns(self):
        core = ProgrammableCore(0, PhysicalMemory(4096))
        core.bind(VICTIM)
        core.record_stalls(120.0, culprit=AGGRESSOR)
        entry = cell(RESOURCE_CORES, VICTIM, AGGRESSOR)
        assert entry is not None
        # 120 cycles at 1.2 GHz is exactly 100 ns.
        assert entry["wait_ns"] == pytest.approx(100.0)
        assert entry["events"] == 1.0
        assert core.stall_cycles == 120

    def test_unattributed_stalls_do_not_blame(self):
        core = ProgrammableCore(0, PhysicalMemory(4096))
        core.bind(VICTIM)
        core.record_stalls(500.0)
        assert blame_matrix(resource=RESOURCE_CORES) == {}
        assert core.stall_cycles == 500

    def test_unbound_core_does_not_blame(self):
        core = ProgrammableCore(0, PhysicalMemory(4096))
        core.record_stalls(500.0, culprit=AGGRESSOR)
        assert blame_matrix(resource=RESOURCE_CORES) == {}
