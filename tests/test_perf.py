"""Tests for the Figure 5 performance model.

The crown jewel here is the cross-validation test: Che's approximation
(used for the fast parameter sweeps) must agree with the trace-driven
set-associative simulator (:mod:`repro.hw.cache`) on small configs.
"""

import numpy as np
import pytest

from repro.hw.cache import Cache, CacheConfig
from repro.perf.che import (
    LinePopulation,
    che_hit_rates,
    hit_rate,
    miss_traffic,
    solve_characteristic_time,
)
from repro.perf.colocation import (
    ColocationResult,
    NF_NAMES,
    _partner_sets,
    cotenancy_sweep,
    ipc_degradation,
    summary_across_nfs,
)
from repro.perf.ipc import BusModel, IPCModel, LevelCounts
from repro.perf.workloads import (
    KB,
    LINE_BYTES,
    MB,
    NF_ACCESS_MODELS,
    AccessModel,
    RegionAccess,
)


class TestChe:
    def test_infinite_cache_hits_everything(self):
        population = LinePopulation.exact([1.0, 2.0, 3.0])
        assert hit_rate(population, cache_lines=10) == 1.0

    def test_zero_cache_hits_nothing(self):
        population = LinePopulation.exact([1.0, 2.0])
        assert hit_rate(population, cache_lines=0) == 0.0

    def test_hit_rate_monotone_in_capacity(self):
        ranks = np.arange(1, 2001, dtype=float)
        population = LinePopulation.exact(ranks ** -1.1)
        rates = [hit_rate(population, c) for c in (10, 50, 200, 1000)]
        assert rates == sorted(rates)

    def test_characteristic_time_occupancy(self):
        ranks = np.arange(1, 1001, dtype=float)
        population = LinePopulation.exact(ranks ** -1.1)
        t = solve_characteristic_time(population, cache_lines=100)
        occupancy = float(
            (population.counts * -np.expm1(-population.rates * t)).sum()
        )
        assert occupancy == pytest.approx(100, rel=0.01)

    def test_grouped_equals_exact(self):
        """Grouping (rate, count) pairs must not change results."""
        exact = LinePopulation.exact([0.5] * 100 + [0.1] * 300)
        grouped = LinePopulation(
            rates=np.array([0.5, 0.1]), counts=np.array([100.0, 300.0])
        )
        for cache_lines in (50, 150, 350):
            assert hit_rate(exact, cache_lines) == pytest.approx(
                hit_rate(grouped, cache_lines), rel=1e-6
            )

    def test_shared_cache_tenant_rates(self):
        heavy = LinePopulation.exact(np.full(100, 10.0))
        light = LinePopulation.exact(np.full(100, 0.1))
        rates, _ = che_hit_rates([heavy, light], cache_lines=100)
        assert rates[0] > rates[1]  # the hot tenant holds the cache

    def test_miss_traffic_composition(self):
        ranks = np.arange(1, 501, dtype=float)
        population = LinePopulation.exact(ranks ** -1.1)
        filtered = miss_traffic(population, cache_lines=50)
        assert filtered.total_rate < population.total_rate
        # A second (larger) level sees only the tail: its hit rate over
        # the filtered traffic is below the unfiltered one.
        assert hit_rate(filtered, 200) <= hit_rate(population, 200) + 1e-9

    def test_che_matches_trace_driven_simulation(self):
        """Cross-validation: Che vs the LRU simulator on a Zipf stream.

        Fully-associative cache (one set), small population — Che is
        known to be accurate here; we demand ≤3 points of hit rate.
        """
        model = AccessModel(
            "X",
            (RegionAccess("hot", 512 * LINE_BYTES, 1.0, "zipf"),),
            mem_refs_per_instr=1.0,
        )
        for cache_lines in (32, 128):
            cache = Cache(
                CacheConfig(
                    size_bytes=cache_lines * LINE_BYTES,
                    line_bytes=LINE_BYTES,
                    ways=cache_lines,  # fully associative
                )
            )
            addresses = model.generate_stream(40_000, seed=3)
            hits = sum(cache.access(int(a), owner=1) for a in addresses)
            simulated = hits / len(addresses)
            analytic = hit_rate(model.population(), cache_lines)
            assert analytic == pytest.approx(simulated, abs=0.03)

    def test_empty_populations_rejected(self):
        with pytest.raises(ValueError):
            che_hit_rates([], 10)


class TestWorkloads:
    def test_all_six_nfs_modeled(self):
        assert set(NF_ACCESS_MODELS) == set(NF_NAMES)

    def test_population_mass_is_one(self):
        for model in NF_ACCESS_MODELS.values():
            assert model.population().total_rate == pytest.approx(1.0, rel=1e-6)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AccessModel("bad", (RegionAccess("r", MB, 0.5),))

    def test_stream_addresses_within_bounds(self):
        model = NF_ACCESS_MODELS["LB"]
        addresses = model.generate_stream(1000, seed=1)
        assert addresses.min() >= 0
        assert addresses.max() < model.total_lines() * LINE_BYTES

    def test_stream_deterministic(self):
        model = NF_ACCESS_MODELS["FW"]
        a = model.generate_stream(100, seed=9)
        b = model.generate_stream(100, seed=9)
        assert (a == b).all()

    def test_stream_independent_of_hash_seed(self):
        # The built-in hash() of a str changes with PYTHONHASHSEED; the
        # per-region shuffle seed must not.
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = ("from repro.perf.workloads import NF_ACCESS_MODELS; "
                "print(NF_ACCESS_MODELS['FW'].generate_stream(200, seed=5)"
                ".tolist())")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1

    def test_fw_dpi_nat_have_biggest_hot_sets(self):
        def hot_bytes(name):
            return NF_ACCESS_MODELS[name].regions[0].size_bytes

        heavy = {hot_bytes(n) for n in ("FW", "DPI", "NAT")}
        light = {hot_bytes(n) for n in ("LB", "LPM")}
        assert min(heavy) > max(light)


class TestBusModel:
    def test_tp_wait_grows_with_domains(self):
        bus = BusModel()
        waits = [bus.temporal_partition_wait_ns(n) for n in (2, 4, 8, 16)]
        assert waits == sorted(waits)

    def test_fcfs_wait_grows_with_load(self):
        bus = BusModel()
        assert bus.fcfs_wait_ns(0.2) > bus.fcfs_wait_ns(0.01)

    def test_fcfs_wait_bounded(self):
        assert BusModel().fcfs_wait_ns(100.0) < 100.0  # rho capped


class TestIPCModel:
    def test_more_dram_means_lower_ipc(self):
        model = IPCModel()
        fast = LevelCounts(l1_hits=0.99, l2_hits=0.01, dram=0.0)
        slow = LevelCounts(l1_hits=0.80, l2_hits=0.10, dram=0.10)
        assert model.ipc(fast, 0.25, 0.0) > model.ipc(slow, 0.25, 0.0)

    def test_bus_wait_lowers_ipc(self):
        model = IPCModel()
        counts = LevelCounts(l1_hits=0.9, l2_hits=0.05, dram=0.05)
        assert model.ipc(counts, 0.25, 0.0) > model.ipc(counts, 0.25, 100.0)

    def test_no_references_gives_base_cpi(self):
        model = IPCModel()
        counts = LevelCounts(l1_hits=0, l2_hits=0, dram=0)
        assert model.cpi(counts, 0.25, 0.0) == model.timing.base_cpi


class TestColocation:
    def test_degradation_non_negative(self):
        assert ipc_degradation("FW", ("LB",), 4 * MB) >= 0.0

    def test_degradation_deterministic(self):
        a = ipc_degradation("DPI", ("NAT", "LB", "Mon"), 4 * MB)
        b = ipc_degradation("DPI", ("NAT", "LB", "Mon"), 4 * MB)
        assert a == b

    def test_higher_cotenancy_degrades_more(self):
        low = ipc_degradation("FW", ("LB",), 4 * MB)
        high = ipc_degradation("FW", ("LB",) * 15, 4 * MB)
        assert high > low

    def test_heavy_nfs_suffer_more(self):
        """§5.3: 'the firewall, DPI, and NAT functions suffered the
        worst degradations due to their larger working sets'."""
        partners = ("LB", "LPM", "Mon")
        heavy = ipc_degradation("DPI", partners, 4 * MB)
        light = ipc_degradation("LB", ("DPI", "LPM", "Mon"), 4 * MB)
        assert heavy > light

    def test_partner_sets_complete_at_low_cotenancy(self):
        sets = _partner_sets("FW", 1)
        assert len(sets) == 6  # all single partners

    def test_partner_sets_sampled_at_high_cotenancy(self):
        sets = _partner_sets("FW", 15, max_sets=20)
        assert len(sets) == 20
        assert sets == _partner_sets("FW", 15, max_sets=20)  # deterministic

    def test_colocation_result_statistics(self):
        result = ColocationResult(nf="FW", degradations=[1.0, 2.0, 3.0])
        assert result.median == 2.0
        assert result.percentile(99) == pytest.approx(2.98)

    def test_headline_four_nf_band(self):
        """§5.3 headline: at 4 NFs / 4 MB L2, median ≈0.93% and worst
        (p99) ≤1.7%.  Calibration must keep us in that band."""
        results = cotenancy_sweep(cotenancies=(4,), max_sets=12)
        summary = summary_across_nfs(results, 0)
        assert 0.3 < summary["mean_of_medians_pct"] < 1.7
        assert summary["worst_p99_pct"] < 2.5

    def test_two_nf_band(self):
        results = cotenancy_sweep(cotenancies=(2,), max_sets=12)
        summary = summary_across_nfs(results, 0)
        assert summary["mean_of_medians_pct"] < 0.6
