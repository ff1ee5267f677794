"""Sharded runs: parallel speedup and fidelity cost (DESIGN §1.12).

``--shards`` runs a scenario as a fleet of independent NICs: the spec's
partition plan splits the tenants over four smaller NICs, each with its
own bus, DMA and DRAM.  That is a different experiment from one NIC
carrying every tenant, so this scenario reports two separate things and
never divides one model's wall time by the other's:

* **parallel speedup** — the *same* partition plan on 1 worker process
  vs ``min(4, os.cpu_count())`` workers.  Only this ratio is a speedup;
  it is bounded by the core count.
* **fidelity cost** — monolithic vs partitioned on the same seeded
  spec: per-tenant p99, cross-tenant wait and pass/fail counts.
  Partitioning drops every cross-partition contention, so these deltas
  are what the fleet model gives up, not a gain.

Both worker counts must produce byte-identical reports.  Wall times are
measurements and never byte-compared.
"""

import json
import os
import time

from _common import bench_main, print_table, quick_param

ARBITER = "fcfs"
SEED = 7


def _sharded(n_tenants: int, quick: bool, workers: int) -> dict:
    from repro.shard.engine import run_scorecard_sharded

    return run_scorecard_sharded(n_tenants=n_tenants, seed=SEED,
                                 quick=quick, arbiters=(ARBITER,),
                                 workers=workers)


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def run(quick: bool = False) -> dict:
    """Harness entry point: worker scaling on one partition plan, then
    the monolithic-vs-partitioned fidelity delta."""
    from repro.obs.scorecard import run_scorecard

    n_tenants = quick_param(quick, 512, 64)
    workers = max(1, min(4, os.cpu_count() or 1))

    # Warm the pool path at toy scale so import costs stay out of the
    # measured runs.
    _sharded(8, True, workers)
    serial, serial_s = _timed(_sharded, n_tenants, quick, 1)
    parallel, parallel_s = _timed(_sharded, n_tenants, quick, workers)
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True), \
        "sharded report depends on the worker count"
    mono = run_scorecard(n_tenants=n_tenants, seed=SEED, quick=quick,
                         arbiters=(ARBITER,))

    mono_block = mono["arbiters"][ARBITER]
    shard_block = serial["arbiters"][ARBITER]
    p99_delta = [s["p99_latency_ns"] - m["p99_latency_ns"]
                 for m, s in zip(mono_block["tenants"],
                                 shard_block["tenants"])]
    xwait_mono = float(mono_block["cross_tenant_wait_ns"])
    xwait_shard = float(shard_block["cross_tenant_wait_ns"])
    speedup = serial_s / parallel_s if parallel_s else 0.0

    print_table(
        f"parallel speedup — {n_tenants} tenants, {ARBITER}, "
        f"{shard_block['partitions']} partitions",
        ["workers", "wall s"],
        [[1, serial_s], [workers, parallel_s]])
    print(f"\nparallel speedup: {speedup:.2f}x on {workers} workers "
          f"(identical reports)")
    print_table(
        "fidelity cost — monolithic NIC vs fleet of independent NICs",
        ["model", "pass", "fail", "cross-tenant wait ns",
         "worst p99 ns"],
        [["monolithic", mono_block["n_pass"], mono_block["n_fail"],
          xwait_mono,
          max(t["p99_latency_ns"] for t in mono_block["tenants"])],
         ["partitioned", shard_block["n_pass"], shard_block["n_fail"],
          xwait_shard,
          max(t["p99_latency_ns"] for t in shard_block["tenants"])]])

    assert len(shard_block["tenants"]) == n_tenants
    assert shard_block["audit"]["chain_ok"] is True
    return {
        "n_tenants": n_tenants,
        "arbiter": ARBITER,
        "partitions": shard_block["partitions"],
        "workers": workers,
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "parallel_speedup": speedup,
        "monolithic_n_pass": mono_block["n_pass"],
        "monolithic_n_fail": mono_block["n_fail"],
        "partitioned_n_pass": shard_block["n_pass"],
        "partitioned_n_fail": shard_block["n_fail"],
        "monolithic_xwait_ns": xwait_mono,
        "partitioned_xwait_ns": xwait_shard,
        "xwait_lost_fraction":
            (xwait_mono - xwait_shard) / xwait_mono if xwait_mono else 0.0,
        "tenants_p99_changed": sum(1 for d in p99_delta if d),
        "p99_max_abs_delta_ns": max((abs(d) for d in p99_delta),
                                    default=0.0),
        "audit_chain_ok": shard_block["audit"]["chain_ok"],
    }


def test_shard_scaleout(benchmark):
    outputs = benchmark.pedantic(lambda: run(quick=True), rounds=1,
                                 iterations=1)
    assert outputs["audit_chain_ok"] is True
    benchmark.extra_info["parallel_speedup"] = outputs["parallel_speedup"]


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
