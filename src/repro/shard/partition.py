"""The partition plan: split one scenario into per-shard sub-scenarios.

The plan is a **pure function of the spec**: ``ShardSpec.partitions``
pins how many independent NICs a scenario splits into, and sub-spec
seeds, tenant chunks and traffic shares depend only on the spec and
the partition index.  The ``--shards N`` worker count never appears
here, which is the whole byte-identity argument.

Tenants are chunked contiguously in spec order (chunk sizes differ by
at most one), so the concatenation of per-partition tenant rows equals
the original spec order and the global victim (first tenant) is always
partition 0's victim.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.scenario.spec import ScenarioSpec, ShardSpec, SpecError, derive_seed


def effective_partitions(spec: ScenarioSpec) -> int:
    """How many partitions ``spec`` actually decomposes into.

    ``ShardSpec.partitions`` clamped to the tenant count — a shard with
    zero tenants would simulate nothing and skew the merge order.
    """
    shard = spec.shard if spec.shard is not None else ShardSpec()
    return max(1, min(shard.partitions, max(1, len(spec.tenants))))


def partition_specs(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """The partition plan: one self-contained sub-spec per shard.

    Each partition is its own smaller NIC: its contiguous tenant chunk,
    a proportionally scaled topology (cores exactly, DRAM/L2 with fixed
    OS headroom), its share of the offered load on a *compressed*
    arrival schedule (same inter-arrival period, fewer packets), and
    the fault burst iff its chunk contains the fault's target tenant.
    No contention crosses partitions.  Sub-spec seeds derive from the
    parent seed via the standard ``derive_seed`` chain.
    """
    n_parts = effective_partitions(spec)
    if not spec.tenants:
        raise SpecError(
            f"scenario {spec.name!r} has no tenants to partition")
    n_total = len(spec.tenants)
    # Contiguous tenant chunks whose sizes differ by at most one, and
    # each chunk's share of the offered load by the cumulative floor
    # rule: the shares sum to ``n_packets`` exactly, with no drift.
    base, rem = divmod(n_total, n_parts)
    edges = [i * base + min(i, rem) for i in range(n_parts + 1)]
    packet_edges = [spec.traffic.n_packets * e // n_total for e in edges]

    fault_target = None
    if spec.fault is not None:
        fault_target = spec.fault.tenant or spec.tenants[-1].name

    parts: List[ScenarioSpec] = []
    for index in range(n_parts):
        tenants = tuple(spec.tenants[edges[index]:edges[index + 1]])
        names = {t.name for t in tenants}
        topo = spec.topology
        l2_ways = None
        if topo.l2_ways is not None:
            # One L2 way per absent tenant is released; the remainder
            # (the OS's ways plus any headroom) stays with every shard.
            l2_ways = max(2, topo.l2_ways - (n_total - len(tenants)))
        # Proportional DRAM plus a fixed 64 MiB OS headroom, capped at
        # the original size so small scenarios keep their geometry.
        dram_mb = min(
            topo.dram_mb,
            max(1, -(-topo.dram_mb * len(tenants) // n_total)) + 64)
        topology = replace(
            topo,
            n_cores=max(1, sum(t.cores for t in tenants)),
            dram_mb=dram_mb,
            l2_ways=l2_ways,
        )
        traffic = replace(spec.traffic, n_packets=packet_edges[index + 1]
                          - packet_edges[index])
        fault = spec.fault if fault_target in names else None
        parts.append(ScenarioSpec(
            name=f"{spec.name}#p{index}",
            seed=derive_seed(spec.seed, spec.name, "shard", n_parts, index),
            description=f"shard partition {index}/{n_parts} "
                        f"of {spec.name}",
            tags=tuple(spec.tags) + ("shard",),
            topology=topology,
            tenants=tenants,
            traffic=traffic,
            fault=fault,
            shard=None,
        ))
    return parts


__all__ = ["effective_partitions", "partition_specs"]
