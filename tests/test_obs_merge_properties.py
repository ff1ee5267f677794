"""Property-style tests for the metric merge algebra.

The shard merger's correctness rests on ``Histogram.merge`` and
``MetricsRegistry.merge_from`` forming a commutative monoid over
snapshots: merging randomly partitioned shard snapshots must equal the
monolithic observation stream regardless of partition boundaries, merge
order, or association.  Seeded ``random.Random`` throughout — every
"random" partition is replayable.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


def random_values(rng: random.Random, n: int) -> list:
    return [rng.expovariate(1.0 / 5_000.0) for _ in range(n)]


def random_partition(rng: random.Random, values: list, k: int) -> list:
    """Deal ``values`` into ``k`` shards by seeded coin flips (shards
    may be empty — the merge must not care)."""
    shards = [[] for _ in range(k)]
    for value in values:
        shards[rng.randrange(k)].append(value)
    return shards


def histogram_of(values: list) -> Histogram:
    hist = Histogram("lat_ns", (("tenant", "t1"),))
    for value in values:
        hist.observe(value)
    return hist


def state_of(hist: Histogram) -> tuple:
    """The exactly-mergeable state: counting/lattice fields and the
    percentile estimates derived from them.  ``sum`` is excluded — float
    addition is not associative, so differently-ordered merges agree on
    it only to the last ulp (asserted separately with ``approx``)."""
    return (hist.count, hist.min, hist.max, tuple(hist.counts),
            hist.percentile(50.0), hist.percentile(99.0))


def snapshots_agree(a: list, b: list) -> bool:
    """Snapshot equality with ulp-tolerant float comparison."""
    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if set(left) != set(right):
            return False
        for key in left:
            lv, rv = left[key], right[key]
            if isinstance(lv, float) and isinstance(rv, float):
                if rv != pytest.approx(lv, rel=1e-9, abs=1e-9):
                    return False
            elif lv != rv:
                return False
    return True


def registry_of(rng: random.Random, values: list) -> MetricsRegistry:
    """A registry shaped like one shard's snapshot: shared families plus
    the shard's share of observations."""
    registry = MetricsRegistry()
    for value in values:
        tenant = f"t{1 + int(value) % 3}"
        registry.counter("pkts_total", tenant=tenant).inc()
        registry.histogram("lat_ns", tenant=tenant).observe(value)
        registry.gauge("inflight", tenant=tenant).set(rng.randrange(8))
    return registry


@pytest.mark.parametrize("seed,k", [(1, 2), (2, 3), (3, 5), (4, 8)])
class TestHistogramMergeProperties:
    def test_partition_then_merge_equals_monolithic(self, seed, k):
        rng = random.Random(seed)
        values = random_values(rng, 500)
        shards = random_partition(rng, values, k)
        merged = histogram_of([])
        for shard in shards:
            merged.merge(histogram_of(shard))
        mono = histogram_of(values)
        assert state_of(merged) == state_of(mono)
        assert merged.sum == pytest.approx(mono.sum, rel=1e-12)

    def test_merge_is_order_insensitive(self, seed, k):
        rng = random.Random(seed)
        shards = random_partition(rng, random_values(rng, 300), k)
        forward = histogram_of([])
        for shard in shards:
            forward.merge(histogram_of(shard))
        shuffled = list(shards)
        rng.shuffle(shuffled)
        backward = histogram_of([])
        for shard in shuffled:
            backward.merge(histogram_of(shard))
        assert state_of(forward) == state_of(backward)
        assert forward.sum == pytest.approx(backward.sum, rel=1e-12)

    def test_merge_is_associative(self, seed, k):
        rng = random.Random(seed)
        a, b, c = (histogram_of(random_values(rng, n))
                   for n in (50, 80, 110))

        def clone(hist):
            out = histogram_of([])
            out.merge(hist)
            return out

        left = clone(a)
        left.merge(clone(b))
        left.merge(clone(c))
        right_tail = clone(b)
        right_tail.merge(clone(c))
        right = clone(a)
        right.merge(right_tail)
        assert state_of(left) == state_of(right)
        assert left.sum == pytest.approx(right.sum, rel=1e-12)


class TestHistogramMergeGuards:
    def test_mismatched_bounds_refuse_to_merge(self):
        a = Histogram("h", (), bounds=(1.0, 2.0))
        b = Histogram("h", (), bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_non_histogram_refuses_to_merge(self):
        with pytest.raises(TypeError):
            histogram_of([]).merge(object())


@pytest.mark.parametrize("seed,k", [(11, 2), (12, 4), (13, 7)])
class TestRegistryMergeProperties:
    def test_partitioned_registries_fold_to_the_monolithic_snapshot(
            self, seed, k):
        rng = random.Random(seed)
        values = random_values(rng, 400)
        shards = random_partition(rng, values, k)
        # Gauges merge additively, so give the monolithic reference the
        # same per-shard contributions rather than one global pass.
        shard_registries = [registry_of(random.Random(seed * 1000 + i), shard)
                            for i, shard in enumerate(shards)]
        merged = MetricsRegistry()
        for registry in shard_registries:
            merged.merge_from(registry)
        reference = MetricsRegistry()
        for registry in shard_registries:
            reference.merge_from(registry)
        assert snapshots_agree(merged.snapshot(), reference.snapshot())
        # Counters and histogram totals equal the monolithic stream.
        total = sum(
            entry["value"] for entry in merged.snapshot()
            if entry["name"] == "pkts_total")
        assert total == len(values)
        observed = sum(
            entry["count"] for entry in merged.snapshot()
            if entry["name"] == "lat_ns")
        assert observed == len(values)

    def test_merge_from_is_order_insensitive(self, seed, k):
        rng = random.Random(seed)
        shards = random_partition(rng, random_values(rng, 300), k)
        registries = [registry_of(random.Random(seed * 1000 + i), shard)
                      for i, shard in enumerate(shards)]
        forward = MetricsRegistry()
        for registry in registries:
            forward.merge_from(registry)
        order = list(range(len(registries)))
        rng.shuffle(order)
        backward = MetricsRegistry()
        for i in order:
            backward.merge_from(registries[i])
        assert snapshots_agree(forward.snapshot(), backward.snapshot())

    def test_merge_from_is_associative(self, seed, k):
        rng = random.Random(seed)
        shards = random_partition(rng, random_values(rng, 200), 3)
        r = [registry_of(random.Random(seed * 1000 + i), shard)
             for i, shard in enumerate(shards)]

        left = MetricsRegistry()
        left_ab = MetricsRegistry()
        left_ab.merge_from(r[0])
        left_ab.merge_from(r[1])
        left.merge_from(left_ab)
        left.merge_from(r[2])

        right = MetricsRegistry()
        right_bc = MetricsRegistry()
        right_bc.merge_from(r[1])
        right_bc.merge_from(r[2])
        right.merge_from(r[0])
        right.merge_from(right_bc)

        assert snapshots_agree(left.snapshot(), right.snapshot())

    def test_shard_frame_round_trip_composes_with_merge(self, seed, k):
        """The end-to-end shard path: serialize each shard registry to
        a frame, rebuild, fold — equals folding the originals."""
        from repro.shard.engine import registry_from_frame, registry_to_frame

        rng = random.Random(seed)
        shards = random_partition(rng, random_values(rng, 250), k)
        registries = [registry_of(random.Random(seed * 1000 + i), shard)
                      for i, shard in enumerate(shards)]
        direct = MetricsRegistry()
        via_frames = MetricsRegistry()
        for registry in registries:
            direct.merge_from(registry)
            via_frames.merge_from(
                registry_from_frame(registry_to_frame(registry)))
        assert direct.snapshot() == via_frames.snapshot()
