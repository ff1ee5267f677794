"""Per-NF memory-access models for the Figure 5 experiments.

Each NF is a mixture of memory regions.  A region has a size, a share of
the NF's data references, and a line-popularity law — ``zipf`` regions
model hash maps / flow caches keyed by Zipf(1.1) flows (the §5.3 trace
skew); ``uniform`` regions model structures indexed by 5-tuple hashes
(Maglev tables, tbl24) and streaming passes.

Sizes model each NF's *hot* data — what actually contends for cache,
not the full Appendix-B footprint ("network functions that only examine
packet headers are not memory-intensive", §5.3).  FW/DPI/NAT carry the
largest hot structures, matching the paper's observation that they
"suffered the worst degradations due to their larger working sets".
Shares/sizes were calibrated once against the Figure 5b medians; the
calibration run is recorded in EXPERIMENTS.md.

Populations are grouped (:class:`repro.perf.che.LinePopulation`): the
Zipf head is kept exact and the tail log-bucketed, so Che evaluations
stay cheap even for multi-megabyte regions.  ``generate_stream`` emits
concrete addresses for the trace-driven cross-validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.perf.che import LinePopulation
from repro.scenario.spec import derive_seed

LINE_BYTES = 64

#: The trace skew from §5.3.
TRACE_ZIPF_SKEW = 1.1

KB = 1024
MB = 1024 * KB

_EXACT_HEAD = 2048
_TAIL_BUCKETS = 96


def _zipf_population(n_lines: int, share: float, skew: float) -> LinePopulation:
    """Grouped Zipf(skew) population over ``n_lines``, total rate ``share``."""
    ranks_head = np.arange(1, min(n_lines, _EXACT_HEAD) + 1, dtype=np.float64)
    head = ranks_head ** (-skew)
    rates = [head]
    counts = [np.ones(len(head))]
    if n_lines > _EXACT_HEAD:
        edges = np.unique(
            np.geomspace(_EXACT_HEAD + 1, n_lines + 1, _TAIL_BUCKETS).astype(np.int64)
        )
        if edges[-1] != n_lines + 1:
            edges = np.append(edges, n_lines + 1)
        bucket_counts = np.diff(edges).astype(np.float64)
        # Integral of r^-skew over the bucket / bucket width = mean rate.
        lo = edges[:-1].astype(np.float64)
        hi = edges[1:].astype(np.float64)
        if abs(skew - 1.0) < 1e-9:
            integral = np.log(hi / lo)
        else:
            integral = (hi ** (1 - skew) - lo ** (1 - skew)) / (1 - skew)
        mean_rates = integral / bucket_counts
        keep = bucket_counts > 0
        rates.append(mean_rates[keep])
        counts.append(bucket_counts[keep])
    rate_arr = np.concatenate(rates)
    count_arr = np.concatenate(counts)
    total = float((rate_arr * count_arr).sum())
    return LinePopulation(rates=rate_arr * (share / total), counts=count_arr)


def _uniform_population(n_lines: int, share: float) -> LinePopulation:
    return LinePopulation(
        rates=np.array([share / n_lines]), counts=np.array([float(n_lines)])
    )


@dataclass(frozen=True)
class RegionAccess:
    """One memory region of an NF's working set."""

    name: str
    size_bytes: int
    share: float  # fraction of the NF's data references
    pattern: str = "zipf"  # zipf | uniform
    skew: float = TRACE_ZIPF_SKEW

    @property
    def n_lines(self) -> int:
        return max(1, self.size_bytes // LINE_BYTES)

    def population(self) -> LinePopulation:
        if self.pattern == "zipf":
            return _zipf_population(self.n_lines, self.share, self.skew)
        return _uniform_population(self.n_lines, self.share)


@dataclass(frozen=True)
class AccessModel:
    """An NF's full access mixture plus its instruction-level intensity."""

    name: str
    regions: Tuple[RegionAccess, ...]
    #: Data references per instruction (header-only NFs are lighter).
    mem_refs_per_instr: float = 0.25

    def __post_init__(self) -> None:
        total = sum(r.share for r in self.regions)
        if not 0.999 < total < 1.001:
            raise ValueError(f"{self.name}: region shares must sum to 1")

    def population(self) -> LinePopulation:
        """The grouped per-line probability mass (sums to 1)."""
        return LinePopulation.concat([r.population() for r in self.regions])

    def total_lines(self) -> int:
        return sum(r.n_lines for r in self.regions)

    def generate_stream(
        self, n_refs: int, seed: int = 0, base_addr: int = 0
    ) -> np.ndarray:
        """Concrete line-granular addresses (trace-driven validation).

        Exact per-line Zipf sampling; intended for small regions (tests),
        where it doubles as ground truth for the Che approximation.
        """
        weights: List[np.ndarray] = []
        for index, region in enumerate(self.regions):
            n = region.n_lines
            if region.pattern == "zipf":
                ranks = np.arange(1, n + 1, dtype=np.float64)
                w = ranks ** (-region.skew)
                rng = np.random.default_rng(derive_seed(0, self.name, index))
                rng.shuffle(w)
            else:
                w = np.full(n, 1.0)
            w = w / w.sum() * region.share
            weights.append(w)
        popularity = np.concatenate(weights)
        cumulative = np.cumsum(popularity)
        cumulative /= cumulative[-1]
        rng = np.random.default_rng(seed)
        lines = np.searchsorted(cumulative, rng.random(n_refs), side="right")
        return (base_addr // LINE_BYTES + lines) * LINE_BYTES


def _zipf(name: str, size: int, share: float) -> RegionAccess:
    return RegionAccess(name=name, size_bytes=size, share=share, pattern="zipf")


def _uniform(name: str, size: int, share: float) -> RegionAccess:
    return RegionAccess(name=name, size_bytes=size, share=share, pattern="uniform")


#: Share of references to the partition-sensitive "warm" structures
#: (mid-tail of flow tables) and to the cache-insensitive "cold"
#: streaming data (packet payloads, cold table regions).  Calibrated
#: against the Figure 5b medians (see EXPERIMENTS.md).
WARM_SHARE = 0.01
COLD_SHARE = 0.008

#: Per-NF structure: (hot structure KB, warm structure MB, refs/instr).
#: Hot = the Zipf head of the NF's dominant table (flow cache, automaton
#: hot path, binding table, ...); warm = its mid-tail; cold = streaming.
_NF_SHAPES: Dict[str, Tuple[int, float, float]] = {
    "FW": (384, 3.0, 0.28),
    "DPI": (512, 4.0, 0.30),
    "NAT": (320, 2.5, 0.26),
    "LB": (128, 0.75, 0.20),
    "LPM": (192, 1.5, 0.18),
    "Mon": (256, 2.0, 0.22),
}


def _build_models() -> Dict[str, AccessModel]:
    models: Dict[str, AccessModel] = {}
    for name, (hot_kb, warm_mb, refs) in _NF_SHAPES.items():
        models[name] = AccessModel(
            name,
            (
                _zipf("hot", hot_kb * KB, 1.0 - WARM_SHARE - COLD_SHARE),
                _uniform("warm", int(warm_mb * MB), WARM_SHARE),
                _uniform("cold", 64 * MB, COLD_SHARE),
            ),
            mem_refs_per_instr=refs,
        )
    return models


#: Calibrated per-NF models (see module docstring).
NF_ACCESS_MODELS: Dict[str, AccessModel] = _build_models()
