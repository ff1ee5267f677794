"""Memory profiles: NFs (Table 6), accelerators (Table 7), MURs
(Table 8), and the Monitor memory time series (Figure 7).

The region sizes below are the paper's measurements of its Rust/DPDK
binaries (Appendix B).  They are treated as calibrated inputs: the
page-packing allocator (:mod:`repro.cost.pages`) regenerates the TLB
entry counts of Tables 5–7 *from these sizes*, and the MURs of Table 8
follow from preallocated-vs-steady usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs.windows import Series

from repro.cost.pages import (
    EQUAL_MENU,
    KB,
    MB,
    PageMenu,
    entries_for,
)


@dataclass(frozen=True)
class NFMemoryProfile:
    """One NF's memory regions, in bytes (Table 6), plus steady usage."""

    name: str
    text: int
    data: int
    code: int
    heap_stack: int
    steady_used: int

    @property
    def regions(self) -> Tuple[int, int, int, int]:
        """Separately-placed regions, in packing order."""
        return (self.text, self.data, self.code, self.heap_stack)

    @property
    def total(self) -> int:
        return sum(self.regions)

    @property
    def mur(self) -> float:
        """Memory utilization ratio: used / preallocated (Table 8)."""
        return self.steady_used / self.total

    def tlb_entries(self, menu: PageMenu) -> int:
        return entries_for(self.regions, menu)


def _mb(value: float) -> int:
    return int(round(value * MB))


#: Table 6 / Table 8, in the paper's row order.
NF_PROFILES: Dict[str, NFMemoryProfile] = {
    "FW": NFMemoryProfile("FW", _mb(0.87), _mb(0.08), _mb(2.50), _mb(13.75), _mb(17.20)),
    "DPI": NFMemoryProfile("DPI", _mb(1.34), _mb(0.56), _mb(2.59), _mb(46.65), _mb(51.14)),
    "NAT": NFMemoryProfile("NAT", _mb(0.86), _mb(0.05), _mb(2.49), _mb(40.48), _mb(31.72)),
    "LB": NFMemoryProfile("LB", _mb(0.86), _mb(0.05), _mb(2.49), _mb(10.40), _mb(4.16)),
    "LPM": NFMemoryProfile("LPM", _mb(0.86), _mb(0.06), _mb(2.51), _mb(64.90), _mb(68.33)),
    "Mon": NFMemoryProfile("Mon", _mb(0.85), _mb(0.05), _mb(2.48), _mb(357.15), _mb(246.31)),
}


@dataclass(frozen=True)
class AcceleratorProfile:
    """An accelerator's buffer regions, in bytes (Table 7)."""

    name: str
    regions: Tuple[Tuple[str, int], ...]

    @property
    def total(self) -> int:
        return sum(size for _, size in self.regions)

    @property
    def region_sizes(self) -> Tuple[int, ...]:
        return tuple(size for _, size in self.regions)

    def tlb_entries(self, menu: PageMenu = EQUAL_MENU) -> int:
        return entries_for(self.region_sizes, menu)


#: Table 7.  IQ = instruction queue, PktDB = packet descriptor buffers,
#: PktB = packet buffers, ResB = result buffers, ParaB = parameter
#: buffers, OutB = output buffers, SGP = scatter-gather-pointer buffers.
ACCEL_PROFILES: Dict[str, AcceleratorProfile] = {
    "DPI": AcceleratorProfile(
        "DPI",
        (
            ("IQ", 256 * KB),
            ("PktDB", 128 * KB),
            ("PktB", 2 * MB),
            ("ResB", 2 * MB),
            ("ParaB", 256 * KB),
            ("Graph", int(97.28 * MB)),
        ),
    ),
    "ZIP": AcceleratorProfile(
        "ZIP",
        (
            ("IQ", 64 * KB),
            ("PktDB", 128 * KB),
            ("PktB", 2 * MB),
            ("ResB", 24 * KB),
            ("OutB", 2 * MB),
            ("SGP", 128 * MB),
            ("Dict", 32 * KB),
        ),
    ),
    "RAID": AcceleratorProfile(
        "RAID",
        (
            ("IQ", 4 * MB),
            ("PktDB", 128 * KB),
            ("PktB", 2 * MB),
            ("OutB", 2 * MB),
        ),
    ),
}

#: §5.2 "Sizing the TLB for a virtual packet pipeline and DMA controller":
#: LiquidIO buffer sizes — PB 2 MB, PDB 128 KB, ODB 1 MB → 3 entries;
#: DMA needs the PB (2 MB) + a 256 KB instruction queue → 2 entries.
VPP_REGIONS: Tuple[int, ...] = (2 * MB, 128 * KB, 1 * MB)
DMA_REGIONS: Tuple[int, ...] = (2 * MB, 256 * KB)


def mur_table() -> Dict[str, Dict[str, float]]:
    """Table 8 rows: preallocated MB, used MB, MUR per NF."""
    return {
        name: {
            "prealloc_mb": profile.total / MB,
            "used_mb": profile.steady_used / MB,
            "mur": profile.mur,
        }
        for name, profile in NF_PROFILES.items()
    }


# ----------------------------------------------------------------------
# Figure 7: the Monitor memory time series
# ----------------------------------------------------------------------


@dataclass
class MonitorMemoryModel:
    """Mechanistic model of Monitor's memory usage over a 5-minute trace.

    Components (all called out in the paper's Figure 7 discussion):

    * static image (text+data+code, ≈3.38 MB from Table 6);
    * DPDK hugepage initialisation — a transient *doubling* early on,
      because "DPDK allocates a temporary normal memory block for
      storing the hugepage data, and then writes all that data into the
      hugepage memory";
    * the flow-counting HashMap — grows with distinct flows and doubles
      its table capacity when the load factor is exceeded; during a
      resize the old and new tables coexist (a +50 % spike of the new
      table size).

    The DPDK block size and final table size are calibrated so the
    series tops out at the paper's preallocation minimum (360.54 MB)
    and settles at its steady state (246.31 MB); everything else
    (spike times, staircase shape) emerges from the flow-arrival curve.
    """

    duration_s: float = 150.0
    static_mb: float = 0.85 + 0.05 + 2.48  # Monitor's text+data+code
    steady_target_mb: float = 246.31
    peak_target_mb: float = 360.54
    hugepage_init_at_s: float = 2.0
    load_factor: float = 0.875
    n_doublings: int = 6  # table growth steps observed within the window

    def __post_init__(self) -> None:
        # Peak = last resize transient = static + dpdk + 1.5 * final table.
        # Steady = static + dpdk + final table.  Solve both.
        self.final_table_mb = 2.0 * (self.peak_target_mb - self.steady_target_mb)
        self.dpdk_mb = self.steady_target_mb - self.static_mb - self.final_table_mb
        if self.dpdk_mb <= 0:
            raise ValueError("calibration targets are inconsistent")

    def _distinct_flow_fraction(self, t: float) -> float:
        """Fraction of the window's distinct flows seen by time ``t``.

        Distinct-flow accumulation over a trace is concave (heavy flows
        arrive early); 1 - exp decay is the standard shape.
        """
        rate = 3.0 / self.duration_s
        return (1.0 - math.exp(-rate * t)) / (1.0 - math.exp(-3.0))

    def table_mb_at(self, t: float) -> float:
        """Current (post-resize) table size at time ``t``."""
        fraction = self._distinct_flow_fraction(t)
        needed = fraction * self.final_table_mb
        level = self.final_table_mb / (2 ** self.n_doublings)
        while level < needed / self.load_factor and level < self.final_table_mb:
            level *= 2
        return min(level, self.final_table_mb)

    def resize_times(self) -> List[float]:
        """Instants at which the table doubles (bisected from the curve)."""
        times: List[float] = []
        previous = self.table_mb_at(0.0)
        step = self.duration_s / 3000.0
        t = step
        while t <= self.duration_s:
            current = self.table_mb_at(t)
            if current > previous:
                times.append(t)
                previous = current
            t += step
        return times

    def memory_mb_at(self, t: float,
                     _resizes: Optional[List[float]] = None) -> float:
        """Instantaneous memory footprint at time ``t``, spikes included.

        ``_resizes`` lets grid samplers pass the (expensively bisected)
        resize instants once instead of per point.
        """
        resizes = _resizes if _resizes is not None else self.resize_times()
        usage = self.static_mb
        if t >= self.hugepage_init_at_s:
            usage += self.dpdk_mb
        # Hugepage-init transient: temporary normal block + hugepages.
        if self.hugepage_init_at_s <= t < self.hugepage_init_at_s + 1.0:
            usage += self.dpdk_mb
        table = self.table_mb_at(t)
        usage += table
        # Resize transient: old (table/2) + new (table) coexist.
        for rt in resizes:
            if rt <= t < rt + 0.5:
                usage += table / 2.0
                break
        return usage

    def sample(self, step_s: float = 0.5) -> "Series":
        """The memory curve as a :class:`repro.obs.windows.Series`
        (the shape every other sampled experiment exports through)."""
        from repro.obs.windows import sample_function

        resizes = self.resize_times()
        return sample_function(
            lambda t: self.memory_mb_at(t, _resizes=resizes),
            start=0.0, stop=self.duration_s, step=step_s,
            name="monitor_memory_mb")

    def series(self, step_s: float = 0.5) -> List[Tuple[float, float]]:
        """(time_s, memory_mb) samples; historical list-of-pairs view
        over :meth:`sample`."""
        return self.sample(step_s=step_s).points()

    def summary(self) -> Dict[str, float]:
        samples = self.series()
        peak = max(m for _, m in samples)
        steady = samples[-1][1]
        return {
            "prealloc_min_mb": peak,
            "steady_mb": steady,
            "dpdk_mb": self.dpdk_mb,
            "final_table_mb": self.final_table_mb,
            "n_resizes": len(self.resize_times()),
        }
