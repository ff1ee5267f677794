"""``python -m repro audit`` — the isolation scorecard.

The paper's evaluation asks one question two ways: *does a co-tenant
change what a victim observes?* Figure 5 answers it with throughput
(solo vs co-tenant IPC), §6 answers it with security arguments.  The
audit runs the same solo-vs-co-tenant differential on every shared
hardware resource in the simulation — bus, cache, DRAM, DMA, cores —
under the **commodity** configuration (FCFS bus, shared LRU cache,
shared DMA engine, time-sliced cores) and under the **S-NIC**
configuration (temporal bus partitioning, hard cache ways, per-tenant
DRAM reservations, per-bank DMA engines, exclusive cores), and emits a
scorecard:

* per-resource interference matrices (who made whom wait, from the
  :mod:`repro.obs.interference` accountant);
* victim slowdown deltas (co-tenant metric / solo metric);
* side-channel capacity estimates (bus watermark, cache prime+probe,
  via :mod:`repro.commodity.sidechannels`);
* the differential noninterference harness verdict
  (:mod:`repro.core.noninterference`).

The **verdict** is the CI gate: commodity must show *nonzero*
cross-tenant attributed wait (the instrumentation works, the
interference is real) and S-NIC must show *exactly zero* (the paper's
isolation claim holds in the model, not approximately but
structurally).  Everything is deterministic — fixed seeds, fixed
workloads, sorted JSON — so two runs produce byte-identical scorecards
and any diff is a real behaviour change.

The workloads live here; the leg protocol, the IsoSan scope, rendering
and the CLI are the harness it shares with ``repro chaos``
(:mod:`repro.faults.differential`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.commodity.sidechannels import (
    bus_watermark_on_fcfs,
    bus_watermark_on_snic,
    cache_covert_channel,
    channel_capacity,
)
from repro.core.noninterference import check_noninterference
from repro.faults.differential import (
    Table,
    View,
    cli,
    format_json,
    render_markdown,
    render_text,
    run_legs,
    study_scope,
)
from repro.hw.bus import FCFSArbiter, TemporalPartitioningArbiter
from repro.hw.cache import HARD, Cache, CacheConfig
from repro.hw.cores import ProgrammableCore
from repro.hw.dma import DMAController, DMAWindow
from repro.hw.dram import DRAMChannel
from repro.hw.memory import HostMemory, PhysicalMemory
from repro.obs import metrics as metrics_mod
from repro.obs.interference import (
    RESOURCES,
    cross_tenant_events,
    cross_tenant_wait_ns,
)
from repro.obs.metrics import Histogram, get_registry

SCHEMA_VERSION = 1

#: The two security domains every workload uses.
VICTIM = 1
AGGRESSOR = 2

#: Iterations per workload (full / --quick).
_SCALE = {"full": 200, "quick": 40}
_CHANNEL_BITS = {"full": 64, "quick": 24}
_NONINT_TRIALS = {"full": 6, "quick": 2}
_NONINT_STEPS = {"full": 30, "quick": 12}


# ----------------------------------------------------------------------
# Per-resource differential workloads.
#
# Each returns the victim's observed figure of merit (mean latency,
# miss rate, cycles per round) for one (config, tenancy) combination
# and leaves its blame trail in the metrics registry.  All are pure
# functions of their arguments: no wall clock, no unseeded randomness.
# ----------------------------------------------------------------------

def _bus_workload(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim mean bus latency (ns) for periodic 1500 B probes.

    Commodity: one FCFS arbiter; the aggressor's 48 kB burst at the
    start of each period backlogs the bus right when the victim probes.
    S-NIC: temporal partitioning — the aggressor can only spend its own
    epochs, so the victim's latency is identical with or without it.
    """
    arbiter: object
    if snic:
        arbiter = TemporalPartitioningArbiter(
            domains=[VICTIM, AGGRESSOR], bandwidth_bytes_per_ns=12.8,
            epoch_ns=1000.0, dead_time_ns=100.0)
    else:
        arbiter = FCFSArbiter(bandwidth_bytes_per_ns=12.8)
    period = 8000.0
    total = 0.0
    latency_hist = get_registry().histogram(
        "audit_victim_latency_ns", resource="bus", tenant=VICTIM)
    for i in range(rounds):
        t = i * period
        if cotenant:
            arbiter.request(AGGRESSOR, 48_000, t)  # type: ignore[attr-defined]
        probe_at = t + 100.0
        done = arbiter.request(VICTIM, 1500, probe_at)  # type: ignore[attr-defined]
        latency_hist.observe(done - probe_at)
        total += done - probe_at
    return total / rounds


def _cache_workload(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim steady-state miss rate on a resident working set.

    The victim's working set is two lines per set — exactly its hard
    partition share.  A co-tenant thrashing every way evicts it in
    shared mode (conflict misses, blamed on the evictor) but cannot
    reach the victim's ways under hard partitioning.
    """
    cache = Cache(CacheConfig(size_bytes=4096, line_bytes=64, ways=4),
                  name="audit-l2")
    if snic:
        cache.set_partitions({VICTIM: 2, AGGRESSOR: 2}, mode=HARD)
    line = cache.config.line_bytes
    n_sets = cache.config.n_sets
    stride = n_sets * line
    victim_ws = [s * line + k * stride
                 for s in range(n_sets) for k in range(2)]
    aggressor_ws = [s * line + (8 + k) * stride
                    for s in range(n_sets) for k in range(4)]
    for addr in victim_ws:  # warm: cold misses are not interference
        cache.access(addr, owner=VICTIM)
    stats = cache.stats[VICTIM]
    base_misses = stats.misses
    accesses = 0
    for _ in range(rounds):
        if cotenant:
            for addr in aggressor_ws:
                cache.access(addr, owner=AGGRESSOR)
        for addr in victim_ws:
            cache.access(addr, owner=VICTIM)
            accesses += 1
    return (stats.misses - base_misses) / accesses


def _dram_workload(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim mean DRAM access latency (ns) for single-line reads.

    Shared channel: the aggressor's 64 kB transfer occupies the channel
    when the victim's read arrives.  Partitioned: the victim's own
    bandwidth reservation serves it at a co-tenant-independent latency.
    """
    channel = DRAMChannel()
    if snic:
        channel.partition([VICTIM, AGGRESSOR])
    period = 16_000.0
    total = 0.0
    latency_hist = get_registry().histogram(
        "audit_victim_latency_ns", resource="dram", tenant=VICTIM)
    for i in range(rounds):
        t = i * period
        if cotenant:
            channel.access(AGGRESSOR, 64_000, t)
        issue = t + 10.0
        done = channel.access(VICTIM, 64, issue)
        latency_hist.observe(done - issue)
        total += done - issue
    return total / rounds


def _dma_workload(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim mean DMA completion latency (ns) for 4 kB downstream copies.

    Commodity: ``shared_engine=True`` — every bank's transfers funnel
    through one engine, so the aggressor's 32 kB copy delays the
    victim's.  S-NIC: one engine per bank (§4.2), so bank 0's service
    time is a function of bank 0's stream only.
    """
    controller = DMAController(2, shared_engine=not snic)
    host = HostMemory(1 << 20)
    nic = PhysicalMemory(1 << 20)
    window = 64 * 1024
    for bank_id, owner in ((0, VICTIM), (1, AGGRESSOR)):
        bank = controller.bank_for_core(bank_id)
        bank.configure(
            owner,
            nic_window=DMAWindow(base=bank_id * window, size=window),
            host_window=DMAWindow(base=(4 + bank_id) * window, size=window),
        )
    victim_bank = controller.bank_for_core(0)
    aggressor_bank = controller.bank_for_core(1)
    period = 12_000.0
    total = 0.0
    latency_hist = get_registry().histogram(
        "audit_victim_latency_ns", resource="dma", tenant=VICTIM)
    for i in range(rounds):
        t = i * period
        if cotenant:
            aggressor_bank.to_nic(host, nic, host_addr=5 * window,
                                  nic_addr=window, n_bytes=32_768, now_ns=t)
        issue = t + 5.0
        done = victim_bank.to_nic(host, nic, host_addr=4 * window,
                                  nic_addr=0, n_bytes=4096, now_ns=issue)
        assert done is not None  # timed call always returns completion
        latency_hist.observe(done - issue)
        total += done - issue
    return total / rounds


def _cores_workload(snic: bool, cotenant: bool, rounds: int) -> float:
    """Victim mean cycles per scheduling round.

    Commodity NICs time-slice firmware threads across shared cores, so
    a co-tenant's slice shows up as stall cycles the victim can do
    nothing about; those are blamed through
    :meth:`ProgrammableCore.record_stalls`.  S-NIC allocates cores
    exclusively (§4.1): the victim runs undisturbed and nothing is
    attributed.
    """
    core = ProgrammableCore(0, PhysicalMemory(64 * 1024))
    core.bind(VICTIM)
    run_cycles = 1000.0
    slice_cycles = 800.0
    total = 0.0
    for _ in range(rounds):
        if cotenant and not snic:
            core.record_stalls(slice_cycles, culprit=AGGRESSOR)
            total += slice_cycles
        total += run_cycles
    return total / rounds


_WORKLOADS: Dict[str, Callable[[bool, bool, int], float]] = {
    "bus": _bus_workload,
    "cache": _cache_workload,
    "dram": _dram_workload,
    "dma": _dma_workload,
    "cores": _cores_workload,
}

_METRIC_LABEL = {
    "bus": "mean latency (ns)",
    "cache": "miss rate",
    "dram": "mean latency (ns)",
    "dma": "mean latency (ns)",
    "cores": "cycles/round",
}


def _measure_resource(resource: str, snic: bool, rounds: int) -> Dict[str, object]:
    """One resource under one config: solo run, co-tenant run, blame."""
    workload = _WORKLOADS[resource]
    solo, cotenant, matrix = run_legs(
        lambda with_cotenant: workload(snic, with_cotenant, rounds),
        resource=resource)
    cells = matrix.get(resource, {})
    percentiles = _victim_latency_percentiles()
    # A ratio is meaningless off a zero baseline (e.g. a 0% solo miss
    # rate); report null rather than a JSON-hostile Infinity.
    slowdown = cotenant / solo if solo > 0 else None
    return {
        "metric": _METRIC_LABEL[resource],
        "solo": solo,
        "cotenant": cotenant,
        "slowdown": slowdown,
        "cotenant_latency_percentiles": percentiles,
        "cross_tenant_wait_ns": cross_tenant_wait_ns(matrix),
        "cross_tenant_events": cross_tenant_events(matrix),
        "matrix": {f"{victim}->{culprit}": cell
                   for (victim, culprit), cell in sorted(cells.items())},
    }


def _victim_latency_percentiles() -> Optional[Dict[str, float]]:
    """p50/p95/p99 of the victim's co-tenant latency histogram, when the
    workload recorded one (latency-shaped resources only)."""
    for instrument in get_registry().instruments():
        if isinstance(instrument, Histogram) \
                and instrument.name == "audit_victim_latency_ns" \
                and instrument.count:
            return {"p50": instrument.p50, "p95": instrument.p95,
                    "p99": instrument.p99, "count": float(instrument.count)}
    return None


def _measure_config(snic: bool, rounds: int) -> Dict[str, object]:
    resources = {res: _measure_resource(res, snic, rounds)
                 for res in RESOURCES}
    return {
        "resources": resources,
        "cross_tenant_wait_ns": sum(
            float(r["cross_tenant_wait_ns"]) for r in resources.values()),  # type: ignore[arg-type]
        "cross_tenant_events": sum(
            float(r["cross_tenant_events"]) for r in resources.values()),  # type: ignore[arg-type]
    }


def _measure_side_channels(n_bits: int) -> Dict[str, object]:
    results = {
        "bus_watermark": {
            "commodity": bus_watermark_on_fcfs(n_bits=n_bits),
            "snic": bus_watermark_on_snic(n_bits=n_bits),
        },
        "cache_prime_probe": {
            "commodity": cache_covert_channel("shared", n_bits=n_bits),
            "snic": cache_covert_channel(HARD, n_bits=n_bits),
        },
    }
    out: Dict[str, object] = {}
    for channel, by_config in results.items():
        out[channel] = {
            config: {
                "accuracy": result.accuracy,
                "bits": result.bits,
                "capacity_bits_per_symbol": channel_capacity(result.accuracy),
                "closed": result.channel_closed,
            }
            for config, result in by_config.items()
        }
    return out


def run_audit(quick: bool = False) -> Dict[str, object]:
    """Run the full differential and build the scorecard dict."""
    scale = "quick" if quick else "full"
    rounds = _SCALE[scale]
    with study_scope():
        commodity = _measure_config(snic=False, rounds=rounds)
        snic = _measure_config(snic=True, rounds=rounds)
        metrics_mod.reset()  # leave no audit residue in the registry
        channels = _measure_side_channels(_CHANNEL_BITS[scale])
        violations = check_noninterference(
            n_trials=_NONINT_TRIALS[scale],
            steps_per_trial=_NONINT_STEPS[scale], seed=0)

    reasons: List[str] = []
    snic_cross = float(snic["cross_tenant_wait_ns"])  # type: ignore[arg-type]
    commodity_cross = float(commodity["cross_tenant_wait_ns"])  # type: ignore[arg-type]
    if snic_cross != 0.0:
        reasons.append(
            f"S-NIC config attributed {snic_cross:.1f} ns of cross-tenant "
            f"wait (must be exactly 0)")
    if commodity_cross <= 0.0:
        reasons.append(
            "commodity config attributed no cross-tenant wait "
            "(instrumentation is not seeing the interference)")
    for res in RESOURCES:
        report = commodity["resources"][res]  # type: ignore[index]
        if float(report["cross_tenant_wait_ns"]) <= 0.0:
            reasons.append(
                f"commodity {res} workload attributed no cross-tenant wait")
    for channel, by_config in channels.items():  # type: ignore[assignment]
        if not by_config["snic"]["closed"]:  # type: ignore[index]
            reasons.append(f"side channel {channel} is not closed under S-NIC")
    if violations:
        reasons.append(
            f"differential harness found {len(violations)} noninterference "
            f"violation(s)")

    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "rounds_per_workload": rounds,
        "tenants": {"victim": VICTIM, "aggressor": AGGRESSOR},
        "configs": {"commodity": commodity, "snic": snic},
        "side_channels": channels,
        "noninterference": {
            "trials": _NONINT_TRIALS[scale],
            "steps_per_trial": _NONINT_STEPS[scale],
            "violations": len(violations),
        },
        "verdict": {"pass": not reasons, "reasons": reasons},
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _legs_cell(report: Dict[str, Any]) -> str:
    slowdown = report["slowdown"]
    ratio = f"x{slowdown:.2f}" if slowdown is not None else "x n/a"
    return f"{_fmt(report['solo'])} -> {_fmt(report['cotenant'])} ({ratio})"


def _percentiles_cell(report: Dict[str, Any]) -> str:
    pct = report["cotenant_latency_percentiles"]
    return "/".join(f"{pct[q]:.0f}" for q in ("p50", "p95", "p99"))


def _view(scorecard: Dict[str, Any]) -> View:
    com, sni = (scorecard["configs"][config]["resources"]
                for config in ("commodity", "snic"))
    tables = [
        Table("per-resource differential",
              ("resource", "metric", "commodity solo -> co",
               "S-NIC solo -> co", "x-tenant wait ns (commodity / S-NIC)"),
              [(res, com[res]["metric"], _legs_cell(com[res]),
                _legs_cell(sni[res]),
                f"{_fmt(com[res]['cross_tenant_wait_ns'])} / "
                f"{_fmt(sni[res]['cross_tenant_wait_ns'])}")
               for res in RESOURCES]),
        Table("victim co-tenant latency p50/p95/p99 (ns)",
              ("resource", "commodity", "S-NIC"),
              [(res, _percentiles_cell(com[res]), _percentiles_cell(sni[res]))
               for res in RESOURCES
               if com[res]["cotenant_latency_percentiles"]
               and sni[res]["cotenant_latency_percentiles"]]),
    ]
    for label, resources in (("commodity", com), ("S-NIC", sni)):
        tables.append(Table(
            f"{label} blame matrix (co-tenant runs)",
            ("resource", "victim", "culprit", "wait ns", "events"),
            [(res, *key.split("->", 1), _fmt(cell["wait_ns"]),
              _fmt(cell["events"]))
             for res in RESOURCES
             for key, cell in resources[res]["matrix"].items()]))
    nonint = scorecard["noninterference"]
    tables.append(Table(
        "side channels",
        ("channel", "commodity accuracy", "commodity bits/symbol",
         "S-NIC accuracy", "S-NIC bits/symbol", "closed under S-NIC"),
        [(channel, *(f"{by[config][key]:.3f}"
                     for config in ("commodity", "snic")
                     for key in ("accuracy", "capacity_bits_per_symbol")),
          "yes" if by["snic"]["closed"] else "NO")
         for channel, by in scorecard["side_channels"].items()],
        notes=[f"noninterference harness: {nonint['violations']} "
               f"violation(s) over {nonint['trials']} trials x "
               f"{nonint['steps_per_trial']} steps"]))
    mode = "quick" if scorecard["quick"] else "full"
    return View(
        title="repro audit: isolation scorecard",
        meta=[f"mode: {mode} ({scorecard['rounds_per_workload']} rounds "
              f"per workload)"],
        tables=tables,
        verdict=scorecard["verdict"],
        claim="commodity attributes nonzero cross-tenant wait on every "
              "shared resource, S-NIC exactly zero")


def format_scorecard_text(scorecard: Dict[str, Any]) -> str:
    return render_text(_view(scorecard))


def format_scorecard_markdown(scorecard: Dict[str, Any]) -> str:
    return render_markdown(_view(scorecard))


format_scorecard_json = format_json

main = cli(prog="repro audit",
           description="Solo-vs-co-tenant isolation audit across every "
                       "shared hardware resource; exits 1 if the verdict "
                       "fails.",
           run=lambda args: run_audit(quick=args.quick), view=_view)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
