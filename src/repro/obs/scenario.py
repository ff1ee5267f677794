"""The packaged co-tenancy observability scenario.

``python -m repro trace`` runs this: two tenant network functions on
one S-NIC, their packets flowing through the event-driven runtime while
both tenants contend for the shared microarchitecture — the L2 cache,
the temporally partitioned IO bus, per-tenant DPI accelerator clusters,
and the DMA banks.  Every layer's instrumentation hooks fire, and the
recorded spans are exported as a Chrome ``trace_event`` JSON that loads
in ``chrome://tracing`` or https://ui.perfetto.dev.

The point of the demo is the paper's isolation story made visible:
tenant-1 and tenant-2 spans on the *same* shared-resource track
(``bus``, ``l2``) interleave without overlapping service — temporal
partitioning at work — while each tenant's private tracks (clusters,
rings) evolve independently.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs import chrome_trace, export, metrics, tracer as tracer_mod
from repro.obs.timeseries import TimeSeriesSampler

MB = 1024 * 1024


class _ManualClock:
    """A deterministic nanosecond cursor for post-run direct driving."""

    def __init__(self, start_ns: float) -> None:
        self.now_ns = float(start_ns)

    def __call__(self) -> float:
        return self.now_ns

    def advance(self, delta_ns: float) -> float:
        self.now_ns += delta_ns
        return self.now_ns


def sample_snic_gauges(snic, registry: Optional[metrics.MetricsRegistry] = None) -> None:
    """Pull-style gauges over live component state: per-cluster and
    per-core TLB hit rates, L2 occupancy per tenant, bus backlog.

    Components keep their TLB lookup/miss tallies as plain attributes
    (too hot even for counter increments); this snapshots them into the
    registry on demand, which is the zero-overhead half of the §4.2/§4.3
    "per-bank TLB hit rate" telemetry.
    """
    # NB: an empty MetricsRegistry is falsy (it defines __len__), so an
    # ``or`` default would silently discard a freshly created registry.
    if registry is None:
        registry = metrics.get_registry()
    for record in (snic.record(nf_id) for nf_id in snic.live_functions):
        for cluster in record.clusters:
            if cluster.tlb.lookups:
                registry.gauge(
                    "accel_tlb_hit_rate", cluster=cluster._obs_label,
                    kind=cluster.kind.value, tenant=record.nf_id).set(
                    1.0 - cluster.tlb.misses / cluster.tlb.lookups)
        registry.gauge("l2_occupancy_lines",
                       tenant=record.nf_id).set(snic.l2.occupancy(record.nf_id))
    for core in snic.cores:
        if core.tlb.lookups:
            registry.gauge("core_tlb_hit_rate", core=core.core_id,
                           tenant=core.owner).set(
                1.0 - core.tlb.misses / core.tlb.lookups)
    for bank in snic.dma.banks:
        if bank.owner is not None:
            registry.gauge("dma_bank_bytes", bank=bank.bank_id,
                           tenant=bank.owner).set(bank.bytes_moved)


def run_cotenancy_scenario(
    out_path: str = "snic_trace.json",
    n_packets: int = 60,
    metrics_path: Optional[str] = None,
    profiler=None,
    timeseries_path: Optional[str] = None,
    spec=None,
) -> Dict[str, object]:
    """Run the co-tenancy demo and write a Perfetto-loadable trace.

    The device, tenants, runtime, and offered load come from the
    scenario registry's ``cotenancy-demo`` spec (or any
    :class:`~repro.scenario.spec.ScenarioSpec` passed as ``spec``),
    materialized through :func:`repro.scenario.build.build_scenario` —
    this harness only owns the observability choreography on top.

    Returns a summary dict (paths, counts, layers covered, tenants
    observed) used by the CLI and asserted by the test suite.  Passing a
    :class:`repro.obs.profile.Profiler` additionally hooks the
    event-driven phase's kernel, so host wall-time per executed event is
    attributed alongside the simulated-time span profile.

    The event-driven phase also carries a
    :class:`repro.obs.timeseries.TimeSeriesSampler` on the runtime's
    kernel: per-tenant RX-ring occupancy and completed-packet counts are
    sampled every poll interval (``timeseries_path`` exports the series
    as CSV; the sampler itself is returned under ``"timeseries"``).
    """
    # Imports here keep ``import repro.obs`` itself dependency-light.
    from repro.hw.accelerator import AcceleratorRequest
    from repro.scenario.build import build_scenario
    from repro.scenario.builtin import cotenancy_spec

    if spec is None:
        spec = cotenancy_spec(n_packets=n_packets)
    n_packets = spec.traffic.n_packets

    tracer = tracer_mod.get_tracer()
    registry = metrics.get_registry()
    tracer.enable()
    tracer.clear()

    with build_scenario(spec) as built:
        snic, nic_os = built.snic, built.nic_os
        host = built.host_memory
        runtime = built.runtime
        tenants = tuple(built.nf_ids)

        # --------------------------------------------------------------
        # Phase 1: packets through the event-driven runtime (runtime +
        # lifecycle layers; clock = simulated nanoseconds).
        # --------------------------------------------------------------
        if profiler is not None:
            profiler.attach_kernel(runtime.sim)
        runtime.inject(built.make_packets())
        # Kernel-driven sampling: one aligned row per poll interval,
        # ending with the run at the last completion (observer ticks).
        sampler = TimeSeriesSampler(runtime.sim,
                                    interval_ns=runtime.poll_interval_ns)
        for tenant in tenants:
            record = snic.record(tenant)
            sampler.watch(f"rx_ring_occupancy[{tenant}]",
                          lambda r=record: float(r.vpp.rx_ring.occupancy))
        sampler.watch("packets_completed",
                      lambda: float(runtime.stats.completed))
        sampler.start()
        stats = runtime.run()
        sampler.stop()
        sampler.sample_now()  # the state after the last completion
        if profiler is not None:
            profiler.detach_kernel(runtime.sim)
        if timeseries_path:
            sampler.write_csv(timeseries_path)

        # --------------------------------------------------------------
        # Phase 2: direct contention on the shared microarchitecture
        # (cache, bus, accelerator, DMA layers) on a manual cursor that
        # continues the simulated timeline.
        # --------------------------------------------------------------
        clock = _ManualClock(runtime.sim.now_ns + 1_000)
        tracer.use_clock(clock)

        # Shared L2: the tenants stream over disjoint address ranges;
        # every fill beyond their partitioned ways shows up as a miss
        # span.
        for round_index in range(48):
            for tenant in tenants:
                addr = (tenant * 0x100000) + (round_index % 24) * 64
                snic.l2.access(addr, tenant)
                clock.advance(40)

        # Shared bus: alternating transfers through the temporal-
        # partition arbiter — the wait beyond wire time is each tenant's
        # epoch gap.
        for round_index in range(12):
            for tenant in tenants:
                snic.bus.transfer(tenant, 2048, clock.now_ns)
                clock.advance(250)

        # Accelerators: each tenant saturates its own DPI cluster.
        for tenant in tenants:
            clusters = snic.record(tenant).clusters
            if not clusters:
                continue
            for round_index in range(6):
                clusters[0].submit(AcceleratorRequest(
                    owner=tenant, n_bytes=512,
                    issue_ns=clock.now_ns + round_index * 500))
            clock.advance(4_000)

        # DMA: stage 4 KB of workload data into each tenant's extent.
        for tenant in tenants:
            record = snic.record(tenant)
            bank = snic.dma.bank_for_core(record.config.core_ids[0])
            bank.to_nic(host, snic.memory, host_addr=0,
                        nic_addr=record.extent_base + 64 * 1024,
                        n_bytes=4096)
            clock.advance(1_000)

        # Lifecycle epilogue: attest the first tenant, tear down the
        # last (the builder's clean_up destroys whatever remains).
        snic.nf_attest(tenants[0], nonce=b"obs-demo")
        nic_os.NF_destroy(tenants[-1])

        sample_snic_gauges(snic, registry)

        # --------------------------------------------------------------
        # Export
        # --------------------------------------------------------------
        layers = sorted({e.cat for e in tracer.events})
        span_layers = sorted({e.cat for e in tracer.events if e.ph == "X"})
        traced_tenants = sorted(t for t in tracer.tenants()
                                if t is not None)
        chrome_trace.write_chrome_trace(tracer, out_path, metadata={
            "scenario": spec.name,
            "tenants": traced_tenants,
            "packets": n_packets,
        })
        if metrics_path:
            export.write_metrics_json(registry, metrics_path)

        summary: Dict[str, object] = {
            "trace_path": out_path,
            "metrics_path": metrics_path,
            "events": len(tracer.events),
            "spans": len(tracer.spans()),
            "layers": layers,
            "span_layers": span_layers,
            "tenants": traced_tenants,
            "tracks": tracer.tracks(),
            "packets_completed": stats.completed,
            "packets_dropped": stats.dropped,
            "timeseries": sampler,
            "timeseries_path": timeseries_path,
            "timeseries_samples": sampler.samples_taken,
        }
    tracer.use_clock(None)
    tracer.disable()
    return summary
