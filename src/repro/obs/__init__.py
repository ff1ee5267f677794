"""``repro.obs`` — unified observability for the whole simulation stack.

Three pieces, designed to be cheap enough to leave compiled into every
hot layer:

* :mod:`repro.obs.telemetry` — one :class:`Telemetry` per run holding
  every sink below; :func:`open_run` makes a fresh one current and
  components read their run's sinks, ``None`` while disarmed.
* :mod:`repro.obs.tracer` — a span/instant/counter event tracer, armed
  per run.  Hooks live in ``hw.cache``,
  ``hw.bus``, ``hw.dma``, ``hw.accelerator``, ``core.snic`` and
  ``core.runtime``; events are tenant-tagged so per-tenant interference
  on shared resources is directly visible.
* :mod:`repro.obs.metrics` — a registry of labelled counters, gauges
  and fixed-bucket histograms that components instrument into instead
  of keeping ad-hoc ``hits``/``misses`` attributes (the old attribute
  names survive as read-through properties).
* exporters — Chrome ``trace_event`` JSON for Perfetto
  (:mod:`repro.obs.chrome_trace`), flat CSV/JSON metric dumps and a
  table printer (:mod:`repro.obs.export`).
* :mod:`repro.obs.profile` — a deterministic profiler attributing
  simulated nanoseconds to (layer, tenant, operation) frames, with
  flamegraph (collapsed-stack) and top-N report exporters.
* :mod:`repro.obs.bench` — the unified benchmark harness behind
  ``python -m repro bench``: runs every ``benchmarks/bench_*.py``
  scenario in its own run and writes a schema-versioned
  ``BENCH_<timestamp>.json`` with wall-time, sim-time, and event-count
  telemetry, plus artifact diffing with regression flags.
* :mod:`repro.obs.interference` — per-tenant contention attribution:
  every shared hardware resource blames each nanosecond a victim
  waited on the co-tenant that caused it
  (``interference_wait_ns_total{resource, tenant, culprit}``), and
  :func:`blame_matrix` reconstructs who-made-whom-wait matrices.
* :mod:`repro.obs.audit` — ``python -m repro audit``: the
  solo-vs-co-tenant isolation scorecard (interference matrices,
  slowdown deltas, side-channel capacities, noninterference verdict).
* :mod:`repro.obs.flight` — the flight recorder: a bounded,
  sim-time-windowed ring of recent audit events and mirrored trace
  events; strictly no-op when disabled.
* :mod:`repro.obs.auditlog` — an append-only, sha256 hash-chained
  audit log of security-relevant events (attestation verdicts, page
  scrubs, TLB installs, cross-tenant denials, faults, recovery
  actions); flipping any serialized byte breaks the chain at a
  reported index.
* :mod:`repro.obs.postmortem` — forensics bundles assembled on
  isolation violations / watchdog timeouts / recovery exhaustion
  (flight tail, audit excerpt + chain head, metrics snapshot,
  interference attribution, active ScenarioSpec), plus the
  ``python -m repro postmortem`` pretty-print/verify/diff CLI.
* :mod:`repro.obs.slo` / :mod:`repro.obs.windows` /
  :mod:`repro.obs.openmetrics` / :mod:`repro.obs.scorecard` — the
  per-tenant SLO layer behind ``python -m repro slo``: frozen
  ``SLOSpec``/``TenantSLO`` objectives attached to scenario tenants,
  the sim-time windowed series (delta windows for the SLO layer, gauge
  samples for the Figure 5b time series), SRE multi-window burn-rate
  alerting (page/ticket tiers, audit-logged), an OpenMetrics text
  exporter + strict checker, and the arbiter-sweep scorecard CLI.

Quickstart::

    from repro import obs

    with obs.open_run() as tel:
        tracer = obs.Tracer(clock=lambda: sim.now_ns)
        tel.arm(tracer=tracer)
        ...  # run any experiment
        obs.write_chrome_trace(tracer, "trace.json")   # load in Perfetto
        print(obs.format_metrics_table(tel.registry))

or run the packaged co-tenancy demo end to end::

    python -m repro trace -o snic_trace.json
"""

from repro.obs.auditlog import GENESIS, AuditLog, verify_records
from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.flight import FlightEntry, FlightRecorder
from repro.obs.interference import (
    InterferenceAccountant,
    blame_matrix,
    cross_tenant_events,
    cross_tenant_wait_ns,
)
from repro.obs.export import (
    format_metrics_table,
    metrics_rows,
    metrics_to_csv,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.postmortem import (
    build_bundle,
    diff_bundles,
    load_bundle,
    verify_bundle,
    write_bundle,
)
from repro.obs.openmetrics import render as render_openmetrics
from repro.obs.openmetrics import validate_text as validate_openmetrics
from repro.obs.openmetrics import write as write_openmetrics
from repro.obs.profile import Profiler, profile_cotenancy_scenario
from repro.obs.slo import (
    BurnRateAlert,
    BurnRateAlerter,
    BurnRateTier,
    ObjectiveResult,
    SLOError,
    SLOSpec,
    TenantSLO,
    evaluate_tenant,
)
from repro.obs.windows import (
    Series,
    WindowedAggregator,
    WindowSnapshot,
    sample_function,
)
from repro.obs.telemetry import Telemetry, current, open_run
from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "AuditLog",
    "BurnRateAlert",
    "BurnRateAlerter",
    "BurnRateTier",
    "Counter",
    "FlightEntry",
    "FlightRecorder",
    "GENESIS",
    "Gauge",
    "Histogram",
    "InterferenceAccountant",
    "MetricsRegistry",
    "ObjectiveResult",
    "Profiler",
    "SLOError",
    "SLOSpec",
    "Series",
    "Telemetry",
    "TenantSLO",
    "TraceEvent",
    "Tracer",
    "WindowSnapshot",
    "WindowedAggregator",
    "blame_matrix",
    "build_bundle",
    "cross_tenant_events",
    "cross_tenant_wait_ns",
    "current",
    "diff_bundles",
    "evaluate_tenant",
    "format_metrics_table",
    "load_bundle",
    "metrics_rows",
    "metrics_to_csv",
    "open_run",
    "profile_cotenancy_scenario",
    "render_openmetrics",
    "sample_function",
    "to_chrome_trace",
    "validate_openmetrics",
    "verify_bundle",
    "verify_records",
    "write_bundle",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_metrics_json",
    "write_openmetrics",
]
