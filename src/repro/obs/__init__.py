"""``repro.obs`` — unified observability for the whole simulation stack.

Three pieces, designed to be cheap enough to leave compiled into every
hot layer:

* :mod:`repro.obs.tracer` — a span/instant/counter event tracer with a
  no-op fast path when disabled.  Hooks live in ``hw.cache``,
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
  simulated nanoseconds and host wall-time to (layer, tenant,
  operation) frames, with flamegraph (collapsed-stack) and top-N
  report exporters.
* :mod:`repro.obs.bench` — the unified benchmark harness behind
  ``python -m repro bench``: runs every ``benchmarks/bench_*.py``
  scenario under a fresh registry and writes a schema-versioned
  ``BENCH_<timestamp>.json`` with wall-time, sim-time, and event-count
  telemetry, plus artifact diffing with regression flags.
* :mod:`repro.obs.interference` — per-tenant contention attribution:
  every shared hardware resource blames each nanosecond a victim
  waited on the co-tenant that caused it
  (``interference_wait_ns_total{resource, tenant, culprit}``), and
  :func:`blame_matrix` reconstructs who-made-whom-wait matrices.
* :mod:`repro.obs.timeseries` — a kernel-driven periodic sampler:
  ring-buffered, deterministic metric-over-sim-time series with
  CSV/JSON export, replacing ad-hoc per-benchmark sampling loops.
* :mod:`repro.obs.audit` — ``python -m repro audit``: the
  solo-vs-co-tenant isolation scorecard (interference matrices,
  slowdown deltas, side-channel capacities, noninterference verdict).
* :mod:`repro.obs.flight` — the flight recorder: a bounded,
  sim-time-windowed ring of recent audit events, mirrored trace
  events, and metric deltas; strictly no-op when disabled.
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
  sim-time windowed delta aggregation, SRE multi-window burn-rate
  alerting (page/ticket tiers, audit-logged), an OpenMetrics text
  exporter + strict checker, and the arbiter-sweep scorecard CLI.

Quickstart::

    from repro import obs

    tracer = obs.enable_tracing(clock=lambda: sim.now_ns)
    ...  # run any experiment
    obs.write_chrome_trace(tracer, "trace.json")   # load in Perfetto
    print(obs.format_metrics_table(obs.get_registry()))

or run the packaged co-tenancy demo end to end::

    python -m repro trace -o snic_trace.json
"""

from repro.obs.auditlog import (
    GENESIS,
    AuditEmitter,
    AuditLog,
    disable_audit_log,
    enable_audit_log,
    get_audit_log,
    get_emitter,
    verify_records,
)
from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.flight import (
    FlightEntry,
    FlightRecorder,
    disable_flight_recording,
    enable_flight_recording,
    get_flight_recorder,
)
from repro.obs.interference import (
    InterferenceAccountant,
    blame_matrix,
    cross_tenant_events,
    cross_tenant_wait_ns,
    get_accountant,
)
from repro.obs.export import (
    format_metrics_table,
    metrics_rows,
    metrics_to_csv,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    instance_label,
)
from repro.obs.metrics import reset as reset_metrics
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
from repro.obs.timeseries import Series, TimeSeriesSampler, sample_function
from repro.obs.windows import WindowedAggregator, WindowSnapshot
from repro.obs.tracer import (
    NOOP_SPAN,
    TraceEvent,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
)

__all__ = [
    "AuditEmitter",
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
    "NOOP_SPAN",
    "ObjectiveResult",
    "Profiler",
    "SLOError",
    "SLOSpec",
    "Series",
    "TenantSLO",
    "TimeSeriesSampler",
    "TraceEvent",
    "Tracer",
    "WindowSnapshot",
    "WindowedAggregator",
    "blame_matrix",
    "build_bundle",
    "cross_tenant_events",
    "cross_tenant_wait_ns",
    "diff_bundles",
    "disable_audit_log",
    "disable_flight_recording",
    "disable_tracing",
    "enable_audit_log",
    "enable_flight_recording",
    "enable_tracing",
    "evaluate_tenant",
    "format_metrics_table",
    "get_accountant",
    "get_audit_log",
    "get_emitter",
    "get_flight_recorder",
    "get_registry",
    "get_tracer",
    "instance_label",
    "load_bundle",
    "metrics_rows",
    "metrics_to_csv",
    "profile_cotenancy_scenario",
    "render_openmetrics",
    "reset_metrics",
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
