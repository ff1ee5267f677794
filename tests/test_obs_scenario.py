"""Tests for repro.obs.scenario — the packaged co-tenancy observability demo."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics
from repro.obs.scenario import run_cotenancy_scenario, sample_snic_gauges
from repro.obs.profile import Profiler


@pytest.fixture
def summary(tmp_path):
    return run_cotenancy_scenario(
        out_path=str(tmp_path / "trace.json"),
        n_packets=12,
        metrics_path=str(tmp_path / "metrics.json"),
    ), tmp_path


class TestCotenancyScenario:
    def test_summary_counts(self, summary):
        s, _ = summary
        assert s["packets_completed"] > 0
        assert s["events"] >= s["spans"] > 0

    def test_both_tenants_and_many_layers_traced(self, summary):
        s, _ = summary
        assert len(s["tenants"]) == 2
        # The demo exercises the whole stack: NIC OS lifecycle, cores,
        # accelerators, DMA, and the event-driven runtime all emit spans.
        assert {"runtime", "lifecycle", "accel", "dma"} <= set(s["layers"])
        assert len(s["span_layers"]) >= 3

    def test_trace_file_is_chrome_loadable(self, summary):
        s, tmp_path = summary
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["scenario"] == "cotenancy-demo"
        assert doc["otherData"]["tenants"] == s["tenants"]

    def test_metrics_file_written(self, summary):
        _, tmp_path = summary
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc  # at least one instrument exported

    def test_tracer_left_disabled(self, tmp_path):
        # The scenario arms its tracer on the caller's run only: code
        # in an enclosing run never sees it.
        from repro.obs.telemetry import current, open_run

        outer = current()
        with open_run() as run:
            summary = run_cotenancy_scenario(
                out_path=str(tmp_path / "t.json"), n_packets=4)
        assert run.tracer is summary["tracer"]
        assert current() is outer and outer.tracer is None

    def test_profiler_hook_times_kernel_events(self, tmp_path):
        prof = Profiler()
        run_cotenancy_scenario(out_path=str(tmp_path / "t.json"),
                               n_packets=8, profiler=prof)
        rows = prof.host_report()
        assert rows and rows[0]["events"] > 0
        assert sum(r["host_ns"] for r in rows) > 0


class TestSampleSnicGauges:
    def test_live_nf_gets_occupancy_gauge(self, nic_os, snic, basic_config):
        nic_os.NF_create(basic_config)
        registry = metrics.MetricsRegistry()
        sample_snic_gauges(snic, registry)
        names = {r["name"] for r in registry.snapshot()}
        assert "l2_occupancy_lines" in names

    def test_fresh_snic_samples_nothing(self, snic):
        registry = metrics.MetricsRegistry()
        sample_snic_gauges(snic, registry)
        assert registry.snapshot() == []
