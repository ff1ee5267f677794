"""Tests for repro.obs.scenario — the packaged co-tenancy observability demo."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs import metrics
from repro.obs.scenario import run_cotenancy_scenario, sample_snic_gauges


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

    @pytest.mark.parametrize("n_packets,digest,samples", [
        (16, "13472167847e0fdaee8a493ac8ff29e0"
             "5947657efa7456126a29c2e983e749cf", 9),
        (60, "f8977493a367361f3a2ebd545fd6c25a"
             "07d6f5b207fd95cc256030ff40cded7b", 26),
    ])
    def test_fig5b_series_csv_is_pinned(self, tmp_path, n_packets, digest,
                                        samples):
        # The Figure 5b co-tenancy series: per-tenant RX-ring occupancy
        # and completed packets, one row per poll interval plus the row
        # after the last completion.
        csv_path = tmp_path / "fig5b.csv"
        s = run_cotenancy_scenario(out_path=str(tmp_path / "t.json"),
                                   n_packets=n_packets,
                                   timeseries_path=str(csv_path))
        text = csv_path.read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest
        assert s["timeseries_samples"] == samples
        assert len(text.splitlines()) == samples + 1


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
