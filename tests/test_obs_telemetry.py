"""Run-owned telemetry: runs share nothing, nest cleanly, and a spec's
report does not depend on what ran before it in the same process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import NFConfig, NICOS, SNIC
from repro.hw.events import Simulator
from repro.obs.auditlog import AuditLog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, current, open_run
from repro.obs.tracer import Tracer

MB = 1024 * 1024
SRC = Path(__file__).resolve().parent.parent / "src"


def launch_and_tear_down(name: str) -> None:
    """Touch every sink: instruments, audit records, kernel events."""
    snic = SNIC(n_cores=2, dram_bytes=64 * MB, key_seed=7)
    nf_id = NICOS(snic).NF_create(NFConfig(
        name=name, core_ids=(0,), memory_bytes=4 * MB)).nf_id
    snic.l2.access(0, owner=nf_id)
    snic.nf_teardown(nf_id)
    sim = Simulator()
    sim.schedule(40, lambda: None)
    sim.run()


def state_of(telemetry: Telemetry) -> dict:
    return {
        "metrics": json.dumps(telemetry.registry.snapshot(),
                              sort_keys=True),
        "instruments": len(telemetry.registry),
        "audit_head": telemetry.audit_log.head(),
        "audit_records": len(telemetry.audit_log),
        "events_executed": telemetry.events_executed,
        "sim_ns_advanced": telemetry.sim_ns_advanced,
    }


class TestNestedRuns:
    def test_inner_run_leaves_the_outer_run_unchanged(self, telemetry):
        telemetry.arm(audit_log=AuditLog())
        launch_and_tear_down("outer")
        before = state_of(telemetry)
        assert before["audit_records"] and before["events_executed"]

        with open_run() as inner:
            assert current() is inner and inner is not telemetry
            assert inner.audit is None and len(inner.registry) == 0
            inner.arm(audit_log=AuditLog())
            launch_and_tear_down("inner")
            assert len(inner.audit_log) == before["audit_records"]
            assert inner.events_executed == before["events_executed"]

        assert current() is telemetry
        assert state_of(telemetry) == before

    def test_a_component_keeps_the_run_it_was_built_in(self, telemetry):
        from repro.hw.bus import FCFSArbiter, IOBus

        bus = IOBus(FCFSArbiter(bandwidth_bytes_per_ns=1.0))
        with open_run() as inner:
            inner.arm(tracer=Tracer())
            bus.transfer(1, 100, now_ns=0.0)
        assert len(inner.registry) == 0 and not inner.tracer.events
        assert telemetry.registry.counter(
            "bus_bytes_total", bus=bus._obs_label, tenant=1).value == 100.0

    def test_arm_rejects_unknown_sinks(self):
        with pytest.raises(TypeError):
            Telemetry().arm(registry=None)

    def test_audit_sink_prefers_the_log_and_mirrors_to_flight(self):
        telemetry = Telemetry()
        log, flight = AuditLog(), FlightRecorder()
        telemetry.arm(flight=flight)
        assert telemetry.audit is flight
        telemetry.arm(audit_log=log)
        assert telemetry.audit is log and log.mirror is flight


def test_empty_sinks_passed_in_are_kept(telemetry):
    """An empty registry or audit log is falsy (both define __len__); a
    sink parameter must still win over the current run's sink."""
    from repro.obs import openmetrics
    from repro.obs.postmortem import build_bundle
    from repro.obs.windows import WindowedAggregator

    telemetry.arm(audit_log=AuditLog())
    telemetry.audit.emit("memory.scrub", tenant=1, pages=1)
    telemetry.accountant.blame("bus", victim=1, culprit=2, wait_ns=5.0)
    registry, log = MetricsRegistry(), AuditLog()
    assert not registry and not log

    bundle = build_bundle(reason="r", audit=log, registry=registry)
    assert bundle["metrics"] == [] and bundle["audit"]["n_records"] == 0
    assert "interference" not in openmetrics.render(registry)
    agg = WindowedAggregator(Simulator(), window_ns=10, registry=registry)
    agg.rotate(now_ns=10)
    assert agg.snapshots[0].counters == {}
    # The run's own sinks were left alone.
    assert len(telemetry.audit_log) == 1 and len(telemetry.registry) == 2


# ----------------------------------------------------------------------
# One process vs fresh processes
# ----------------------------------------------------------------------

#: Runs one named spec and prints its report as canonical JSON.
RUN_ONE = """
import json, sys
from repro.obs.scorecard import make_scorecard_spec, run_spec
from repro.scenario.matrix import MatrixCell, run_cell

def run_one(which, postmortem_dir):
    if which == "scorecard":
        report = run_spec(make_scorecard_spec("fcfs", 4, seed=1, quick=True),
                          quick=True)
    else:
        cell = MatrixCell(nic_model="snic", tenant_count=4,
                          fault_class="dma_error", arbiter="fcfs", seed=5)
        report = run_cell(cell, quick=True,
                          postmortem_dir=postmortem_dir).as_dict()
    return json.dumps(report, sort_keys=True)

if __name__ == "__main__":
    print(run_one(sys.argv[1], sys.argv[2]))
"""

SPECS = ("scorecard", "matrix")


def in_fresh_process(which: str, postmortem_dir: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", RUN_ONE, which, postmortem_dir],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return done.stdout.strip()


def test_back_to_back_specs_match_fresh_processes(tmp_path):
    """Two different specs run back to back in this process report
    byte for byte what each reports alone in a fresh process."""
    namespace: dict = {}
    exec(compile(RUN_ONE, "<run_one>", "exec"), namespace)
    here = [namespace["run_one"](which, str(tmp_path / "here"))
            for which in SPECS]
    fresh = [in_fresh_process(which, str(tmp_path / "fresh"))
             for which in SPECS]
    assert here == fresh

    scorecard, cell = (json.loads(report) for report in here)
    assert scorecard["audit"]["records"] > 0 and scorecard["audit"]["chain_ok"]
    assert cell["status"] == "ok" and cell["outputs"]["faults_injected"] > 0
    assert cell["events_executed"] > 0 and cell["metrics_instruments"] > 0
