"""The benchmark's own tests: names, output checks, digests, wrappers.

    python3 -m pytest perfbench -q

Workloads run here at reduced scale so the file finishes in well under
a minute; the measured scale lives in ``workloads.py``.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from layers import SPAN_SITES, Probe, _resolve  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def layer_units():
    units = {name: unit for name, (_, unit)
             in Probe(trace=True).layer_metrics(0.0).items()}
    units["trace.overhead"] = "ratio"
    return units


# ----------------------------------------------------------------------
# BENCHMARK.json against the code
# ----------------------------------------------------------------------


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names + list(layer_units()):
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: w.why for name, w in W.WORKLOADS.items()}
    for workload in BENCHMARK["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        layer_units()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Output checks accept the real report and reject a wrong one
# ----------------------------------------------------------------------


def run(workload, *args, trace=False, **kwargs):
    with Probe(trace) as probe:
        report = workload(*args, probe, **kwargs)
    return report, probe


@pytest.fixture(scope="module")
def fcfs():
    return run(W.run_slo, "fcfs", 1, n_tenants=8)[0]


@pytest.fixture(scope="module")
def temporal():
    return run(W.run_slo, "temporal", 1, n_tenants=8)[0]


@pytest.fixture(scope="module")
def mix():
    report, probe = run(W.run_packets_mix, 1, n_packets=1500)
    W.annotate_packets_mix(report)
    return report, probe


@pytest.fixture(scope="module")
def chaos():
    return run(W.run_chaos_audit, 1, n_seeds=1,
               kinds=("bus_babble", "nf_crash"))


def verdict_ok(verdict):
    attempted, failed, problems = verdict
    return attempted > 0 and failed == 0 and not problems


def test_slo_fcfs_check(fcfs):
    assert verdict_ok(W.check_slo_fcfs(fcfs))
    for mutate in (
            lambda r: r["scorecard"].update(n_fail=0),
            lambda r: r["scorecard"].update(alerts=[]),
            lambda r: r["scorecard"]["audit"].update(chain_ok=False),
            lambda r: r["scorecard"]["tenants"].pop(),
            lambda r: r["scorecard"]["tenants"][0].update(
                completed=r["scorecard"]["tenants"][0]["completed"] - 1)):
        wrong = copy.deepcopy(fcfs)
        mutate(wrong)
        assert W.check_slo_fcfs(wrong)[2]


def test_slo_temporal_check(temporal):
    assert verdict_ok(W.check_slo_temporal(temporal))
    for mutate in (
            lambda r: r["scorecard"]["tenants"][3].update(
                cross_tenant_wait_ns=5.0),
            lambda r: r["scorecard"].update(cross_tenant_wait_ns=5.0),
            lambda r: r["scorecard"]["tenants"][0].update(passed=False),
            lambda r: r["scorecard"].update(alerts=[{"tier": "page"}])):
        wrong = copy.deepcopy(temporal)
        mutate(wrong)
        assert W.check_slo_temporal(wrong)[2]


def test_packets_mix_conservation(mix):
    report, probe = mix
    assert verdict_ok(W.check_packets_mix(report))
    # The lpm tenant's NF-verdict drops close its sum, counted by the
    # nf.* wrappers, while the runtime's own drop counter stays 0.
    lpm = report["verdict_drops"].get("t-lpm", 0)
    assert lpm == probe.nf_drops["lpm"]
    assert report["offered"]["t-lpm"] == lpm + \
        report["outputs"]["per_tenant_completed"]["t-lpm"]

    lost = copy.deepcopy(report)
    lost["outputs"]["per_tenant_completed"]["t-firewall"] -= 1
    lost["outputs"]["packets_completed"] -= 1
    attempted, failed, problems = W.check_packets_mix(lost)
    assert failed == 1 and problems

    extra = copy.deepcopy(report)
    extra["verdict_drops"]["t-nat"] = extra["verdict_drops"].get("t-nat", 0) + 2
    attempted, failed, problems = W.check_packets_mix(extra)
    assert failed == 2 and problems


def test_chaos_audit_check(chaos):
    chaos = chaos[0]
    assert verdict_ok(W.check_chaos_audit(chaos))
    for mutate in (
            lambda r: r["chaos"][0]["kinds"]["bus_babble"]["snic"].update(
                disruption_total=1.0),
            lambda r: r["chaos"][0]["kinds"]["nf_crash"]["snic"].update(
                cross_tenant_wait_ns=3.0),
            lambda r: r["chaos"][0]["kinds"]["nf_crash"]["commodity"].update(
                disruption_total=0.0),
            lambda r: r["audit"]["configs"]["snic"]["resources"]["bus"]
            .update(cross_tenant_wait_ns=1.0),
            lambda r: r["audit"]["side_channels"]["bus_watermark"]["snic"]
            .update(closed=False)):
        wrong = copy.deepcopy(chaos)
        mutate(wrong)
        attempted, failed, problems = W.check_chaos_audit(wrong)
        assert failed == 1 and problems


# ----------------------------------------------------------------------
# Digests and wrapper safety
# ----------------------------------------------------------------------


def test_digest_is_stable_in_process(temporal, mix):
    again = run(W.run_slo, "temporal", 1, n_tenants=8)[0]
    assert W.digest(again) == W.digest(temporal)
    traced, _ = run(W.run_packets_mix, 1, trace=True, n_packets=1500)
    W.annotate_packets_mix(traced)
    assert W.digest(traced) == W.digest(mix[0])
    other_seed, _ = run(W.run_packets_mix, 2, n_packets=1500)
    W.annotate_packets_mix(other_seed)
    assert W.digest(other_seed) != W.digest(mix[0])


def test_probe_restores_every_attribute(chaos):
    from repro.core.runtime import SNICRuntime
    from repro.hw.dma import DMABank
    from repro.net.packet import Packet
    from repro.scenario.build import BuiltScenario

    owners = [_resolve(module, cls) for module, cls, _, _ in SPAN_SITES]
    before = [dict(vars(owner)) for owner in owners]
    attrs = (BuiltScenario.deploy, SNICRuntime.attach, DMABank.to_nic,
             vars(Packet)["from_bytes"])
    # chaos-audit runs IsoSan and FaultInjector inside the probe's scope.
    report, probe = run(W.run_chaos_audit, 1, trace=True, n_seeds=1,
                        kinds=("dma_error", "nf_crash"))
    assert probe.spans.stats("hw.dma").calls > 0
    assert probe.injected > 0
    assert [dict(vars(owner)) for owner in owners] == before
    assert attrs == (BuiltScenario.deploy, SNICRuntime.attach,
                     DMABank.to_nic, vars(Packet)["from_bytes"])
    untraced_report, untraced_probe = chaos
    assert W.digest(report["chaos"][0]["kinds"]["nf_crash"]) == \
        W.digest(untraced_report["chaos"][0]["kinds"]["nf_crash"])
    # The crashed NF is re-attached under a new identity: counted once.
    assert probe.nf_calls == untraced_probe.nf_calls
    assert probe.spans.stats("nf.monitor").calls == \
        probe.nf_calls["monitor"]
