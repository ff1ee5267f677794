"""The benchmark's four workloads and their output checks.

Each workload is a batch job whose offered load is open-loop in
*simulated* time (a fixed arrival schedule from the spec) and runs on
the host as one closed-loop client with no threads.  ``run`` takes the
benchmark seed and returns a JSON-able report of simulated outputs only
(no host times), so the same seed gives a byte-identical report and the
report's sha256 is the workload's model digest.  ``check`` turns a
report into ``(attempted, failed, problems)``; it reads nothing but the
report, so a deliberately wrong report can be fed to it directly.
``annotate`` adds the check's own reference data (such as offered load
recomputed from the spec) after the timed run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from layers import NF_KINDS, Probe

Report = Dict[str, Any]
Verdict = Tuple[int, int, List[str]]

#: Tenants in each SLO scorecard cell.
SLO_TENANTS = 128
#: Packets offered by packets-mix.
MIX_PACKETS = 20_000
#: run_chaos seeds per chaos-audit run, derived from the benchmark seed.
CHAOS_SEEDS = 2


def digest(report: Report) -> str:
    """sha256 of the report's canonical JSON."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conservation(offered: Dict[str, int], completed: Dict[str, int],
                 verdict_drops: Dict[str, int], runtime_dropped: int,
                 ) -> Verdict:
    """Per tenant, offered = completed + NF-verdict drops + runtime drops.

    Runtime drops happen at the RX port before a tenant is known, so
    they close the sum over all tenants rather than each tenant's.
    Each packet that the sum cannot place counts as one failure.
    """
    problems: List[str] = []
    failed = 0
    missing = 0
    for tenant, n in sorted(offered.items()):
        gap = n - completed.get(tenant, 0) - verdict_drops.get(tenant, 0)
        if gap < 0:
            problems.append(f"{tenant}: {-gap} more packets completed or "
                            f"dropped than offered")
            failed += -gap
        else:
            missing += gap
    unexplained = missing - runtime_dropped
    if unexplained:
        problems.append(f"{unexplained} packets neither completed nor "
                        f"dropped (runtime drops: {runtime_dropped})")
        failed += abs(unexplained)
    return sum(offered.values()), failed, problems


# ----------------------------------------------------------------------
# slo-fcfs / slo-temporal
# ----------------------------------------------------------------------


def run_slo(arbiter: str, seed: int, probe: Probe,
            n_tenants: int = SLO_TENANTS) -> Report:
    from repro.obs.scorecard import make_scorecard_spec, run_spec

    card = run_spec(make_scorecard_spec(arbiter, n_tenants, seed,
                                        quick=True), quick=True)
    by_id = {row["nf_id"]: row["tenant"] for row in card["tenants"]}
    drops = {by_id[nf_id]: n for nf_id, n in probe.drops_by_nf.items()}
    return {"n_tenants": n_tenants, "scorecard": card,
            "verdict_drops": drops}


def _slo_common(report: Report) -> Verdict:
    card = report["scorecard"]
    rows = card["tenants"]
    attempted, failed, problems = conservation(
        {r["tenant"]: r["offered"] for r in rows},
        {r["tenant"]: r["completed"] for r in rows},
        report["verdict_drops"], card["packets_dropped"])
    if len({r["tenant"] for r in rows}) != report["n_tenants"]:
        problems.append(f"{len(rows)} tenant rows for "
                        f"{report['n_tenants']} tenants")
    if not card["audit"]["chain_ok"]:
        problems.append("audit chain does not verify")
    return attempted, failed, problems


def check_slo_fcfs(report: Report) -> Verdict:
    attempted, failed, problems = _slo_common(report)
    card = report["scorecard"]
    if card["n_fail"] <= 0:
        problems.append("fcfs: no tenant fails its SLO")
    if not card["alerts"]:
        problems.append("fcfs: no burn-rate alert fired")
    return attempted, failed, problems


def check_slo_temporal(report: Report) -> Verdict:
    attempted, failed, problems = _slo_common(report)
    card = report["scorecard"]
    waits = [card["cross_tenant_wait_ns"]] + [
        r["cross_tenant_wait_ns"] for r in card["tenants"]]
    if any(w != 0 for w in waits):
        problems.append("temporal: nonzero cross-tenant wait")
    if card["n_fail"] or not all(r["passed"] for r in card["tenants"]):
        problems.append("temporal: a tenant fails its SLO")
    if card["alerts"]:
        problems.append(f"temporal: {len(card['alerts'])} alerts fired")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# packets-mix
# ----------------------------------------------------------------------


def mix_spec(seed: int, n_packets: int = MIX_PACKETS):
    """Six tenants, one per NF kind with default params, on snic/fcfs."""
    from repro.scenario.spec import (
        ArbiterSpec,
        NFSpec,
        ScenarioSpec,
        TenantSpec,
        TopologySpec,
        TrafficSpec,
    )

    tenants = tuple(
        TenantSpec(name=f"t-{kind}", nf=NFSpec(kind=kind),
                   dst_prefix=f"{20 + i}.0.0.0/8")
        for i, kind in enumerate(NF_KINDS))
    return ScenarioSpec(
        name="perfbench-packets-mix",
        seed=seed,
        description="one tenant per NF kind under Zipf load",
        topology=TopologySpec(nic_model="snic", n_cores=len(tenants),
                              arbiter=ArbiterSpec(policy="fcfs")),
        tenants=tenants,
        traffic=TrafficSpec(n_packets=n_packets, payload_bytes=64,
                            arrival_period_ns=800, pattern="zipf",
                            zipf_skew=1.1),
    )


def run_packets_mix(seed: int, probe: Probe,
                    n_packets: int = MIX_PACKETS) -> Report:
    from repro.scenario.build import build_scenario

    spec = mix_spec(seed, n_packets)
    with build_scenario(spec) as built:
        outputs = built.drive()
        by_id = {nf_id: name for name, nf_id in built.tenants.items()}
    drops = {by_id[nf_id]: n for nf_id, n in probe.drops_by_nf.items()}
    return {"seed": seed, "n_packets": n_packets, "outputs": outputs,
            "verdict_drops": drops}


def annotate_packets_mix(report: Report) -> None:
    """Per-tenant offered load, recomputed from the spec alone."""
    from repro.net.packet import ip_to_int
    from repro.scenario.build import make_packets

    spec = mix_spec(report["seed"], report["n_packets"])
    by_dst = {ip_to_int(t.dst_ip()): t.name for t in spec.tenants}
    offered = {t.name: 0 for t in spec.tenants}
    for packet in make_packets(spec):
        offered[by_dst[packet.ip.dst_ip]] += 1
    report["offered"] = offered


def check_packets_mix(report: Report) -> Verdict:
    outputs = report["outputs"]
    completed = outputs["per_tenant_completed"]
    attempted, failed, problems = conservation(
        report["offered"], completed, report["verdict_drops"],
        outputs["packets_dropped"])
    if sum(completed.values()) != outputs["packets_completed"]:
        problems.append("per-tenant completions do not sum to the total")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# chaos-audit
# ----------------------------------------------------------------------


def chaos_seeds(seed: int) -> List[int]:
    return [seed * CHAOS_SEEDS + k for k in range(CHAOS_SEEDS)]


def run_chaos_audit(seed: int, probe: Probe,
                    n_seeds: int = CHAOS_SEEDS,
                    kinds: Tuple[str, ...] = ()) -> Report:
    from repro.faults.chaos import run_chaos
    from repro.obs.audit import run_audit

    chaos = [run_chaos(seed=s, matrix=True, kinds=kinds or None)
             for s in chaos_seeds(seed)[:n_seeds]]
    return {"chaos": chaos, "audit": run_audit(quick=True)}


def _chaos_leg_faults(kind: str, side: str, leg: Dict[str, Any]) -> List[str]:
    if side == "snic":
        faults = []
        if leg["disruption_total"] != 0.0:
            faults.append(f"snic co-tenant disrupted under {kind}")
        if leg["cross_tenant_wait_ns"] != 0.0:
            faults.append(f"snic cross-tenant wait under {kind}")
        return faults
    if leg["disruption_total"] == 0.0:
        return [f"commodity shows no disruption under {kind}"]
    return []


def check_chaos_audit(report: Report) -> Verdict:
    """Operations are the differential legs: one per (seed, fault
    class, NIC model) and one per (audit config, resource) plus each
    S-NIC side channel."""
    attempted = failed = 0
    problems: List[str] = []
    for chaos in report["chaos"]:
        if not chaos["verdict"]["pass"]:
            problems.append(f"chaos seed {chaos['seed']} verdict fails")
        for kind, entry in sorted(chaos["kinds"].items()):
            for side in ("commodity", "snic"):
                attempted += 1
                faults = _chaos_leg_faults(kind, side, entry[side])
                failed += bool(faults)
                problems += [f"seed {chaos['seed']}: {f}" for f in faults]
    audit = report["audit"]
    if not audit["verdict"]["pass"]:
        problems.append("audit verdict fails")
    for config, block in sorted(audit["configs"].items()):
        for resource, res in sorted(block["resources"].items()):
            attempted += 1
            wait = res["cross_tenant_wait_ns"]
            bad = wait != 0.0 if config == "snic" else wait <= 0.0
            if bad:
                failed += 1
                problems.append(f"audit {config}/{resource}: cross-tenant "
                                f"wait {wait}")
    for channel, by_config in sorted(audit["side_channels"].items()):
        attempted += 1
        if not by_config["snic"]["closed"]:
            failed += 1
            problems.append(f"side channel {channel} open under snic")
    return attempted, failed, problems


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, Probe], Report]
    check: Callable[[Report], Verdict]
    annotate: Callable[[Report], None] = lambda report: None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "slo-fcfs",
        "128-tenant SLO scorecard under fcfs: N^2 blame cells, window "
        "rotation and audit hashing dominate, the packet path is small",
        lambda seed, probe: run_slo("fcfs", seed, probe),
        check_slo_fcfs),
    Workload(
        "slo-temporal",
        "same scorecard under temporal: zero cross-tenant blame and an "
        "N-sized registry, so audit hashing and deploy dominate",
        lambda seed, probe: run_slo("temporal", seed, probe),
        check_slo_temporal),
    Workload(
        "packets-mix",
        "20k Zipf packets over six NF kinds: event kernel, runtime poll "
        "loop, NFs and parsing do the work, telemetry is near zero",
        run_packets_mix,
        check_packets_mix,
        annotate_packets_mix),
    Workload(
        "chaos-audit",
        "fault-class and isolation-audit differentials: the only load on "
        "faults, commodity and the hand-built bus/DMA/DRAM rigs",
        run_chaos_audit,
        check_chaos_audit),
)}
