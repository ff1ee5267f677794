"""Blast-radius matrix: fault injection, commodity vs S-NIC (§3.3 / §4.6).

Reproduces the fate-sharing argument as a falsifiable experiment: every
fault class in the taxonomy is injected into the faulty tenant twice —
once on a commodity-style shared device, once on the S-NIC partitioned
configuration — and the *victim* co-tenant's observables (completions,
latency, corruption) are diffed against a clean run with the same seed.

The paper's claim reproduces when commodity disruption is nonzero for
every class (the device is the blast radius) while S-NIC disruption and
cross-tenant attributed wait are exactly zero (the tenant is).
"""

from _common import bench_main, print_table

from repro.faults.chaos import blast_radius, run_chaos


def compute_matrix(quick=False, seed=0):
    report = run_chaos(seed=seed, quick=quick, matrix=True)
    rows = []
    for kind_name in sorted(report["kinds"]):
        entry = report["kinds"][kind_name]
        commodity = entry["commodity"]["disruption_total"]
        snic = entry["snic"]["disruption_total"]
        cross = entry["snic"]["cross_tenant_wait_ns"]
        rows.append((kind_name, commodity, snic, cross, blast_radius(entry)))
    return report, rows


def test_chaos_blast_radius(benchmark):
    report, rows = benchmark.pedantic(
        compute_matrix, kwargs={"quick": True}, rounds=1, iterations=1)
    print_table(
        "Blast radius per fault class (victim-observable disruption)",
        ["fault class", "commodity disrupt", "snic disrupt",
         "snic x-wait ns", "blast radius"],
        rows,
    )
    assert report["verdict"]["pass"], report["verdict"]["reasons"]
    for kind_name, commodity, snic, cross, blast in rows:
        assert commodity != 0.0, f"{kind_name}: commodity fate-sharing missing"
        assert snic == 0.0 and cross == 0.0, f"{kind_name}: S-NIC leaked"
        assert blast == "tenant"


def run(quick: bool = False) -> dict:
    """Harness entry point: the chaos blast-radius matrix."""
    report, rows = compute_matrix(quick=quick)
    print_table(
        "Blast radius per fault class (victim-observable disruption)",
        ["fault class", "commodity disrupt", "snic disrupt",
         "snic x-wait ns", "blast radius"],
        rows,
    )
    outputs = {
        kind_name: {
            "commodity_disruption": commodity,
            "snic_disruption": snic,
            "snic_cross_tenant_wait_ns": cross,
            "blast_radius": blast,
        }
        for kind_name, commodity, snic, cross, blast in rows
    }
    outputs["verdict_pass"] = report["verdict"]["pass"]
    outputs["seed"] = report["seed"]
    return outputs


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
