"""The headline paper-vs-reproduced evaluation report.

Importable as :func:`repro.report.main` and runnable via
``python -m repro report``; the ``examples/evaluation_report.py`` script
is a thin wrapper around this module.
"""

from repro.commodity.agilio import AgilioNIC
from repro.commodity.attacks import (
    bus_dos_attack,
    run_dpi_stealing_experiment,
    run_packet_corruption_experiment,
)
from repro.commodity.sidechannels import (
    bus_watermark_on_fcfs,
    bus_watermark_on_snic,
)
from repro.cost.mcpat import snic_headline_overheads
from repro.cost.pages import EQUAL_MENU, FLEX_HIGH_MENU, FLEX_LOW_MENU
from repro.cost.profiles import MonitorMemoryModel, NF_PROFILES
from repro.cost.tco import paper_tco_analysis
from repro.obs import current, format_metrics_table
from repro.perf.colocation import cotenancy_sweep, summary_across_nfs


def row(label: str, paper, ours) -> None:
    print(f"  {label:46s} paper: {paper:<14} reproduced: {ours}")


def main() -> None:
    print("S-NIC (EuroSys 2024) — headline reproduction report")
    print("=" * 72)

    print("\n§5.2 silicon overheads")
    overheads = snic_headline_overheads()
    row("added chip area", "+8.89%", f"+{overheads['area_overhead_pct']:.2f}%")
    row("added power draw", "+11.45%", f"+{overheads['power_overhead_pct']:.2f}%")

    print("\n§5.2 three-year TCO")
    tco = paper_tco_analysis().results()
    row("LiquidIO $/core", "$38.97", f"${tco['nic_tco_per_core']:.2f}")
    row("host $/core", "$163.56", f"${tco['host_tco_per_core']:.2f}")
    row("S-NIC $/core (worst case)", "$42.53", f"${tco['snic_tco_per_core']:.2f}")
    row("TCO advantage preserved", "91.6%",
        f"{tco['benefit_preserved_pct']:.2f}%")

    print("\n§5.3 isolation throughput cost (4 MB L2)")
    sweep = cotenancy_sweep(cotenancies=(2, 4, 8, 16), max_sets=16)
    paper_values = {2: "0.24%", 4: "0.93%", 8: "3.41%", 16: "9.44%"}
    for index, n in enumerate((2, 4, 8, 16)):
        summary = summary_across_nfs(sweep, index)
        row(f"median IPC degradation, {n} NFs", paper_values[n],
            f"{summary['mean_of_medians_pct']:.2f}%")
    four = summary_across_nfs(sweep, 1)
    row("worst case @4 NFs (the <1.7% claim)", "1.66%",
        f"{four['worst_p99_pct']:.2f}%")

    print("\nTable 6 TLB sizing (Equal / Flex-low / Flex-high)")
    paper_entries = {"FW": "11/34/11", "Mon": "183/46/12"}
    for name in ("FW", "Mon"):
        profile = NF_PROFILES[name]
        ours = "/".join(
            str(profile.tlb_entries(menu))
            for menu in (EQUAL_MENU, FLEX_LOW_MENU, FLEX_HIGH_MENU)
        )
        row(f"{name} entry counts", paper_entries[name], ours)

    print("\nFigure 7 Monitor memory")
    monitor = MonitorMemoryModel().summary()
    row("minimum preallocation", "360.54 MB",
        f"{monitor['prealloc_min_mb']:.2f} MB")
    row("steady-state usage", "246.31 MB", f"{monitor['steady_mb']:.2f} MB")

    print("\n§3.3 attacks (commodity outcome -> S-NIC outcome)")
    corruption, clean, attacked = run_packet_corruption_experiment(n_packets=8)
    row("packet corruption",
        "succeeds", f"{'succeeds' if corruption.succeeded else '??'} "
        f"({clean}->{attacked} translations) -> blocked")
    stealing, ruleset = run_dpi_stealing_experiment(ruleset=b"R" * 64)
    row("DPI ruleset stealing", "succeeds",
        f"{'succeeds (byte-exact)' if stealing.evidence[0] == ruleset else '??'}"
        " -> blocked")
    dos = bus_dos_attack(AgilioNIC())
    row("bus denial-of-service", "succeeds (hard crash)",
        f"{'succeeds' if dos.succeeded else '??'} -> blocked")

    print("\n§4.5 watermark channel accuracy (1.0 = open, ~0.5 = closed)")
    row("FCFS bus (commodity)", "open",
        f"{bus_watermark_on_fcfs(n_bits=32).accuracy:.2f}")
    row("temporal partitioning (S-NIC)", "eliminated",
        f"{bus_watermark_on_snic(n_bits=32).accuracy:.2f}")

    # The attack/side-channel replays above exercised the instrumented
    # bus and cache models, so the observability registry now holds real
    # telemetry from this very report run — print the bus view.
    print()
    print(format_metrics_table(current().registry,
                               title="observability — bus telemetry from "
                                     "the runs above",
                               name_filter="bus_"))

    print("\nFull detail: pytest benchmarks/ --benchmark-only -s")
    print("Trace a co-tenancy scenario: python -m repro trace -o trace.json")


if __name__ == "__main__":
    main()
