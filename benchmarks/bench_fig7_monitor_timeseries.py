"""Figure 7: Monitor's memory usage over a five-minute trace window.

Paper: preallocation must cover the 360.54 MB peak (hugepage-init and
HashMap-resize spikes) while steady-state use is 246.31 MB.
"""

import os

from _common import bench_main, print_table

from repro.cost.profiles import MonitorMemoryModel
from repro.obs.windows import merge_series_csv

CSV_PATH = os.path.join(os.path.dirname(__file__), "fig7_monitor_memory.csv")


def compute_fig7(step_s=0.5):
    """The memory curve as a ``repro.obs.windows.Series`` plus the
    calibration summary (the ad-hoc stepping loop this bench used to
    carry now lives behind ``MonitorMemoryModel.sample``)."""
    model = MonitorMemoryModel()
    return model.sample(step_s=step_s), model.summary()


def test_fig7(benchmark):
    series, summary = benchmark(compute_fig7)
    # Render a coarse sparkline-style table (every 10 s).
    rows = [
        (f"{t:.0f}s", f"{m:.1f}")
        for t, m in series.points()
        if abs(t - round(t / 10) * 10) < 0.25
    ]
    print_table("Figure 7 — Monitor memory usage (MB)", ["time", "MB"], rows)
    print(
        f"min prealloc: {summary['prealloc_min_mb']:.2f} MB (paper 360.54)  "
        f"steady: {summary['steady_mb']:.2f} MB (paper 246.31)  "
        f"resizes: {summary['n_resizes']}"
    )
    assert abs(summary["prealloc_min_mb"] - 360.54) < 1.0
    assert abs(summary["steady_mb"] - 246.31) < 1.0
    assert summary["n_resizes"] >= 3


def run(quick: bool = False) -> dict:
    """Harness entry point: Monitor memory time series summary."""
    series, summary = compute_fig7(step_s=2.0 if quick else 0.5)
    print_table(
        "Figure 7 — Monitor memory usage (MB)",
        ["time", "MB"],
        [(f"{t:.0f}s", f"{m:.1f}") for t, m in series.points()
         if abs(t - round(t / 30) * 30) < 0.25],
    )
    with open(CSV_PATH, "w", encoding="utf-8") as fh:
        fh.write(merge_series_csv([series], time_label="time_s"))
    print(f"wrote {CSV_PATH} ({len(series)} samples)")
    return {
        "prealloc_min_mb": summary["prealloc_min_mb"],
        "steady_mb": summary["steady_mb"],
        "n_resizes": summary["n_resizes"],
        "series_points": len(series),
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
