"""``repro.obs.bench`` — the unified benchmark harness.

The evaluation used to be 22 one-off scripts under ``benchmarks/``,
each printing tables by hand, with no recorded performance trajectory:
a regression in the event kernel or the cache simulator would ship
silently.  This module makes the whole evaluation a single measured
unit:

* **discovery** — every ``benchmarks/bench_*.py`` that exposes a
  ``run(quick: bool) -> dict`` entry point is a *scenario*;
* **isolation** — each scenario runs in its own telemetry run
  (:func:`repro.obs.telemetry.open_run`): a fresh metrics registry
  (serial labels start at ``#1``), no tracer, and zeroed event-kernel
  counters, so scenarios can neither alias nor observe each other;
* **telemetry** — per scenario the harness records host wall-time,
  simulated nanoseconds advanced, discrete events executed, trace
  events recorded, registry size, and the scenario's own key model
  outputs (whatever its ``run`` returns);
* **artifact** — one schema-versioned ``BENCH_<timestamp>.json`` at the
  repo root per run;
* **regression detection** — :func:`compare` diffs two artifacts and
  flags wall-time regressions beyond a configurable threshold, plus
  sim-side drift (different event counts for the same scenario mean the
  *model* changed, not the machine).

CLI: ``python -m repro bench [--quick] [--profile] [--compare A B]``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.telemetry import Telemetry, open_run

SCHEMA = "repro.bench"
SCHEMA_VERSION = 1

#: Default wall-time regression threshold for :func:`compare` (fraction).
DEFAULT_THRESHOLD = 0.20


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------

def default_bench_dir() -> Path:
    """The repo's ``benchmarks/`` directory (source checkouts only)."""
    here = Path(__file__).resolve()
    for candidate in (here.parents[3] / "benchmarks",
                      Path.cwd() / "benchmarks"):
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "no benchmarks/ directory found; pass bench_dir explicitly")


def discover(bench_dir: Optional[Path] = None,
             only: Optional[Sequence[str]] = None) -> List[Path]:
    """Every ``bench_*.py`` scenario file, sorted by name; ``only``
    keeps those whose name contains one of its substrings."""
    bench_dir = Path(bench_dir) if bench_dir else default_bench_dir()
    return [p for p in sorted(bench_dir.glob("bench_*.py"))
            if not only or any(pat in scenario_name(p) for pat in only)]


def scenario_name(path: Path) -> str:
    return path.stem[len("bench_"):] if path.stem.startswith("bench_") \
        else path.stem


def load_scenario(path: Path):
    """Import one bench script as a module (``_common`` importable)."""
    import importlib.util

    bench_dir = str(path.parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    spec = importlib.util.spec_from_file_location(
        f"repro_bench.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

@dataclass
class BenchRecord:
    """One scenario's measured run."""

    name: str
    status: str = "ok"                  # "ok" | "error" | "skipped"
    wall_s: float = 0.0
    sim_time_ns: int = 0
    events_executed: int = 0
    trace_events: int = 0
    metrics_instruments: int = 0
    #: ``{metric{labels}: {count,p50,p95,p99}}`` for every histogram the
    #: scenario left in its registry — tail latency lands in the
    #: artifact without each bench script exporting it by hand.
    histograms: Optional[Dict[str, Dict[str, float]]] = None
    outputs: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    def take_telemetry(self, telemetry: Telemetry) -> None:
        """Fill the simulated-work fields from a finished run."""
        self.sim_time_ns = telemetry.sim_ns_advanced
        self.events_executed = telemetry.events_executed
        tracer = telemetry.tracer
        self.trace_events = len(tracer.events) if tracer is not None else 0
        self.metrics_instruments = len(telemetry.registry)
        self.histograms = _histogram_percentiles(telemetry.registry)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "wall_s": self.wall_s,
            "sim_time_ns": self.sim_time_ns,
            "events_executed": self.events_executed,
            "trace_events": self.trace_events,
            "metrics_instruments": self.metrics_instruments,
            "histograms": self.histograms,
            "outputs": self.outputs,
            "error": self.error,
        }


def run_scenario(path: Path, quick: bool = False,
                 capture: bool = True) -> BenchRecord:
    """Run one bench script's ``run(quick)`` in its own run."""
    record = BenchRecord(name=scenario_name(path))
    buffer = io.StringIO()
    started = time.perf_counter()  # snic: ignore[SNIC007] -- the bench harness *measures* host wall-time; BENCH artifacts are timestamped, not byte-compared
    with open_run() as telemetry:
        try:
            with contextlib.redirect_stdout(buffer) if capture \
                    else contextlib.nullcontext():
                module = load_scenario(path)
                run = getattr(module, "run", None)
                if run is None:
                    record.status = "skipped"
                    record.error = "no run(quick) entry point"
                    return record
                outputs = run(quick=quick)
            record.outputs = jsonable(outputs if isinstance(outputs, dict)
                                      else {"result": outputs})
        except Exception:
            record.status = "error"
            tail = buffer.getvalue().splitlines()[-5:]
            record.error = traceback.format_exc(limit=8) + (
                "\n[stdout tail]\n" + "\n".join(tail) if tail else "")
        finally:
            record.wall_s = time.perf_counter() - started  # snic: ignore[SNIC007] -- wall_s is the bench regression signal; matrix cells leave it 0.0 instead
            record.take_telemetry(telemetry)
    return record


def _histogram_percentiles(registry) -> Optional[Dict[str, Dict[str, float]]]:
    """Tail-latency summary of every populated histogram in ``registry``."""
    from repro.obs.export import _format_labels
    from repro.obs.metrics import Histogram

    out: Dict[str, Dict[str, float]] = {}
    for instrument in registry.instruments():
        if not isinstance(instrument, Histogram) or not instrument.count:
            continue
        key = instrument.name
        labels = _format_labels(dict(instrument.labels))
        if labels:
            key = f"{key}{{{labels}}}"
        out[key] = {
            "count": float(instrument.count),
            "p50": instrument.p50,
            "p95": instrument.p95,
            "p99": instrument.p99,
        }
    return dict(sorted(out.items())) or None


def run_benchmarks(
    bench_dir: Optional[Path] = None,
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    capture: bool = True,
    progress=None,
) -> Dict[str, object]:
    """Run every discovered scenario and build the artifact dict.

    ``only`` filters by scenario name (substring match); ``progress`` is
    an optional callable invoked with each finished :class:`BenchRecord`
    (the CLI uses it to print one line per scenario as it lands).
    """
    records: List[BenchRecord] = []
    started = time.perf_counter()
    for path in discover(bench_dir, only):
        record = run_scenario(path, quick=quick, capture=capture)
        records.append(record)
        if progress is not None:
            progress(record)
    return bench_artifact(records, quick, started)


def bench_artifact(records: List[BenchRecord], quick: bool,
                   started: float) -> Dict[str, object]:
    """The ``repro.bench`` artifact around ``records``; ``started`` is
    the ``perf_counter`` reading the run began at."""
    import platform

    import repro

    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repro_version": getattr(repro, "__version__", "unknown"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "n_benchmarks": len(records),
        "n_ok": sum(1 for r in records if r.status == "ok"),
        "n_error": sum(1 for r in records if r.status == "error"),
        "total_wall_s": time.perf_counter() - started,
        "benchmarks": {r.name: r.as_dict() for r in records},
    }


def artifact_path(out_dir: Optional[Path] = None,
                  timestamp: Optional[str] = None) -> Path:
    out_dir = Path(out_dir) if out_dir else default_bench_dir().parent
    stamp = timestamp or time.strftime("%Y%m%d_%H%M%S")
    return out_dir / f"BENCH_{stamp}.json"


def write_artifact(artifact: Dict[str, object],
                   path: Optional[Path] = None) -> Path:
    path = Path(path) if path else artifact_path()
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return path


def load_artifact(path) -> Dict[str, object]:
    with open(path) as fh:
        artifact = json.load(fh)
    if artifact.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} artifact "
                         f"(schema={artifact.get('schema')!r})")
    if int(artifact.get("schema_version", 0)) > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {artifact['schema_version']} is newer "
            f"than this harness understands ({SCHEMA_VERSION})")
    return artifact


# ----------------------------------------------------------------------
# Comparison / regression detection
# ----------------------------------------------------------------------

def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, object]:
    """Diff two artifacts; flag wall-time regressions beyond ``threshold``.

    A scenario *regresses* when its candidate wall-time exceeds the
    baseline by more than ``threshold`` (fractional, default 20%).
    Changed ``events_executed``/``sim_time_ns`` are reported as *model
    drift* — the simulation itself changed, so wall-time deltas for that
    scenario are expected rather than alarming.
    """
    base = baseline["benchmarks"]
    cand = candidate["benchmarks"]
    rows: List[Dict[str, object]] = []
    for name in sorted(set(base) | set(cand)):
        a, b = base.get(name), cand.get(name)
        if a is None or b is None:
            rows.append({
                "name": name,
                "status": "added" if a is None else "removed",
                "regressed": False,
            })
            continue
        wall_a, wall_b = a["wall_s"], b["wall_s"]
        delta = (wall_b - wall_a) / wall_a if wall_a > 0 else 0.0
        drift = (a["events_executed"] != b["events_executed"]
                 or a["sim_time_ns"] != b["sim_time_ns"])
        rows.append({
            "name": name,
            "status": "compared",
            "wall_s_baseline": wall_a,
            "wall_s_candidate": wall_b,
            "wall_delta_pct": 100.0 * delta,
            "model_drift": drift,
            "regressed": (a["status"] == "ok" and b["status"] == "ok"
                          and delta > threshold),
        })
    regressions = [r["name"] for r in rows if r.get("regressed")]
    return {
        "schema": f"{SCHEMA}.compare",
        "threshold_pct": 100.0 * threshold,
        "baseline_created": baseline.get("created_utc"),
        "candidate_created": candidate.get("created_utc"),
        "quick_mismatch": baseline.get("quick") != candidate.get("quick"),
        "n_compared": sum(1 for r in rows if r["status"] == "compared"),
        "n_regressions": len(regressions),
        "regressions": regressions,
        "rows": rows,
    }


def compare_paths(path_a, path_b,
                  threshold: float = DEFAULT_THRESHOLD) -> Dict[str, object]:
    return compare(load_artifact(path_a), load_artifact(path_b),
                   threshold=threshold)


def format_compare(report: Dict[str, object]) -> str:
    lines = [
        f"bench compare — threshold {report['threshold_pct']:.0f}%, "
        f"{report['n_compared']} scenarios, "
        f"{report['n_regressions']} regression(s)"
    ]
    if report.get("quick_mismatch"):
        lines.append("WARNING: artifacts mix --quick and full runs; "
                     "wall-time deltas are not comparable")
    lines.append(f"{'scenario':<28} {'base s':>9} {'cand s':>9} "
                 f"{'delta':>8}  flags")
    for row in report["rows"]:
        if row["status"] != "compared":
            lines.append(f"{row['name']:<28} {'—':>9} {'—':>9} {'—':>8}  "
                         f"{row['status']}")
            continue
        flags = []
        if row["regressed"]:
            flags.append("REGRESSION")
        if row["model_drift"]:
            flags.append("model-drift")
        lines.append(
            f"{row['name']:<28} {row['wall_s_baseline']:>9.4f} "
            f"{row['wall_s_candidate']:>9.4f} "
            f"{row['wall_delta_pct']:>+7.1f}%  {' '.join(flags)}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSON hygiene
# ----------------------------------------------------------------------

def jsonable(value):
    """Recursively coerce a scenario's outputs into JSON-safe types.

    numpy scalars become Python floats/ints, tuples become lists,
    non-string dict keys are stringified, and anything else opaque is
    rendered with ``repr`` rather than failing the whole artifact.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") \
            else repr(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    # numpy scalars (and anything else numeric) without importing numpy:
    for caster in (int, float):
        try:
            if isinstance(value, caster) or (
                    hasattr(value, "item") and
                    isinstance(value.item(), (int, float))):
                return jsonable(value.item() if hasattr(value, "item")
                                else caster(value))
        except Exception:
            pass
    return repr(value)
