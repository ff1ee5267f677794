"""The repo benchmark: host cost of the simulator's public entry points.

    python3 perfbench/run.py --workload slo-fcfs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each sample runs the workload once in a fresh ``worker.py`` process.
Samples repeat while the next one (predicted to take as long as the
last) still fits in ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; host times are the fastest sample's, because on a shared host
interference only ever adds time (the table also prints the medians).
``--trace 1`` alternates untraced and traced samples and reports the
per-layer table (medians of the traced samples) plus ``trace.overhead``,
the fastest traced ``run_s`` over the fastest untraced one.  Every
sample's output check must pass and every sample of a run, traced or
not, must produce the same digest of simulated outputs.  The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  -- imports no simulator code

#: Kill a sample that has not finished after this long.
SAMPLE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "pkts_per_s": "pkt/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


class SampleError(RuntimeError):
    """A worker process failed or printed no result."""


def sample(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload}: sample exceeded "
                          f"{SAMPLE_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{workload}: worker exited {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, object]:
    """Sample while the next sample fits in ``seconds``; summarise."""
    untraced: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    start = last = time.perf_counter()
    while True:
        untraced.append(sample(workload, seed, False))
        if trace:
            traced.append(sample(workload, seed, True))
        now = time.perf_counter()
        if now - start + (now - last) > seconds:
            break
        last = now
    samples = untraced + traced
    problems = sorted({p for s in samples for p in s["problems"]})
    digests = sorted({s["digest"] for s in samples})
    if len(digests) > 1:
        problems.append(f"simulated outputs differ across samples: "
                        f"{len(digests)} digests")
    attempted = sum(s["attempted"] for s in untraced)
    failed = attempted if problems else sum(s["failed"] for s in untraced)
    run_s = min(s["run_s"] for s in untraced)
    if trace:
        units = {name: unit for name, (_, unit) in traced[0]["layers"].items()}
        metrics = {
            name: statistics.median(s["layers"][name][0] for s in traced)
            for name in units}
        metrics["trace.overhead"] = min(s["run_s"] for s in traced) / run_s
        units["trace.overhead"] = "ratio"
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": min(s["setup_s"] for s in untraced),
            "pkts_per_s": max(
                s["packets_completed"] / s["run_s"] for s in untraced),
            "peak_rss_mb": statistics.median(
                s["peak_rss_mb"] for s in untraced),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "samples": len(samples),
        "untraced_run_s": [s["run_s"] for s in untraced],
        "untraced_setup_s": [s["setup_s"] for s in untraced],
        "digest": digests[0] if len(digests) == 1 else None,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def print_table(result: Dict[str, object]) -> None:
    print(f"== {result['workload']}: {result['samples']} samples, "
          f"digest {result['digest']}, correct={result['correct']}, "
          f"fail_ratio={result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for name in ("run_s", "setup_s"):
        values = result[f"untraced_{name}"]
        print(f"   untraced {name} median {statistics.median(values):.4g} "
              f"samples " + " ".join(f"{v:.4g}" for v in values))
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name:40s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_table(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
