"""One measured run of one workload, in a fresh process.

``run.py`` starts this once per sample so that peak RSS and lazy
imports belong to that sample alone.  It prints one JSON object: host
times, packet counts, the output check's verdict, the digest of the
simulated outputs and, with ``--trace 1``, the per-layer table.

    PYTHONPATH=src python3 perfbench/worker.py --workload packets-mix \\
        --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import Probe  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def measure(name: str, seed: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    # Entry modules load before the clock starts; the imports they make
    # inside their functions belong to the timed run.
    import repro.faults.chaos  # noqa: F401
    import repro.obs.audit  # noqa: F401
    import repro.obs.scorecard  # noqa: F401
    import repro.scenario.build  # noqa: F401

    with Probe(trace) as probe:
        start = time.perf_counter()
        report = workload.run(seed, probe)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.annotate(report)
    attempted, failed, problems = workload.check(report)
    setup_s = probe.setup_s()
    run_s = wall_s - setup_s
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "run_s": run_s,
        "setup_s": setup_s,
        "packets_offered": probe.packets_offered,
        "packets_completed": probe.packets_completed,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "problems": problems,
        "digest": digest(report),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = probe.layer_metrics(run_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
