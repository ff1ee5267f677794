"""The shard engine: map partitions over a process pool, then merge.

A partition is an ordinary monolithic scenario, so a worker just runs
it and returns plain data; partitions never exchange a message.  The
mergers fold results in partition-index order, and nothing derived
from the worker count enters a merged report.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.runtime import percentile
from repro.scenario.spec import ScenarioSpec
from repro.shard.partition import effective_partitions, partition_specs

#: One unit of pool work: ``(mode, spec dict, quick, sanitize, window_ns)``.
Task = Tuple[str, Dict[str, object], bool, bool, Optional[int]]


class ShardError(RuntimeError):
    """A partition failed in its worker, or its worker process died."""


def registry_to_frame(registry) -> List[object]:
    """A registry's instruments, plain values (collectors do not pickle)."""
    return registry.instruments()


def registry_from_frame(instruments: Sequence[Any]):
    """A standalone registry of ``instruments``, ready for ``merge_from``."""
    from repro.obs.metrics import Histogram, MetricsRegistry

    registry = MetricsRegistry()
    for theirs in instruments:
        # Re-mints an instrument tagged at its original mint site.
        labels = dict(theirs.labels)
        if isinstance(theirs, Histogram):
            registry.histogram(  # snic: ignore[SNIC004]
                theirs.name, bounds=theirs.bounds, **labels).merge(theirs)
        else:
            mint = getattr(registry, type(theirs).__name__.lower())
            mint(theirs.name, **labels).value = theirs.value
    return registry


def _run_cell(spec: Dict[str, object], quick: bool, sanitize: bool,
              _window_ns: Optional[int]) -> Dict[str, object]:
    """One matrix partition.  Like ``run_cell`` it never raises: a
    scenario error becomes an error result."""
    from repro.analysis.isosan import sanitized
    from repro.obs.bench import jsonable
    from repro.obs.telemetry import open_run
    from repro.scenario.build import build_scenario

    data: Dict[str, Any] = {"status": "ok"}
    with open_run() as telemetry:
        try:
            with sanitized() if sanitize else contextlib.nullcontext():
                with build_scenario(ScenarioSpec.from_dict(spec)) as built:
                    data["outputs"] = jsonable(built.drive(quick=quick))
                    data["latencies"] = sorted(
                        t.latency_ns for t in built.runtime.stats.timings)
        except Exception:
            data.update(status="error", error=traceback.format_exc(limit=8),
                        latencies=[])
    tracer = telemetry.tracer
    data["kernel"] = {"events_executed": telemetry.events_executed,
                      "sim_ns_advanced": telemetry.sim_ns_advanced}
    data["trace_events"] = len(tracer.events) if tracer is not None else 0
    data["registry"] = registry_to_frame(telemetry.registry)
    return data


def _run_slo(spec: Dict[str, object], quick: bool, sanitize: bool,
             window_ns: int) -> Dict[str, object]:
    from repro.obs import scorecard

    return scorecard.run_spec(ScenarioSpec.from_dict(spec), quick=quick,
                              sanitize=sanitize, window_ns=window_ns)


def _run_bench(spec: Dict[str, object], quick: bool, _sanitize: bool,
               _window_ns: Optional[int]) -> Dict[str, object]:
    from pathlib import Path

    from repro.obs.bench import run_scenario

    return run_scenario(Path(str(spec["path"])), quick=quick,
                        capture=bool(spec["capture"])).as_dict()


_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "cell": _run_cell, "slo": _run_slo, "bench": _run_bench}


def _run_task(mode: str, *args) -> Dict[str, object]:
    if mode not in _RUNNERS:
        raise ValueError(f"unknown shard mode {mode!r}")
    return _RUNNERS[mode](*args)


def run_sharded_partitions(tasks: Sequence[Task],
                           workers: int = 1) -> List[Dict[str, Any]]:
    """Run ``tasks`` on ``workers`` forked processes; results in task
    order.  Each runner opens its own telemetry run, so which process
    ran a task never shows.  A task that raises, or whose process dies,
    raises :class:`ShardError` naming its index."""
    if not tasks:
        return []
    # Forked workers share the parent heap copy-on-write: freeze it, or
    # their collectors fault those pages into private copies.  Fork also
    # carries an open ``sanitized()`` scope into the workers.
    gc.collect()
    gc.freeze()
    pool = ProcessPoolExecutor(max_workers=max(1, min(workers, len(tasks))),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_task, *task) for task in tasks]
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                raise ShardError(f"partition {index}: its worker process "
                                 f"died before returning") from exc
            except Exception as exc:
                raise ShardError(f"partition {index} failed in its "
                                 f"worker: {exc!r}") from exc
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        gc.unfreeze()


def _merge_cell_results(spec: ScenarioSpec, results: List[Dict[str, Any]]):
    """Fold per-partition cell results into one BenchRecord: tallies
    sum, percentiles are recomputed over the merged population, and the
    victim's fields come from partition 0 (the spec's first tenant)."""
    from repro.obs.bench import BenchRecord, _histogram_percentiles
    from repro.obs.metrics import MetricsRegistry

    record = BenchRecord(name=spec.name)
    registry = MetricsRegistry()
    latencies: List[int] = []
    for data in results:
        registry.merge_from(registry_from_frame(data["registry"]))
        record.sim_time_ns += int(data["kernel"]["sim_ns_advanced"])
        record.events_executed += int(data["kernel"]["events_executed"])
        record.trace_events += int(data["trace_events"])
        latencies.extend(data["latencies"])
    record.metrics_instruments = len(registry)
    record.histograms = _histogram_percentiles(registry)
    errors = [data["error"] for data in results if data["status"] != "ok"]
    if errors:
        record.status = "error"
        record.error = errors[0]
        return record
    latencies.sort()
    parts = [data["outputs"] for data in results]
    outputs = dict(parts[0])
    outputs.update(
        scenario=spec.name,
        seed=spec.seed,
        tenant_count=len(spec.tenants),
        fault_class=spec.fault.kind if spec.fault else "none",
        latency_p50_ns=percentile(latencies, 50),
        latency_p99_ns=percentile(latencies, 99),
        per_tenant_completed={
            name: count for part in parts
            for name, count in part["per_tenant_completed"].items()},
        cross_tenant_wait_ns=sum(
            float(part["cross_tenant_wait_ns"]) for part in parts))
    for key in ("packets_completed", "packets_dropped",
                "dma_retries_exhausted", "faults_injected"):
        outputs[key] = sum(int(part[key]) for part in parts)
    record.outputs = outputs
    return record


def run_cell_sharded(cell, quick: bool = False, sanitize: bool = False,
                     workers: int = 1,
                     spec: Optional[ScenarioSpec] = None):
    """The sharded counterpart of :func:`repro.scenario.matrix.run_cell`:
    a fleet of independent NICs, one per partition, merged into one
    :class:`~repro.obs.bench.BenchRecord`."""
    from repro.scenario.matrix import cell_spec

    if spec is None:
        spec = cell_spec(cell, quick=quick)
    results = run_sharded_partitions(
        [("cell", part.to_dict(), quick, sanitize, None)
         for part in partition_specs(spec)],
        workers=workers)
    return _merge_cell_results(spec, results)


def _merge_slo_results(spec: ScenarioSpec,
                       blocks: List[Dict[str, Any]]) -> Dict[str, object]:
    """Fold per-partition scorecard blocks: rows and alerts concatenate
    back into spec order, tallies sum, and the audit verdict is the
    conjunction of the partition chains."""
    def total(key: str, cast=int):
        return sum(cast(block[key]) for block in blocks)

    return {
        "spec": spec.name,
        "arbiter": spec.topology.arbiter.policy,
        "n_tenants": len(spec.tenants),
        "partitions": len(blocks),
        "windows": total("windows"),
        "packets_completed": total("packets_completed"),
        "packets_dropped": total("packets_dropped"),
        "cross_tenant_wait_ns": total("cross_tenant_wait_ns", float),
        "tenants": [row for block in blocks for row in block["tenants"]],
        "alerts": [alert for block in blocks for alert in block["alerts"]],
        "n_pass": total("n_pass"),
        "n_fail": total("n_fail"),
        "audit": {"records": sum(int(b["audit"]["records"]) for b in blocks),
                  "chain_ok": all(b["audit"]["chain_ok"] for b in blocks)},
    }


def run_scorecard_sharded(n_tenants: int = 128, seed: int = 7,
                          quick: bool = False,
                          arbiters: Optional[Sequence[str]] = None,
                          sanitize: bool = False,
                          window_ns: Optional[int] = None,
                          workers: int = 1) -> Dict[str, object]:
    """The sharded counterpart of
    :func:`repro.obs.scorecard.run_scorecard`.  The report carries the
    partition count (a property of the spec), never the worker count."""
    from repro.obs.scorecard import (
        DEFAULT_ARBITERS,
        DEFAULT_WINDOW_NS,
        make_scorecard_spec,
        scorecard_report,
    )

    window_ns = window_ns if window_ns is not None else DEFAULT_WINDOW_NS
    results: Dict[str, Dict[str, object]] = {}
    partitions = 0
    for arbiter in arbiters or DEFAULT_ARBITERS:
        spec = make_scorecard_spec(arbiter, n_tenants, seed, quick=quick)
        partitions = effective_partitions(spec)
        blocks = run_sharded_partitions(
            [("slo", part.to_dict(), quick, sanitize, window_ns)
             for part in partition_specs(spec)],
            workers=workers)
        results[arbiter] = _merge_slo_results(spec, blocks)
    report = scorecard_report(results, n_tenants=n_tenants, seed=seed,
                              quick=quick, sanitize=sanitize,
                              window_ns=window_ns)
    report["sharded"] = {"partitions": partitions}
    return report


def run_benchmarks_sharded(bench_dir=None, quick: bool = False,
                           only: Optional[Sequence[str]] = None,
                           capture: bool = True, progress=None,
                           workers: int = 1) -> Dict[str, object]:
    """The sharded counterpart of :func:`repro.obs.bench.run_benchmarks`:
    one pool task per bench script, records in discovery order."""
    from repro.obs import bench

    started = time.perf_counter()
    results = run_sharded_partitions(
        [("bench", {"path": str(path), "capture": capture}, quick, False,
          None) for path in bench.discover(bench_dir, only)],
        workers=workers)
    records = [bench.BenchRecord(**data) for data in results]
    for record in records:
        if progress is not None:
            progress(record)
    return bench.bench_artifact(records, quick, started)

