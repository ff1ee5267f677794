"""Outside-in host-time attribution for the benchmark.

Nothing under ``src/`` knows it is being measured: this module replaces
public class attributes (and the two module-level functions whose
callers look them up at call time) with timing wrappers, and restores
the originals in reverse order afterwards.

Two levels:

* **probes** are always on.  They sit on calls that happen a handful of
  times per run (``BuiltScenario.deploy`` / ``clean_up``,
  ``SNICRuntime.inject`` / ``attach``) plus a count-only wrapper on each
  attached NF's ``process``, and give the end-to-end metrics their
  inputs: set-up time, packets offered and completed, NF verdict drops.
* **spans** are installed only for the traced run.  Every wrapped call
  pushes a frame; on return its duration is added to its layer and to
  the enclosing frame's child time, so a layer's self time is its span
  minus its child spans.

Install once, outside any IsoSan or ``FaultInjector`` scope: both of
those also replace class attributes and restore what they found, so a
wrapper installed first is simply restored to on their way out.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: NF class name -> the spec's NF kind (``repro.scenario.spec.NF_KINDS``).
NF_KIND_BY_CLASS = {
    "Firewall": "firewall",
    "DPIEngine": "dpi",
    "NAT": "nat",
    "MaglevLoadBalancer": "lb",
    "DIR24_8": "lpm",
    "Monitor": "monitor",
}
NF_KINDS = ("firewall", "dpi", "nat", "lb", "lpm", "monitor")

#: (module, class or None, attribute, layer) for every span site.  A
#: ``None`` class means a module-level function; it is replaced in each
#: module listed, because callers that imported it by name hold their
#: own binding.
SPAN_SITES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.scenario.build", "BuiltScenario", "drive", "scenario.drive"),
    ("repro.core.nic_os", "NICOS", "NF_create", "core.nic_os.create"),
    ("repro.core.nic_os", "NICOS", "NF_destroy", "core.nic_os.destroy"),
    ("repro.core.runtime", "SNICRuntime", "run", "core.runtime"),
    ("repro.hw.events", "Simulator", "step", "hw.events"),
    ("repro.core.snic", "SNIC", "process_ingress", "core.snic"),
    ("repro.net.packet", "Packet", "from_bytes", "net.packet"),
    ("repro.hw.dma", "DMABank", "to_nic", "hw.dma"),
    ("repro.hw.dram", "DRAMChannel", "access", "hw.dram"),
    ("repro.obs.interference", "InterferenceAccountant", "blame",
     "obs.interference"),
    ("repro.obs.windows", "WindowedAggregator", "rotate", "obs.windows"),
    ("repro.obs.slo", "BurnRateAlerter", "observe", "obs.slo"),
    ("repro.obs.slo", None, "evaluate_tenant", "obs.slo"),
    ("repro.obs.scorecard", None, "evaluate_tenant", "obs.slo"),
    ("repro.obs.auditlog", "AuditLog", "append", "obs.auditlog.append"),
    ("repro.obs.auditlog", "AuditLog", "verify_chain",
     "obs.auditlog.verify"),
    ("repro.crypto.sha256", "SHA256", "digest", "crypto.sha256.digest"),
    ("repro.faults.inject", "FaultInjector", "install", "faults.install"),
    ("repro.faults.recovery", None, "retry_dma", "faults.retry"),
    ("repro.faults.chaos", None, "retry_dma", "faults.retry"),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Spans:
    """Per-layer call counts, inclusive time and self time."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        # One entry per open span: the time its children took so far.
        self._child_s: List[float] = []

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def timed(self, layer: str, func: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats(layer)
        child_s = self._child_s
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            child_s.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_s.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if child_s:
                    child_s[-1] += elapsed

        return span


class Patches:
    """Attribute replacements, undone last-in first-out."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str,
                make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        raw = vars(owner)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new: object = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._undo.append((owner, name, raw))

    def undo(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


def _resolve(module: str, cls: Optional[str]) -> object:
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class _CountedProcess:
    """An attached NF's ``process``: counts calls and ``None`` verdicts.

    The supervisor re-attaches the same NF object under a new identity
    after a crash, so the identity is updated in place rather than
    wrapped twice.
    """

    def __init__(self, probe: "Probe", nf_id: int, kind: str,
                 process: Callable[[Any], Any]) -> None:
        self.probe = probe
        self.nf_id = nf_id
        self.kind = kind
        self.process = process

    def __call__(self, packet: Any) -> Any:
        result = self.process(packet)
        probe = self.probe
        probe.nf_calls[self.kind] += 1
        if result is None:
            probe.nf_drops[self.kind] += 1
            probe.drops_by_nf[self.nf_id] = \
                probe.drops_by_nf.get(self.nf_id, 0) + 1
        return result


class Probe:
    """The benchmark's instrumentation for one workload run."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans = Spans()
        self._patches = Patches()
        self.packets_offered = 0
        self.packets_completed = 0
        self.nf_calls = {kind: 0 for kind in NF_KINDS}
        self.nf_drops = {kind: 0 for kind in NF_KINDS}
        #: NF verdict drops per nf_id (the tenant's identity at drop time).
        self.drops_by_nf: Dict[int, int] = {}
        self.bus_wait_ns = 0.0
        self.injected = 0
        self.instruments = 0
        self.sha256_bytes = 0

    # -- installation --------------------------------------------------

    def install(self) -> "Probe":
        from repro.core.runtime import SNICRuntime
        from repro.scenario.build import BuiltScenario

        self._hook(BuiltScenario, "deploy", "scenario.deploy")
        self._hook(BuiltScenario, "clean_up", "scenario.teardown",
                   before=self._count_completed)
        self._hook(SNICRuntime, "inject", "core.runtime.inject",
                   before=self._count_offered)
        self._hook(SNICRuntime, "attach", "core.runtime.attach",
                   after=self._wrap_nf)
        if self.trace:
            self._install_spans()
        return self

    def remove(self) -> None:
        self._patches.undo()

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def _hook(self, owner: object, name: str, layer: str,
              before: Optional[Callable[..., None]] = None,
              after: Optional[Callable[..., None]] = None) -> None:
        """Time ``owner.name`` as ``layer``; ``before(*args)`` and
        ``after(result, *args)`` run inside the span."""
        spans = self.spans

        def make(func: Callable[..., Any]) -> Callable[..., Any]:
            def call(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    before(*args, **kwargs)
                result = func(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return spans.timed(layer, call)

        self._patches.replace(owner, name, make)

    def _install_spans(self) -> None:
        from repro.crypto.sha256 import SHA256
        from repro.faults.inject import FaultInjector
        from repro.hw.bus import IOBus
        from repro.obs.metrics import MetricsRegistry

        for module, cls, name, layer in SPAN_SITES:
            self._hook(_resolve(module, cls), name, layer)
        self._hook(IOBus, "transfer", "hw.bus", after=self._bus_wait)
        self._hook(SHA256, "update", "crypto.sha256.update",
                   before=self._count_hashed)
        for name in ("counter", "gauge", "histogram"):
            self._hook(MetricsRegistry, name, "obs.metrics",
                       after=self._registry_size)
        self._hook(FaultInjector, "uninstall", "faults.uninstall",
                   before=self._count_injected)

    # -- hooks ---------------------------------------------------------

    def _count_completed(self, built: Any) -> None:
        # clean_up is idempotent; count each deployment once.
        if getattr(built, "_deployed", True) and built.runtime is not None:
            self.packets_completed += built.runtime.stats.completed

    def _count_offered(self, _runtime: Any, packets: Any) -> None:
        self.packets_offered += len(packets)

    def _wrap_nf(self, _result: Any, _runtime: Any, nf_id: int,
                 nf: Any) -> None:
        current = vars(nf).get("process")
        if isinstance(current, _CountedProcess):
            current.nf_id = nf_id
            return
        kind = NF_KIND_BY_CLASS[type(nf).__name__]
        process = nf.process
        if self.trace:
            process = self.spans.timed(f"nf.{kind}", process)
        nf.process = _CountedProcess(self, nf_id, kind, process)

    def _bus_wait(self, latency: float, bus: Any, _client: int,
                  n_bytes: int, _now_ns: float) -> None:
        bandwidth = getattr(bus.arbiter, "bandwidth", None)
        if bandwidth:
            self.bus_wait_ns += max(0.0, latency - n_bytes / bandwidth)

    def _registry_size(self, _instrument: Any, registry: Any,
                       *_args: Any, **_kwargs: Any) -> None:
        size = len(registry)
        if size > self.instruments:
            self.instruments = size

    def _count_hashed(self, _hasher: Any, data: bytes) -> None:
        self.sha256_bytes += len(data)

    def _count_injected(self, injector: Any) -> None:
        if injector.installed:
            self.injected += len(injector.records)

    # -- results -------------------------------------------------------

    def setup_s(self) -> float:
        return self.spans.stats("scenario.deploy").total_s

    def layer_metrics(self, run_s: float) -> Dict[str, Tuple[float, str]]:
        """The per-layer table of one traced run: name -> (value, unit)."""
        layer = self.spans.stats
        out: Dict[str, Tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (value, unit)

        put("scenario.deploy_s", layer("scenario.deploy").total_s, "s")
        put("scenario.drive_s", layer("scenario.drive").total_s, "s")
        put("scenario.teardown_s", layer("scenario.teardown").total_s, "s")
        create, destroy = layer("core.nic_os.create"), \
            layer("core.nic_os.destroy")
        put("core.nic_os.create_ms", _per_call(create) * 1e3, "ms")
        put("core.nic_os.destroy_ms", _per_call(destroy) * 1e3, "ms")
        put("core.nic_os.calls", create.calls + destroy.calls, "count")
        put("core.runtime.traffic_s", layer("core.runtime").total_s, "s")

        events = layer("hw.events")
        completed = self.packets_completed
        put("hw.events.events", events.calls, "count")
        put("hw.events.events_per_pkt", _ratio(events.calls, completed),
            "1/pkt")
        put("hw.events.work_ratio",
            _ratio(self.packets_offered + completed, events.calls), "ratio")
        put("hw.events.host_us_per_event", _per_call(events) * 1e6, "us")
        put("hw.events.self_s", events.self_s, "s")
        for name, stats in (("core.snic.ingress", layer("core.snic")),
                            ("net.packet.parse", layer("net.packet"))):
            put(f"{name}_calls", stats.calls, "count")
            put(f"{name}_us", _per_call(stats) * 1e6, "us")
        for kind in NF_KINDS:
            put(f"nf.{kind}.calls", self.nf_calls[kind], "count")
            put(f"nf.{kind}.us_per_call",
                _per_call(layer(f"nf.{kind}")) * 1e6, "us")
            put(f"nf.{kind}.verdict_drops", self.nf_drops[kind], "count")

        transfers = 0
        for name in ("hw.bus", "hw.dma", "hw.dram"):
            stats = layer(name)
            transfers += stats.calls
            put(f"{name}.calls", stats.calls, "count")
            put(f"{name}.self_s", stats.self_s, "s")
        put("hw.bus.sim_wait_ns_mean",
            _ratio(self.bus_wait_ns, layer("hw.bus").calls), "ns")
        blame = layer("obs.interference")
        put("obs.interference.blame_calls", blame.calls, "count")
        put("obs.interference.self_s", blame.self_s, "s")
        put("obs.interference.blame_per_transfer",
            _ratio(blame.calls, transfers), "ratio")
        lookups = layer("obs.metrics")
        put("obs.metrics.lookups", lookups.calls, "count")
        put("obs.metrics.self_s", lookups.self_s, "s")
        put("obs.metrics.instruments", self.instruments, "count")
        rotate = layer("obs.windows")
        put("obs.windows.rotations", rotate.calls, "count")
        put("obs.windows.rotate_ms", _per_call(rotate) * 1e3, "ms")
        put("obs.windows.self_s", rotate.self_s, "s")
        put("obs.slo.self_s", layer("obs.slo").self_s, "s")

        append = layer("obs.auditlog.append")
        put("obs.auditlog.records", append.calls, "count")
        put("obs.auditlog.append_us", _per_call(append) * 1e6, "us")
        put("obs.auditlog.verify_s", layer("obs.auditlog.verify").total_s,
            "s")
        update, digest = layer("crypto.sha256.update"), \
            layer("crypto.sha256.digest")
        put("crypto.sha256.calls", digest.calls, "count")
        put("crypto.sha256.bytes", self.sha256_bytes, "bytes")
        put("crypto.sha256.self_s", update.self_s + digest.self_s, "s")
        put("faults.injected", self.injected, "count")
        put("faults.retry_calls", layer("faults.retry").calls, "count")
        put("faults.self_s", sum(layer(name).self_s for name in (
            "faults.install", "faults.uninstall", "faults.retry")), "s")

        attributed = sum(s.self_s for s in self.spans.layers.values())
        put("other.self_s", max(0.0, run_s + self.setup_s() - attributed),
            "s")
        return out


def _per_call(stats: LayerStats) -> float:
    return stats.total_s / stats.calls if stats.calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
