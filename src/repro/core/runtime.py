"""Event-driven S-NIC runtime: packets over simulated time.

The step-wise API (``wire_arrival`` → ``process_ingress`` → ``run`` →
``process_egress``) is convenient for tests; real NICs interleave those
continuously.  :class:`SNICRuntime` drives an :class:`~repro.core.snic.SNIC`
on the discrete-event kernel (:mod:`repro.hw.events`):

* packet arrivals are scheduled at their trace timestamps;
* the packet input module runs at line-rate granularity (per arrival);
* each function's cores poll their RX ring on a fixed grid of
  ``poll_interval_ns`` (the first poll at one interval) and spend a
  modelled per-packet service time, serially from the poll instant;
* the output module drains TX rings as functions produce packets.

Polling is wake-on-enqueue: a delivery schedules its function's poll
at the next grid boundary unless one is pending, and polls never
re-arm.  Latency is what a poll on every boundary would give, idle
functions cost no events, and a run ends when the kernel runs out of
work, with every packet completed or dropped.

The runtime records per-packet end-to-end latency (wire-in → wire-out),
giving latency/throughput distributions for full-system experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.hw.events import EventHandle, Simulator
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.obs.tracer import get_tracer


def percentile(ordered: Sequence[int], q: float) -> float:
    """The ``q``-th percentile of an ascending list: the element at
    index ``floor(q/100 * n)``, clamped to the last; 0.0 when empty."""
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))])


@dataclass
class PacketTiming:
    """One packet's life cycle through the NIC."""

    nf_id: int
    arrival_ns: int
    departure_ns: int

    @property
    def latency_ns(self) -> int:
        return self.departure_ns - self.arrival_ns


@dataclass
class RuntimeStats:
    """Aggregate results of one run."""

    timings: List[PacketTiming] = field(default_factory=list)
    dropped: int = 0

    @property
    def completed(self) -> int:
        return len(self.timings)

    def latency_percentile(self, q: float) -> float:
        return percentile(sorted(t.latency_ns for t in self.timings), q)

    def throughput_mpps(self) -> float:
        if not self.timings:
            return 0.0
        span = max(t.departure_ns for t in self.timings) - min(
            t.arrival_ns for t in self.timings
        )
        return self.completed / span * 1e3 if span else 0.0


class SNICRuntime:
    """Drives an SNIC + its functions on simulated time."""

    def __init__(
        self,
        snic,
        poll_interval_ns: int = 2_000,
        service_ns_per_packet: int = 600,
    ) -> None:
        self.snic = snic
        self.sim = Simulator()
        self.poll_interval_ns = poll_interval_ns
        self.service_ns_per_packet = service_ns_per_packet
        self.stats = RuntimeStats()
        #: Optional completion observer, invoked as
        #: ``on_complete(nf_id, latency_ns, departure_ns)`` for every
        #: packet — how the SLO scorecard feeds per-tenant latency
        #: histograms at sim time without wrapping the runtime.
        self.on_complete: Optional[Callable[[int, int, int], None]] = None
        self._functions: Dict[int, NetworkFunction] = {}
        self._arrival_by_identity: Dict[int, List[int]] = {}
        #: nf_id -> its pending poll, if one is scheduled.
        self._polls: Dict[int, EventHandle] = {}
        # Bind the tracer at construction time, not import time: shard
        # workers build their runtime after per-process isolation, so
        # the instance must see *that* process's tracer singleton.
        self._tracer = get_tracer()
        if self._tracer.enabled:
            # Put every subsequent trace event on this run's simulated
            # clock, so hardware spans and packet spans share one axis.
            self._tracer.use_clock(lambda: self.sim.now_ns)

    def attach(self, nf_id: int, nf: NetworkFunction) -> None:
        """Bind the behavioural NF that runs on ``nf_id``'s cores."""
        if nf_id not in self.snic.live_functions:
            raise ValueError(f"NF {nf_id} is not live on this S-NIC")
        self._functions[nf_id] = nf

    def detach(self, nf_id: int) -> Optional[NetworkFunction]:
        """Unbind ``nf_id``'s NF and forget its queued work; returns it.

        Its pending poll is cancelled and the arrival times of packets
        still in its ring are dropped (the ring dies with the identity).
        """
        poll = self._polls.pop(nf_id, None)
        if poll is not None:
            poll.cancel()
        self._arrival_by_identity.pop(nf_id, None)
        return self._functions.pop(nf_id, None)

    # ------------------------------------------------------------------

    def inject(self, packets: Sequence[Packet]) -> None:
        """Schedule packet arrivals at their ``arrival_ns`` timestamps."""
        for packet in packets:
            self.sim.schedule_at(
                packet.arrival_ns, lambda p=packet: self._on_arrival(p)
            )

    def _on_arrival(self, packet: Packet) -> None:
        self.snic.rx_port.wire_arrival(packet)
        delivered = self.snic.process_ingress()
        tracer = self._tracer
        for nf_id, count in delivered.items():
            if nf_id == -1:
                self.stats.dropped += count
                if tracer.enabled:
                    tracer.instant("packet.drop", ts_ns=self.sim.now_ns,
                                   tenant=None, track="rx-port",
                                   cat="runtime", count=count)
                continue
            queue = self._arrival_by_identity.setdefault(nf_id, [])
            queue.extend([self.sim.now_ns] * count)
            if nf_id in self._functions and nf_id not in self._polls:
                interval = self.poll_interval_ns
                boundary = max(1, -(-self.sim.now_ns // interval)) * interval
                self._polls[nf_id] = self.sim.schedule_at(
                    boundary, lambda n=nf_id: self._poll(n))
            if tracer.enabled:
                tracer.counter_sample(
                    f"nf{nf_id}.rx_ring",
                    self.snic.record(nf_id).vpp.rx_ring.occupancy,
                    ts_ns=self.sim.now_ns, tenant=nf_id, track="rx-ring",
                    cat="runtime")

    def _poll(self, nf_id: int) -> None:
        self._polls.pop(nf_id, None)
        record = self.snic.record(nf_id)
        nf = self._functions[nf_id]
        served = 0
        while True:
            frame = record.vpp.rx_ring.pop()
            if frame is None:
                break
            served += 1
            arrival = self._arrival_by_identity.get(nf_id, [0]).pop(0) \
                if self._arrival_by_identity.get(nf_id) else self.sim.now_ns
            result = nf.process(Packet.from_bytes(frame))
            finish = self.sim.now_ns + served * self.service_ns_per_packet
            if self._tracer.enabled:
                # Serial per-core service: packet k occupies
                # [now + (k-1)*service, now + k*service).
                self._tracer.complete(
                    "nf.process",
                    finish - self.service_ns_per_packet,
                    self.service_ns_per_packet,
                    tenant=nf_id, track="nf-core", cat="runtime")
            if result is not None:
                self.sim.schedule_at(
                    finish,
                    lambda r=result, a=arrival, n=nf_id: self._on_complete(
                        n, r, a
                    ),
                )

    def _on_complete(self, nf_id: int, packet: Packet, arrival_ns: int) -> None:
        record = self.snic.record(nf_id)
        record.vpp.transmit(packet)
        record.vpp.drain_tx(self.snic.tx_port)
        self.stats.timings.append(
            PacketTiming(
                nf_id=nf_id, arrival_ns=arrival_ns, departure_ns=self.sim.now_ns
            )
        )
        if self._tracer.enabled:
            self._tracer.complete(
                "packet.e2e", arrival_ns, self.sim.now_ns - arrival_ns,
                tenant=nf_id, track="packet-latency", cat="runtime")
        if self.on_complete is not None:
            self.on_complete(nf_id, self.sim.now_ns - arrival_ns,
                             self.sim.now_ns)

    # ------------------------------------------------------------------

    def run(self, duration_ns: Optional[int] = None) -> RuntimeStats:
        """Run until every injected packet has completed or been dropped
        (or, with ``duration_ns``, up to that instant).

        Safe to call again after an exception escaped a callback (an
        injected NF crash): the kernel resumes where it stopped.
        """
        self.sim.run(until_ns=duration_ns)
        return self.stats
