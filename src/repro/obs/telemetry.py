"""Run-owned telemetry: every sink a simulation run writes to.

One :class:`Telemetry` holds a run's metrics registry, the interference
accountant that blames into it, the tracer, the audit log, the flight
recorder and the event kernel's work counters.  A harness opens a run
with :func:`open_run`::

    with open_run() as tel:
        tel.arm(audit_log=AuditLog())
        with build_scenario(spec) as built:
            outputs = built.drive()
        records = len(tel.audit_log)

Inside the block :func:`current` returns ``tel``; on exit the enclosing
run is current again, exactly as it was.  Runs share nothing, so a spec
run after another one in the same process reports what it reports in a
fresh process, and a harness never resets anything.  Code that runs
outside any harness records into the process's default run.

Components take ``current()`` once, at construction, and read the sink
they need at use time, so a sink armed after a component was built
still sees its events::

    audit = self._telemetry.audit
    if audit is not None:
        audit.emit("tlb.clear", tenant=owner, ...)

A disarmed sink is ``None``, never a no-op object: the disabled cost of
a hook is two attribute loads and an identity test (DESIGN.md §1.4).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

from repro.obs.interference import InterferenceAccountant
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.auditlog import AuditLog
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracer import Tracer

#: The sinks :meth:`Telemetry.arm` installs and removes.
SINKS = ("tracer", "audit_log", "flight")


class Telemetry:
    """The telemetry of one run; see the module docstring."""

    __slots__ = ("registry", "accountant", "tracer", "audit_log", "flight",
                 "audit", "events_executed", "sim_ns_advanced")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.accountant = InterferenceAccountant(self.registry)
        self.tracer: Optional[Tracer] = None
        self.audit_log: Optional[AuditLog] = None
        self.flight: Optional[FlightRecorder] = None
        #: Where security events go: the audit log (which copies each
        #: record into the flight recorder), else the flight recorder
        #: alone, else ``None``.
        self.audit: Optional[Union[AuditLog, FlightRecorder]] = None
        #: Events run and simulated nanoseconds advanced by every
        #: :class:`repro.hw.events.Simulator` built in this run.
        self.events_executed = 0
        self.sim_ns_advanced = 0

    def arm(self, **sinks: object) -> "Telemetry":
        """Install the named sinks (``tracer``, ``audit_log``, ``flight``);
        ``None`` removes one.  Sinks not named stay as they are.  An
        armed flight recorder receives a copy of every trace event and
        security event."""
        for name, sink in sinks.items():
            if name not in SINKS:
                raise TypeError(f"unknown telemetry sink {name!r}")
            setattr(self, name, sink)
        flight = self.flight
        if self.tracer is not None:
            self.tracer.mirror = flight
        if self.audit_log is not None:
            self.audit_log.mirror = flight
        self.audit = self.audit_log if self.audit_log is not None else flight
        return self

    def use_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Bind every armed sink's time source; ``None`` reverts each to
        its deterministic internal tick."""
        for sink in (self.tracer, self.audit_log, self.flight):
            if sink is not None:
                sink.use_clock(clock)


_current = Telemetry()


def current() -> Telemetry:
    """The telemetry of the innermost open run."""
    return _current


@contextmanager
def open_run() -> Iterator[Telemetry]:
    """Make a fresh :class:`Telemetry` current for the ``with`` block."""
    global _current
    outer = _current
    telemetry = _current = Telemetry()
    try:
        yield telemetry
    finally:
        _current = outer
