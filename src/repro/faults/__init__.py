"""repro.faults — deterministic fault injection, recovery, blast radius.

Three layers (growing upward from the plan):

* :mod:`repro.faults.plan` — a declarative, seeded schedule of typed
  faults (:class:`~repro.faults.plan.FaultPlan`).  Owns its
  ``random.Random``; never reads the wall clock.
* :mod:`repro.faults.inject` — interposition hooks
  (:class:`~repro.faults.inject.FaultInjector`) that wrap the hardware
  and core models the same way the IsoSan sanitizer does, turning armed
  plan events into raised/absorbed faults, tenant-tagged tracer
  instants, and ``obs.metrics`` counters.
* :mod:`repro.faults.recovery` — sim-time watchdogs on ``hw.events``,
  bounded-backoff DMA retry, scrub-verified NF restart, and the
  commodity power-cycle degradation model.

:mod:`repro.faults.differential` is the harness both isolation studies
run on (legs, injector scope, forensics, rendering, CLI);
:mod:`repro.faults.chaos` drives the three layers through it as the
blast-radius study behind ``python -m repro chaos``.
"""

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.inject import FaultInjector, InjectionRecord
from repro.faults.recovery import (
    BackoffPolicy,
    CommodityRecovery,
    NFSupervisor,
    Watchdog,
    retry_dma,
)

__all__ = [
    "BackoffPolicy",
    "CommodityRecovery",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "InjectionRecord",
    "NFSupervisor",
    "Watchdog",
    "retry_dma",
]
