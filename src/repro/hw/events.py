"""A small discrete-event simulation kernel.

All timing in the reproduction runs on simulated nanoseconds managed by
:class:`Simulator`: bus epochs, accelerator service times, packet
arrivals, and the instruction-latency oracle all schedule events here.

The kernel is intentionally minimal — a monotonic clock plus a stable
priority queue of callbacks — because the heavy lifting (cache behaviour,
arbitration) lives in the component models.

Telemetry
---------

Every :class:`Simulator` feeds two counters of the run it was built in
(:class:`repro.obs.telemetry.Telemetry`) — events executed and simulated
nanoseconds advanced.  The benchmark and matrix harnesses read them
after each scenario so every ``BENCH_*.json`` records how much simulated
work a benchmark actually did; the cost on the event hot path is two
integer adds.  Host time per layer is measured from outside the
kernel (``perfbench/run.py --trace 1``), so the event loop carries no
timing hook.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.obs.telemetry import current


@dataclass
class _Event:
    callback: Callable[[], None]
    work: bool
    live: bool = True  # False once it has run or been cancelled


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    def __init__(self, sim: "Simulator", event: _Event) -> None:
        self._sim = sim
        self._event = event

    def cancel(self) -> None:
        """Drop the event if it has not run yet; later calls are no-ops."""
        event = self._event
        if event.live:
            event.live = False
            if event.work:
                self._sim._work -= 1


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

    Events scheduled for the same instant fire in scheduling order
    (stable), which keeps component interactions deterministic.

    Every event is either *work* (:meth:`schedule`) or an *observer
    tick* (:meth:`every`: window rotation and gauge sampling).  A run
    without a horizon ends when no work remains, so observers never
    keep a simulation alive and never need to know when it is over.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, _Event]] = []
        self._sequence = itertools.count()
        self._now_ns = 0
        self._work = 0
        self._telemetry = current()

    @property
    def now_ns(self) -> int:
        return self._now_ns

    def _push(self, delay_ns: int, callback: Callable[[], None],
              work: bool) -> _Event:
        if delay_ns < 0:
            raise ValueError("cannot schedule events in the past")
        time_ns = self._now_ns + int(delay_ns)
        event = _Event(callback, work)
        heapq.heappush(self._queue, (time_ns, next(self._sequence), event))
        if work:
            self._work += 1
        return event

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay_ns`` nanoseconds from now."""
        return EventHandle(self, self._push(delay_ns, callback, work=True))

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time_ns``."""
        return self.schedule(time_ns - self._now_ns, callback)

    def every(self, interval_ns: int,
              callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` every ``interval_ns`` from now, as an observer.

        Ticks are never work: a run without a horizon returns once the
        last work event has run, and a tick still queued fires only if
        later work (or a horizon) carries the clock past it.  Cancelling
        the handle, also from inside ``callback``, stops the ticks.
        """
        if interval_ns <= 0:
            raise ValueError("tick interval must be positive")
        interval_ns = int(interval_ns)

        def tick() -> None:
            handle._event = self._push(interval_ns, tick, work=False)
            callback()

        handle = EventHandle(self, self._push(interval_ns, tick, work=False))
        return handle

    def step(self) -> bool:
        """Run the next pending event; returns False when queue is empty."""
        queue = self._queue
        while queue:
            time_ns, _, event = heapq.heappop(queue)
            if not event.live:
                continue
            event.live = False
            if event.work:
                self._work -= 1
            advanced = time_ns - self._now_ns
            self._now_ns = time_ns
            event.callback()
            telemetry = self._telemetry
            telemetry.events_executed += 1
            telemetry.sim_ns_advanced += advanced
            return True
        return False

    def run(self, until_ns: Optional[int] = None, max_events: int = 10_000_000) -> int:
        """Run events, stopping when no work is left or at ``until_ns``.

        Without ``until_ns`` the run returns as soon as the last work
        event has run; observer ticks due before it run in time order.
        With it, every event up to ``until_ns`` runs, ticks included,
        and the clock then stands at ``until_ns``.  Returns the number
        of events executed; ``max_events`` guards against accidental
        infinite self-rescheduling loops.
        """
        executed = 0
        queue = self._queue
        while queue and executed < max_events:
            time_ns, _, head = queue[0]
            if not head.live:
                heapq.heappop(queue)
                continue
            if until_ns is None:
                if not self._work:
                    break
            elif time_ns > until_ns:
                break
            self.step()
            executed += 1
        if until_ns is not None and self._now_ns < until_ns:
            self._now_ns = until_ns
        return executed

    def advance(self, delta_ns: int) -> int:
        """Run all events within the next ``delta_ns`` nanoseconds."""
        return self.run(until_ns=self._now_ns + delta_ns)

    @property
    def pending(self) -> int:
        """Live work events still queued (observer ticks excluded)."""
        return self._work
