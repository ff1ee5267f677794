"""Sim-time series sampling driven by the event kernel.

The Figure 7 monitor benchmark (and any experiment that wants "metric X
over simulated time") used to hand-roll its own stepping loop: advance
the clock, read a gauge, append to a list.  Each copy picked its own
cadence and its own output shape, and none of them composed with the
discrete-event experiments where time advances through
:class:`repro.hw.events.Simulator`.

:class:`TimeSeriesSampler` replaces those loops.  It schedules itself on
the event kernel at a fixed ``interval_ns``, evaluates a set of named
*probes* (zero-argument callables returning a number — a pull gauge, a
registry counter read, a model evaluated at ``now``), and appends one
aligned row per tick into per-series ring buffers.  Because the sampler
rides the same integer-nanosecond queue as the workload, its samples
are deterministic: same workload, same cadence, byte-identical CSV.

The ticks are observer events (:meth:`Simulator.every`): they never
count as work, so ``sim.run()`` still returns when the workload's last
event has run, and the last sample is the last tick at or before it.
``sim.run(until_ns=...)`` samples on the grid up to that horizon,
with or without other work.

For model-driven series with no event kernel at all (the monitor cost
model plots memory over *seconds* of host time), :func:`sample_function`
evaluates a function over a fixed grid into the same :class:`Series`
shape, so both kinds of experiment export through one CSV/JSON path.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.hw.events import Simulator

Probe = Callable[[], float]

#: Default ring capacity: enough for any packaged benchmark while
#: bounding memory if a sampler is left running on a long simulation.
DEFAULT_CAPACITY = 65536


class Series:
    """One named time series backed by a bounded ring buffer."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("series capacity must be positive")
        self.name = name
        self._times: Deque[float] = deque(maxlen=capacity)
        self._values: Deque[float] = deque(maxlen=capacity)

    def append(self, time_ns: float, value: float) -> None:
        self._times.append(time_ns)
        self._values.append(value)

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def latest(self) -> Optional[Tuple[float, float]]:
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, n={len(self)})"


class TimeSeriesSampler:
    """Periodic, kernel-driven sampling of named probes.

    Usage::

        sampler = TimeSeriesSampler(sim, interval_ns=1000)
        sampler.watch("ring_occupancy", lambda: float(nic.rx_ring.depth))
        sampler.watch("cache_misses", lambda: misses.value)
        sampler.start()
        sim.run()                     # ... the workload ...
        sampler.sample_now()          # final row after the last event
        sampler.write_csv("out.csv")
    """

    def __init__(self, sim: Simulator, interval_ns: int,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.interval_ns = int(interval_ns)
        self.capacity = capacity
        self._probes: Dict[str, Probe] = {}
        self._series: Dict[str, Series] = {}
        self._handle = None
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def watch(self, name: str, probe: Probe) -> Series:
        """Register ``probe`` under ``name``; returns its series."""
        if name in self._probes:
            raise ValueError(f"duplicate series name {name!r}")
        self._probes[name] = probe
        series = Series(name, capacity=self.capacity)
        self._series[name] = series
        return series

    @property
    def names(self) -> List[str]:
        return list(self._probes)

    def series(self, name: str) -> Series:
        return self._series[name]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_now(self) -> None:
        """Evaluate every probe once at the current simulated instant."""
        now = float(self.sim.now_ns)
        for name, probe in self._probes.items():
            self._series[name].append(now, float(probe()))
        self.samples_taken += 1

    def start(self) -> None:
        """Sample now, then every ``interval_ns`` as an observer tick."""
        if self._handle is not None:
            raise RuntimeError("sampler already started")
        self.sample_now()
        self._handle = self.sim.every(self.interval_ns, self.sample_now)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def rows(self) -> Tuple[List[str], List[List[float]]]:
        """Aligned export: header + one row per tick.

        All probes are sampled on the same tick, so the per-series ring
        buffers stay aligned (a full ring drops the same oldest tick
        from every series).
        """
        header = ["time_ns"] + sorted(self._series)
        names = header[1:]
        if not names:
            return header, []
        times = self._series[names[0]].times
        columns = [self._series[n].values for n in names]
        out: List[List[float]] = []
        for i, t in enumerate(times):
            out.append([t] + [col[i] for col in columns])
        return header, out

    def to_csv(self) -> str:
        header, rows = self.rows()
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(f"{v:g}" for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval_ns": self.interval_ns,
            "samples": self.samples_taken,
            "series": {
                name: {"times": s.times, "values": s.values}
                for name, s in sorted(self._series.items())
            },
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def sample_function(fn: Callable[[float], float], start: float, stop: float,
                    step: float, name: str = "value") -> Series:
    """Evaluate ``fn`` over a fixed grid into a :class:`Series`.

    For model-driven series with no event kernel (e.g. the monitor
    memory model, which is a closed-form function of elapsed seconds).
    The grid is inclusive of ``stop`` modulo floating-point stepping,
    matching the historical ``while t <= stop`` loops it replaces.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = int(round((stop - start) / step))
    series = Series(name, capacity=max(DEFAULT_CAPACITY, n_steps + 2))
    t = start
    i = 0
    while t <= stop + 1e-9:
        series.append(t, float(fn(t)))
        i += 1
        t = start + i * step
    return series


def merge_series_csv(series: Sequence[Series], time_label: str = "t") -> str:
    """CSV for a set of independently-gridded series sharing one grid.

    All series must have identical times (the :func:`sample_function`
    pattern with shared grid parameters); raises ``ValueError``
    otherwise rather than silently misaligning rows.
    """
    if not series:
        return time_label + "\n"
    times = series[0].times
    for s in series[1:]:
        if s.times != times:
            raise ValueError(
                f"series {s.name!r} is on a different time grid")
    header = [time_label] + [s.name for s in series]
    lines = [",".join(header)]
    columns = [s.values for s in series]
    for i, t in enumerate(times):
        row = [t] + [col[i] for col in columns]
        lines.append(",".join(f"{v:g}" for v in row))
    return "\n".join(lines) + "\n"
