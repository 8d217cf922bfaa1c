"""Discrete-event simulation kernel.

A single binary heap of ``(time, seq, callback)`` entries. The ``seq``
tiebreaker makes same-cycle ordering deterministic (insertion order), so
a simulation is exactly reproducible for a given trace and seed.

Telemetry can register a *probe* (:meth:`SimEngine.set_probe`): a
read-only callback invoked at most once per interval, always at an
existing event timestamp. Probes never enter the heap, so attaching one
cannot change event order or the simulation's final time.

Two watchdogs guarantee the kernel terminates instead of spinning
forever on a scheduling bug:

* an overall **event budget** (``max_events``), catching runaway but
  time-advancing schedules;
* a **forward-progress watchdog** (``max_same_cycle_events``), catching
  livelock — callbacks endlessly rescheduling each other at the current
  cycle so simulated time never advances. Legitimate same-cycle fan-out
  is bounded by cores × banks × queue depth, orders of magnitude below
  the threshold, so the watchdog can only trip on a genuine bug. It
  raises :class:`~repro.errors.WatchdogError` (a
  :class:`~repro.errors.SimulationError`) deterministically — it counts
  dispatches, never wall-clock — so a failing run fails identically on
  every retry and is quarantined rather than re-tried forever.
"""

from __future__ import annotations

import math
import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError, WatchdogError

Callback = Callable[[int], None]


class SimEngine:
    """Time-ordered callback dispatcher."""

    def __init__(self, max_events: int = 200_000_000,
                 max_same_cycle_events: int = 1_000_000):
        self._heap: List[Tuple[int, int, Callback]] = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0
        self._max_events = max_events
        self._max_same_cycle = max_same_cycle_events
        self._same_cycle_events = 0
        self._last_dispatch = -1
        self._probe: Optional[Callback] = None
        self._probe_interval = 0
        self._probe_next = math.inf

    def set_probe(self, interval: int, probe: Optional[Callback]) -> None:
        """Call ``probe(now)`` at most once per ``interval`` cycles,
        piggybacked on event dispatch (before the first callback at or
        past each boundary). ``probe=None`` removes it. The probe must
        only *read* simulation state."""
        if probe is None:
            self._probe = None
            self._probe_next = math.inf
            return
        if interval <= 0:
            raise SimulationError(f"probe interval must be positive: {interval}")
        self._probe = probe
        self._probe_interval = interval
        self._probe_next = self.now

    def schedule(self, when: int, callback: Callback) -> None:
        """Run ``callback(time)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})"
            )
        heapq.heappush(self._heap, (when, self._seq, callback))
        self._seq += 1

    def schedule_after(self, delay: int, callback: Callback) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule(self.now + delay, callback)

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the heap is empty (or ``until`` passes).

        Returns the final simulation time.
        """
        while self._heap:
            when, _seq, callback = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.now = when
            if when >= self._probe_next:
                self._probe(when)
                self._probe_next = when + self._probe_interval
            callback(when)
            self.events_processed += 1
            if when == self._last_dispatch:
                self._same_cycle_events += 1
                if self._same_cycle_events > self._max_same_cycle:
                    raise WatchdogError(
                        f"no forward progress: {self._same_cycle_events} "
                        f"events dispatched at cycle {when} without time "
                        "advancing — scheduling livelock"
                    )
            else:
                self._last_dispatch = when
                self._same_cycle_events = 0
            if self.events_processed > self._max_events:
                raise SimulationError(
                    f"event budget exceeded ({self._max_events}); "
                    "likely a scheduling livelock"
                )
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return f"SimEngine(now={self.now}, pending={self.pending})"
