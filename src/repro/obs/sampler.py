"""Periodic state sampling: token-flow and queue-depth time series.

Sampling rides the event loop instead of scheduling its own events: a
probe callback registered with :meth:`SimEngine.set_probe` fires at
most once per ``interval`` cycles, *at existing event timestamps*. That
keeps the simulation's final time and event order bit-identical to an
uninstrumented run — a self-scheduled sampler event after the last real
event would otherwise extend ``total_cycles``.

The sampler only reads state (pools, queues, pump) and appends to
:class:`TimeSeries`; it never mutates the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.policies.base import PowerManager
    from ..sim.memory_system import MemorySystem


class TimeSeries:
    """One sampled signal: parallel (cycle, value) arrays."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: List[int] = []
        self.values: List[float] = []

    def append(self, time: int, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def last(self) -> Tuple[int, float]:
        if not self.times:
            return (0, 0.0)
        return (self.times[-1], self.values[-1])

    def as_dict(self) -> Dict[str, List[float]]:
        return {"times": list(self.times), "values": list(self.values)}

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, {len(self.times)} samples)"


class StateSampler:
    """Samples pool occupancy and queue depths of one run.

    Built by :class:`repro.obs.telemetry.Telemetry` per simulation run;
    the returned :meth:`probe` is handed to ``SimEngine.set_probe``.
    """

    #: Signals sampled from the memory system / power manager.
    QUEUE_SIGNALS = ("rdq_depth", "wrq_depth", "stalled_writes",
                     "paused_writes", "inflight_writes")

    def __init__(self, mem: "MemorySystem", manager: "PowerManager",
                 series: Dict[str, TimeSeries]):
        self._mem = mem
        self._manager = manager
        self._series = series

    def _get(self, name: str) -> TimeSeries:
        ts = self._series.get(name)
        if ts is None:
            ts = TimeSeries(name)
            self._series[name] = ts
        return ts

    def probe(self, now: int) -> None:
        mem = self._mem
        manager = self._manager
        self._get("rdq_depth").append(now, float(len(mem.rdq)))
        self._get("wrq_depth").append(now, float(len(mem.wrq)))
        self._get("stalled_writes").append(now, float(len(mem.stalled)))
        self._get("paused_writes").append(now, float(len(mem.paused)))
        self._get("inflight_writes").append(now, float(mem._inflight_writes))
        pool = manager.dimm_pool
        self._get("dimm_tokens_allocated").append(now, pool.allocated)
        self._get("dimm_tokens_available").append(now, pool.available)
        for chip_id, allocated in enumerate(manager.chip_allocations()):
            self._get(f"chip{chip_id}_lcp_allocated").append(
                now, float(allocated)
            )
        if manager.gcp is not None:
            self._get("gcp_output_in_use").append(
                now, manager.gcp.output_in_use
            )
