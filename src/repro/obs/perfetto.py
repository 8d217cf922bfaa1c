"""Chrome/Perfetto ``trace_event`` JSON export.

Produces the JSON Object Format of the Trace Event specification:
``{"traceEvents": [...], "displayTimeUnit": "ns", "otherData": {...}}``,
which both ``chrome://tracing`` and https://ui.perfetto.dev load
directly.

Mapping of simulator concepts onto the trace model:

* one simulation run = one *process* (pid), named ``workload/scheme``;
* banks, the burst state, the GCP and the scheduler are *threads*
  (tids) within that process;
* write rounds are complete ("X") duration events on their bank's
  thread; bursts and GCP borrow windows are durations on their own
  threads; pauses, cancellations, stalls and Multi-RESET splits are
  instant ("i") events;
* sampled pool/queue time series become counter ("C") events, rendered
  by Perfetto as stacked area tracks.

Timestamps are microseconds (the spec's unit); cycles convert via the
configured core frequency.

Two timestamp domains coexist in one builder:

* **simulated time** — events recorded in cycles (``complete`` /
  ``instant`` / ``counter``), converted to microseconds at export;
* **wall-clock time** — span events from :mod:`repro.obs.tracing`
  (``complete_wall`` / ``instant_wall``), already in epoch
  microseconds. At export they are normalised by subtracting the
  earliest wall timestamp in the trace, so parent- and worker-process
  spans (which share the machine clock) stay mutually aligned and the
  trace starts near zero.

:meth:`merge` folds another builder (or its :meth:`to_state` dict, the
JSON-safe form workers return with each run's result) into this one,
with an optional pid remap so each worker's logical run pids land on
fresh parent pids. Duplicate process/thread name metadata is deduplicated at
export, last registration wins — so a merged worker process can be
renamed by simply registering the pid again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Reserved tids within a run's process. Banks use tid = bank index
#: (0..n_banks-1); control tracks sit above them.
TID_BURST = 100
TID_GCP = 101
TID_SCHED = 102


def cycles_to_us(cycles: Union[int, float], freq_ghz: float) -> float:
    """CPU cycles at ``freq_ghz`` to trace microseconds."""
    return cycles / (freq_ghz * 1000.0)


class TraceBuilder:
    """Accumulates trace events; timestamps stay in cycles until export."""

    def __init__(self) -> None:
        self._events: List[Dict[str, object]] = []
        self._meta: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def process(self, pid: int, name: str) -> None:
        self._meta.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name},
        })

    def thread(self, pid: int, tid: int, name: str) -> None:
        self._meta.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    # ------------------------------------------------------------------
    # Events (times in cycles; converted at export)
    # ------------------------------------------------------------------
    def complete(self, pid: int, tid: int, name: str, begin: int,
                 end: int, args: Optional[Dict[str, object]] = None,
                 category: str = "sim") -> None:
        """A duration event spanning ``[begin, end]`` cycles."""
        event: Dict[str, object] = {
            "ph": "X", "pid": pid, "tid": tid, "name": name,
            "cat": category, "ts": begin, "dur": max(0, end - begin),
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant(self, pid: int, tid: int, name: str, time: int,
                args: Optional[Dict[str, object]] = None,
                category: str = "sim") -> None:
        event: Dict[str, object] = {
            "ph": "i", "pid": pid, "tid": tid, "name": name,
            "cat": category, "ts": time, "s": "t",
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def counter(self, pid: int, name: str, time: int,
                values: Dict[str, float], category: str = "sim") -> None:
        self._events.append({
            "ph": "C", "pid": pid, "tid": 0, "name": name,
            "cat": category, "ts": time, "args": dict(values),
        })

    # ------------------------------------------------------------------
    # Wall-clock events (times in epoch microseconds; normalised at
    # export instead of frequency-converted)
    # ------------------------------------------------------------------
    def complete_wall(self, pid: int, tid: int, name: str, begin_us: int,
                      dur_us: int, args: Optional[Dict[str, object]] = None,
                      category: str = "trace") -> None:
        """A duration event measured on the wall clock."""
        event: Dict[str, object] = {
            "ph": "X", "pid": pid, "tid": tid, "name": name,
            "cat": category, "ts": int(begin_us), "dur": max(0, int(dur_us)),
            "wall": True,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant_wall(self, pid: int, tid: int, name: str, time_us: int,
                     args: Optional[Dict[str, object]] = None,
                     category: str = "trace") -> None:
        event: Dict[str, object] = {
            "ph": "i", "pid": pid, "tid": tid, "name": name,
            "cat": category, "ts": int(time_us), "s": "t", "wall": True,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    # ------------------------------------------------------------------
    # Merge & state transport
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """The builder's raw contents as a JSON-safe dict (timestamps
        still in their native domain), for transport back from a
        worker with its run's result."""
        return {
            "events": [dict(e) for e in self._events],
            "meta": [dict(m) for m in self._meta],
        }

    def merge(self, other: Union["TraceBuilder", Dict[str, object]],
              pid_map: Optional[Dict[int, int]] = None) -> None:
        """Fold another builder (or a :meth:`to_state` dict) into this
        one. ``pid_map`` remaps the source's pids (e.g. a worker's
        logical run pid 0 onto a fresh parent pid); unmapped pids pass
        through unchanged."""
        if isinstance(other, TraceBuilder):
            events, meta = other._events, other._meta
        else:
            events = other.get("events", [])
            meta = other.get("meta", [])

        def remap(event: Dict[str, object]) -> Dict[str, object]:
            copied = dict(event)
            if "args" in copied and isinstance(copied["args"], dict):
                copied["args"] = dict(copied["args"])
            if pid_map:
                pid = int(copied.get("pid", 0))
                copied["pid"] = pid_map.get(pid, pid)
            return copied

        self._events.extend(remap(e) for e in events)
        self._meta.extend(remap(m) for m in meta)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _deduped_meta(self) -> List[Dict[str, object]]:
        """Metadata with duplicate (kind, pid, tid) entries collapsed,
        last registration winning (stable in first-seen order)."""
        chosen: Dict[tuple, Dict[str, object]] = {}
        order: List[tuple] = []
        for meta in self._meta:
            key = (meta["name"], meta["pid"], meta["tid"])
            if key not in chosen:
                order.append(key)
            chosen[key] = meta
        return [dict(chosen[key]) for key in order]

    def _wall_epoch_us(self) -> Optional[int]:
        """Earliest wall-clock timestamp, the zero of the wall domain."""
        wall_ts = [int(e["ts"]) for e in self._events if e.get("wall")]
        return min(wall_ts) if wall_ts else None

    def to_dict(self, freq_ghz: float = 4.0,
                other_data: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        """The full trace as a JSON-serialisable dict."""
        events: List[Dict[str, object]] = self._deduped_meta()
        epoch_us = self._wall_epoch_us()
        for raw in self._events:
            event = dict(raw)
            if event.pop("wall", False):
                event["ts"] = float(int(event["ts"]) - (epoch_us or 0))
                if "dur" in event:
                    event["dur"] = float(event["dur"])
            else:
                event["ts"] = cycles_to_us(int(event["ts"]), freq_ghz)
                if "dur" in event:
                    event["dur"] = cycles_to_us(int(event["dur"]), freq_ghz)
            events.append(event)
        other = dict(other_data or {})
        if epoch_us is not None:
            other.setdefault("wall_epoch_us", epoch_us)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": other,
        }

    def write(self, path, freq_ghz: float = 4.0,
              other_data: Optional[Dict[str, object]] = None) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(self.to_dict(freq_ghz, other_data), handle)

    def events_named(self, name: str) -> List[Dict[str, object]]:
        """All non-metadata events with one name (for tests)."""
        return [e for e in self._events if e["name"] == name]

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"TraceBuilder({len(self._events)} events)"
