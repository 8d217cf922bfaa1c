"""The :class:`Telemetry` façade: one object that observes runs.

Attach points (all wired automatically by ``run_simulation(...,
telemetry=...)``):

* ``MemorySystem.obs`` / ``PowerManager.obs`` — scope and instant
  events plus histogram observations, emitted from guarded hooks on
  the scheduler's state transitions;
* ``SimEngine.set_probe`` — periodic pool/queue sampling that
  piggybacks on existing event timestamps (see
  :mod:`repro.obs.sampler` for why this keeps runs bit-identical).

One ``Telemetry`` may observe many sequential runs (a scheme sweep);
each run becomes its own Perfetto process and its own ``sim_run``
record.

Outputs are fixed when the telemetry is built. Every record (``sim_run``,
``cache_event``, supervision, exploration, service and ``span``
records) goes through :meth:`Telemetry.record` the moment it happens:
appended to the ``manifest`` file when there is one, else kept in the
one :attr:`Telemetry.records` list. Runs observed in this process fill
:attr:`Telemetry.trace`; :meth:`Telemetry.close` writes it to the
``trace`` path, when there is one, with every span rendered into it.

Cross-process capture: an engine worker builds its own ``Telemetry``,
runs one simulation under it, and returns :meth:`worker_snapshot`
with the run's result — the run's records and metrics, plus its
Perfetto events only when the parent writes a trace. The parent folds
that back in with :meth:`merge_worker_telemetry`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .logging import get_logger
from .manifest import ManifestWriter
from .metrics import MetricsRegistry
from .perfetto import TID_BURST, TID_GCP, TID_SCHED, TraceBuilder
from .sampler import StateSampler, TimeSeries
from .tracing import Tracer, render_span, trace_id_for

log = get_logger("obs.telemetry")

#: Record kinds forwarded to ``Telemetry.on_event`` as they happen (the
#: gateway's ``/watch`` stream taps these).
LIVE_EVENTS = frozenset(
    {"retry", "run_failure", "explore_point", "explore_frontier"})


class _RunContext:
    """Book-keeping for one simulation run being observed."""

    __slots__ = ("pid", "scheme", "workload", "series", "open_rounds",
                 "open_gcp", "burst_since", "wall_start")

    def __init__(self, pid: int, scheme: str, workload: str):
        self.pid = pid
        self.scheme = scheme
        self.workload = workload
        self.series: Dict[str, TimeSeries] = {}
        #: write_id -> round-begin cycle (open write-round scopes).
        self.open_rounds: Dict[int, int] = {}
        #: write_id -> [first-acquire cycle, peak tokens] (GCP windows).
        self.open_gcp: Dict[int, List[float]] = {}
        self.burst_since: Optional[int] = None
        self.wall_start = 0.0


class Telemetry:
    """Collects metrics, time series, trace events and manifest records.

    ``manifest`` is the JSON-lines file records stream to; without one
    they collect in :attr:`records`. ``trace`` is where :meth:`close`
    writes the Perfetto trace; without one no span or worker event is
    kept for it.
    """

    def __init__(self, sample_interval: int = 5_000,
                 registry: Optional[MetricsRegistry] = None, *,
                 manifest=None, trace=None):
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.sample_interval = sample_interval
        self.registry = registry if registry is not None else MetricsRegistry()
        self.manifest = (ManifestWriter(manifest) if manifest is not None
                         else None)
        #: Every record, in event order, when there is no manifest.
        self.records: Optional[List[Dict[str, object]]] = (
            [] if self.manifest is None else None)
        self.trace_path = Path(trace) if trace is not None else None
        #: Simulated-time events of the runs observed in this process,
        #: plus merged worker events and spans when writing a trace.
        self.trace = TraceBuilder()
        #: Wall-clock spans (engine supervision, service request path,
        #: worker runs), each recorded as a ``span`` record.
        self.tracer = Tracer(self.record)
        #: Optional live-event hook ``(kind, record) -> None`` invoked
        #: on the :data:`LIVE_EVENTS` records as they happen (the
        #: gateway's ``/watch`` stream taps this); exceptions are
        #: swallowed so a subscriber can never corrupt supervision.
        self.on_event: Optional[Callable[[str, Dict[str, object]], None]] = \
            None
        #: Experiment id stamped into cache events (set by the CLI
        #: around each experiment's run()).
        self.current_experiment: Optional[str] = None
        self._run: Optional[_RunContext] = None
        self._next_pid = 0
        self._freq_ghz: Optional[float] = None

        reg = self.registry
        self._c_rounds = reg.counter(
            "write_rounds_done", "completed write rounds")
        self._c_writes = reg.counter("writes_done", "completed line writes")
        self._c_cancels = reg.counter(
            "write_cancellations", "writes aborted for a read")
        self._c_pauses = reg.counter(
            "write_pauses", "writes paused at an iteration boundary")
        self._c_stalls = reg.counter(
            "write_stalls", "iterations deferred waiting for tokens")
        self._c_bursts = reg.counter("burst_entries", "write bursts entered")
        self._c_mr = reg.counter(
            "mr_splits", "writes re-planned with Multi-RESET")
        self._c_round_splits = reg.counter(
            "round_splits", "writes split into sequential rounds")
        self._c_gcp = reg.counter(
            "gcp_acquires", "iterations that borrowed GCP output")
        self._h_latency = reg.histogram(
            "write_latency_cycles", "queue-to-completion write latency")
        self._h_iters = reg.histogram(
            "iterations_per_round", "P&V iterations per write round")
        self._h_tokens = reg.histogram(
            "tokens_per_round", "RESET-token demand per write round")
        self._h_wrq = reg.histogram(
            "wrq_depth_at_submit", "WRQ depth seen by arriving writes")
        self._h_gcp_tokens = reg.histogram(
            "gcp_tokens_per_window", "peak GCP output per borrow window")
        self._c_lost = reg.counter(
            "manifest_write_errors", "records lost to manifest write errors")

    # ==================================================================
    # Run lifecycle (called by repro.sim.runner)
    # ==================================================================
    def attach(self, config, scheme: str, workload: str,
               engine, mem, manager) -> None:
        """Instrument one run. The engine/mem/manager are per-run
        throwaways, so there is no detach."""
        if self._run is not None:
            raise RuntimeError(
                "telemetry already observing a run; finish_run() it first"
            )
        pid = self._next_pid
        self._next_pid += 1
        if self._freq_ghz is None:
            self._freq_ghz = config.cpu.freq_ghz
        run = _RunContext(pid, scheme, workload)
        run.wall_start = time.perf_counter()
        self._run = run

        self.trace.process(pid, f"{workload}/{scheme}")
        for bank in mem.dimm.banks:
            self.trace.thread(pid, bank.bank_id, f"bank{bank.bank_id}")
        self.trace.thread(pid, TID_BURST, "write-burst")
        self.trace.thread(pid, TID_GCP, "gcp-borrow")
        self.trace.thread(pid, TID_SCHED, "scheduler")

        mem.obs = self
        manager.obs = self
        sampler = StateSampler(mem, manager, run.series)
        engine.set_probe(self.sample_interval, sampler.probe)

    def finish_run(self, stats, end: int) -> Dict[str, object]:
        """Close the current run: flush counter tracks and record its
        ``sim_run`` record."""
        run = self._require_run()
        wall = time.perf_counter() - run.wall_start
        if run.burst_since is not None:  # burst open at end of sim
            self.trace.complete(run.pid, TID_BURST, "write_burst",
                                run.burst_since, end)
            run.burst_since = None
        for name, series in run.series.items():
            for t, v in zip(series.times, series.values):
                self.trace.counter(run.pid, name, t, {name: v})
        record: Dict[str, object] = {
            "type": "sim_run",
            "pid": run.pid,
            "scheme": run.scheme,
            "workload": run.workload,
            "cycles": end,
            "cpi": stats.cpi,
            "wall_time_s": wall,
            "stats": stats.snapshot(),
            "series": {
                name: {
                    "samples": len(series),
                    "last": series.last()[1],
                    "max": max(series.values) if series.values else 0.0,
                }
                for name, series in sorted(run.series.items())
            },
        }
        self._run = None
        self.record(record)
        return record

    def discard_run(self) -> None:
        """Drop the in-progress run context (aborted simulation)."""
        self._run = None

    def worker_snapshot(self, fingerprint: str, *,
                        trace: bool) -> Dict[str, object]:
        """Everything a worker process observed for one run, for the
        parent to :meth:`merge_worker_telemetry`: its records (the
        ``sim_run`` and the worker's spans) and metrics, and its
        Perfetto events only when the parent writes a ``trace``. It
        travels back, pickled, with the run's result."""
        return {
            "fingerprint": fingerprint,
            "worker_pid": os.getpid(),
            "records": self.records,
            "metrics": self.registry.snapshot(),
            "trace": self.trace.to_state() if trace else None,
            "freq_ghz": self._freq_ghz,
        }

    def merge_worker_telemetry(self, payload: Dict[str, object]) -> None:
        """Record one worker's :meth:`worker_snapshot`: its ``sim_run``
        record re-pid'd onto a fresh parent pid and stamped with the
        run's fingerprint, the worker's pid and the trace id, its spans
        as they are, its Perfetto events (if it sent any) and its
        counters/histograms."""
        worker_pid = payload["worker_pid"]
        fingerprint = payload["fingerprint"]
        if self._freq_ghz is None:
            self._freq_ghz = payload["freq_ghz"]
        for record in payload["records"]:
            if record["type"] == "sim_run":
                old_pid = record["pid"]
                new_pid = self._next_pid
                self._next_pid += 1
                record = {**record, "pid": new_pid, "worker": worker_pid,
                          "instrumented": True,
                          "trace_id": trace_id_for(fingerprint),
                          "fingerprint": fingerprint}
                if payload["trace"] is not None:
                    self.trace.merge(payload["trace"],
                                     pid_map={old_pid: new_pid})
                    # Re-register to mark worker provenance (last
                    # registration wins at export).
                    self.trace.process(
                        new_pid, f"{record['workload']}/{record['scheme']}"
                                 f" [worker {worker_pid}]")
            self.record(record)
        self.registry.merge_snapshot(payload["metrics"])

    def record(self, record: Dict[str, object]) -> None:
        """Append one record the moment it happens: to the manifest, or
        to :attr:`records` without one. A span is also rendered into the
        Perfetto trace when there is a trace output, and the
        :data:`LIVE_EVENTS` go to ``on_event``."""
        if self.manifest is not None:
            try:
                self.manifest.append(record)
            except OSError as exc:
                # A full or vanished disk must not fail the run or the
                # request being recorded: count each lost record.
                if not self._c_lost.value:
                    log.error("cannot append to the manifest %s (%s); "
                              "its records are being lost",
                              self.manifest.path, exc)
                self._c_lost.inc()
        else:
            self.records.append(record)
        kind = record["type"]
        hook = self.on_event  # read once: the gateway clears it at drain
        if kind == "span" and self.trace_path is not None:
            render_span(self.trace, record)
        elif kind in LIVE_EVENTS and hook is not None:
            try:
                hook(kind, record)
            except Exception:  # subscribers must never break recording
                pass

    def _require_run(self) -> _RunContext:
        if self._run is None:
            raise RuntimeError("telemetry is not attached to a run")
        return self._run

    # ==================================================================
    # Hooks (called from MemorySystem / PowerManager hot paths)
    # ==================================================================
    def on_write_round_begin(self, write, now: int) -> None:
        run = self._run
        if run is None:
            return
        run.open_rounds[write.write_id] = now
        self._h_tokens.observe(float(write.n_changed))
        self._h_iters.observe(float(write.total_iterations))

    def on_write_round_end(self, write, now: int) -> None:
        run = self._run
        if run is None:
            return
        begin = run.open_rounds.pop(write.write_id, now)
        self.trace.complete(run.pid, write.bank, "write_round", begin, now,
                            args=write.trace_args())
        self._c_rounds.inc()
        self._close_gcp_window(run, write, now)

    def on_write_cancelled(self, write, now: int) -> None:
        run = self._run
        if run is None:
            return
        begin = run.open_rounds.pop(write.write_id, now)
        self.trace.complete(run.pid, write.bank, "write_round (cancelled)",
                            begin, now, args=write.trace_args())
        self._c_cancels.inc()
        self._close_gcp_window(run, write, now)

    def on_write_paused(self, write, now: int) -> None:
        run = self._run
        if run is None:
            return
        self.trace.instant(run.pid, write.bank, "write_pause", now,
                           args={"write": write.write_id})
        self._c_pauses.inc()

    def on_write_stalled(self, write, now: int) -> None:
        run = self._run
        if run is None:
            return
        self.trace.instant(run.pid, write.bank, "write_stall", now,
                           args={"write": write.write_id,
                                 "iteration": write.current_iteration})
        self._c_stalls.inc()

    def on_write_done(self, job, latency: int, now: int) -> None:
        if self._run is None:
            return
        self._c_writes.inc()
        self._h_latency.observe(float(latency))

    def on_wrq_depth(self, depth: int) -> None:
        if self._run is None:
            return
        self._h_wrq.observe(float(depth))

    def on_burst(self, started: bool, now: int) -> None:
        run = self._run
        if run is None:
            return
        if started:
            run.burst_since = now
            self._c_bursts.inc()
        elif run.burst_since is not None:
            self.trace.complete(run.pid, TID_BURST, "write_burst",
                                run.burst_since, now)
            run.burst_since = None

    def on_round_split(self, job, n_rounds: int, now: int) -> None:
        run = self._run
        if run is None:
            return
        self.trace.instant(run.pid, TID_SCHED, "round_split", now,
                           args={"rounds": n_rounds, "bank": job.bank})
        self._c_round_splits.inc()

    def on_mr_split(self, write, now: int) -> None:
        run = self._run
        if run is None:
            return
        self.trace.instant(run.pid, TID_SCHED, "mr_split", now,
                           args={"write": write.write_id,
                                 "groups": write.mr_splits})
        self._c_mr.inc()

    def on_gcp_acquire(self, write, tokens: float, now: int) -> None:
        run = self._run
        if run is None:
            return
        self._c_gcp.inc()
        window = run.open_gcp.get(write.write_id)
        if window is None:
            run.open_gcp[write.write_id] = [now, tokens]
        elif tokens > window[1]:
            window[1] = tokens

    def _close_gcp_window(self, run: _RunContext, write, now: int) -> None:
        window = run.open_gcp.pop(write.write_id, None)
        if window is not None:
            begin, peak = int(window[0]), window[1]
            self.trace.complete(
                run.pid, TID_GCP, "gcp_borrow", begin, now,
                args={"write": write.write_id, "peak_tokens": peak},
            )
            self._h_gcp_tokens.observe(peak)

    # ==================================================================
    # Export
    # ==================================================================
    def close(self, closing: Optional[Dict[str, object]] = None) -> None:
        """Finish the outputs: record ``closing`` (``run_footer``,
        ``service_state``) and the final ``metrics_snapshot``, which is
        always last, then write the Perfetto trace if there is a trace
        output."""
        if closing is not None:
            self.record(closing)
        self.record({"type": "metrics_snapshot",
                     "metrics": self.registry.snapshot()})
        if self.trace_path is not None:
            self.trace.write(self.trace_path,
                             freq_ghz=self._freq_ghz or 4.0,
                             other_data={"runs": self._next_pid})

    def __repr__(self) -> str:
        return (
            f"Telemetry(runs={self._next_pid}, "
            f"trace_events={len(self.trace)}, "
            f"instruments={len(self.registry)})"
        )
