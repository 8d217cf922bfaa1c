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
manifest record.

Cross-process capture: an engine worker builds its own ``Telemetry``,
runs one simulation under it, and returns :meth:`worker_snapshot`
with the run's result; the parent folds that back in with
:meth:`merge_worker_telemetry` — run records keep full series
summaries, spans land in the shared :class:`~repro.obs.tracing.Tracer`,
trace events merge into one multi-process Perfetto export, and worker
counters/histograms add into the parent registry.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional

from .manifest import ManifestWriter, run_header
from .metrics import MetricsRegistry
from .perfetto import TID_BURST, TID_GCP, TID_SCHED, TraceBuilder
from .sampler import StateSampler, TimeSeries
from .tracing import Tracer, trace_id_for


class _RunContext:
    """Book-keeping for one simulation run being observed."""

    __slots__ = ("pid", "scheme", "workload", "series", "open_rounds",
                 "open_gcp", "burst_since", "wall_start", "record")

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
        self.record: Optional[Dict[str, object]] = None


class Telemetry:
    """Collects metrics, time series, trace events and run manifests."""

    def __init__(self, sample_interval: int = 5_000,
                 registry: Optional[MetricsRegistry] = None):
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.sample_interval = sample_interval
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = TraceBuilder()
        #: Wall-clock span records (engine supervision, service request
        #: path, worker runs) — exported alongside the simulated-time
        #: trace and as manifest ``span`` records.
        self.tracer = Tracer()
        #: Optional live-event hook ``(kind, record) -> None`` invoked
        #: on retry / run_failure records as they happen (the gateway's
        #: ``/watch`` stream taps this); exceptions are swallowed so a
        #: subscriber can never corrupt supervision.
        self.on_event: Optional[Callable[[str, Dict[str, object]], None]] = \
            None
        #: Completed ``sim_run`` manifest records, in run order.
        self.runs: List[Dict[str, object]] = []
        #: ``cache_event`` manifest records: one per run acquisition
        #: through the experiment-layer cache (hit or compute).
        self.sim_requests: List[Dict[str, object]] = []
        #: Failure-supervision records (``run_failure`` / ``retry`` /
        #: ``pool_respawn`` / ``batch_cohort``), in event order.
        self.resilience_events: List[Dict[str, object]] = []
        #: ``service_request`` manifest records: one per gateway request
        #: against a simulation endpoint (``/run``, ``/experiment``).
        self.service_requests: List[Dict[str, object]] = []
        #: The engine's ``execute_plan`` summary, written to the
        #: manifest as a ``plan_summary`` record when set by the CLI.
        self.plan_summary: Optional[Dict[str, object]] = None
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
        """Close the current run: flush counter tracks and build its
        ``sim_run`` manifest record."""
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
        run.record = record
        self.runs.append(record)
        self._run = None
        return record

    def discard_run(self) -> None:
        """Drop the in-progress run context (aborted simulation)."""
        self._run = None

    def worker_snapshot(self, fingerprint: str) -> Dict[str, object]:
        """Everything a worker process observed for one run, as a
        JSON-safe payload the parent can
        :meth:`merge_worker_telemetry`. It travels back with the run's
        result."""
        return {
            "fingerprint": fingerprint,
            "worker_pid": os.getpid(),
            "trace_id": trace_id_for(fingerprint),
            "run": self.runs[-1] if self.runs else None,
            "spans": self.tracer.to_records(),
            "metrics": self.registry.snapshot(),
            "trace": self.trace.to_state(),
            "freq_ghz": self._freq_ghz,
        }

    def merge_worker_telemetry(self, payload: Dict[str, object]) -> None:
        """Fold one worker's :meth:`worker_snapshot` into this
        telemetry: the run record (re-pid'd onto a fresh parent pid,
        stamped with the run's fingerprint, the worker's pid and the
        trace id), its spans, its Perfetto events and its
        counters/histograms."""
        worker_pid = payload.get("worker_pid")
        trace_id = payload.get("trace_id")
        fingerprint = payload.get("fingerprint")
        if self._freq_ghz is None and payload.get("freq_ghz"):
            self._freq_ghz = payload["freq_ghz"]

        run = payload.get("run")
        if isinstance(run, dict):
            new_pid = self._next_pid
            self._next_pid += 1
            merged_run = dict(run)
            old_pid = merged_run.get("pid")
            merged_run.update({
                "pid": new_pid,
                "worker": worker_pid,
                "instrumented": True,
                "trace_id": trace_id,
                "fingerprint": fingerprint,
            })
            self.runs.append(merged_run)
            state = payload.get("trace")
            if isinstance(state, dict):
                pid_map = ({int(old_pid): new_pid}
                           if old_pid is not None else None)
                self.trace.merge(state, pid_map=pid_map)
                # Re-register to mark worker provenance (last registration
                # wins at export).
                self.trace.process(
                    new_pid,
                    f"{merged_run.get('workload')}/"
                    f"{merged_run.get('scheme')} [worker {worker_pid}]",
                )

        spans = payload.get("spans")
        if isinstance(spans, list):
            self.tracer.absorb(spans)
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            self.registry.merge_snapshot(metrics)

    def record_sim_request(self, *, workload: str, scheme: str,
                           fingerprint: str, source: str,
                           worker: Optional[int] = None,
                           prefetch: bool = False) -> None:
        """Record one run acquisition through the experiment-layer run
        cache. ``source`` is ``memory``, ``disk`` or ``computed``;
        ``cache_hit`` is derived so manifest consumers can aggregate
        without knowing the source vocabulary."""
        self.sim_requests.append({
            "type": "cache_event",
            "workload": workload,
            "scheme": scheme,
            "fingerprint": fingerprint,
            "source": source,
            "cache_hit": source != "computed",
            "worker": worker,
            "prefetch": prefetch,
            "experiment": self.current_experiment,
        })

    def record_retry(self, *, fingerprint: str, workload: str, scheme: str,
                     attempt: int, delay_s: float, error_type: str) -> None:
        """Record one failed attempt being retried by the engine's
        supervisor (manifest ``retry`` record); ``delay_s`` is the
        deterministic fingerprint-jittered backoff."""
        record = {
            "type": "retry",
            "fingerprint": fingerprint,
            "workload": workload,
            "scheme": scheme,
            "attempt": attempt,
            "delay_s": delay_s,
            "error_type": error_type,
        }
        self.resilience_events.append(record)
        self._emit("retry", record)

    def record_run_failure(self, failure: Dict[str, object]) -> None:
        """Record a terminal run failure (manifest ``run_failure``
        record; its ``verdict`` is ``fail`` or ``quarantine``)."""
        record = {"type": "run_failure", **failure}
        self.resilience_events.append(record)
        self._emit("run_failure", record)

    def record_pool_respawn(self, *, respawns: int, reason: str,
                            requeued: int,
                            error: Optional[str] = None) -> None:
        """Record a worker-pool rebuild (manifest ``pool_respawn``
        record)."""
        self.resilience_events.append({
            "type": "pool_respawn",
            "respawns": respawns,
            "reason": reason,
            "requeued": requeued,
            "error": error,
        })

    def record_batch_cohort(self, *, action: str, key: str, size: int,
                            delivered: Optional[int] = None,
                            detail: Optional[str] = None) -> None:
        """Record one cohort of plan execution (manifest
        ``batch_cohort`` record, schema v10). ``action`` is ``executed``
        (the worker ran every member; ``delivered`` of ``size`` runs
        produced results) or ``dissolved`` (a cohort of several runs was
        cut short — its worker died or hung — so its finished members
        were kept and the rest requeued; ``detail`` names the
        reason)."""
        self.resilience_events.append({
            "type": "batch_cohort",
            "action": action,
            "key": key,
            "size": size,
            "delivered": delivered,
            "detail": detail,
        })

    def record_explore(self, record: Dict[str, object]) -> None:
        """Record one exploration progress record built by
        :class:`~repro.explore.session.ExploreSession` (manifest
        ``explore_point`` or ``explore_frontier`` record, schema v9)
        and forward it to ``on_event`` under its ``type``. An
        ``explore_point`` says how one design-space point's run was
        acquired (``source``: ``memory``/``disk``/``computed``,
        ``invalid`` lowering or ``failed``) with the point's parameter
        values and objectives; an ``explore_frontier`` lists the Pareto
        frontier's member run fingerprints after one generation."""
        self.resilience_events.append(record)
        self._emit(str(record["type"]), record)

    def record_service_request(self, *, method: str, path: str,
                               status: int, wall_ms: float,
                               error: Optional[str] = None) -> None:
        """Record one gateway request against a simulation endpoint
        (manifest ``service_request`` record, schema v4)."""
        self.service_requests.append({
            "type": "service_request",
            "method": method,
            "path": path,
            "status": status,
            "wall_ms": round(wall_ms, 3),
            "error": error,
        })

    def _emit(self, kind: str, record: Dict[str, object]) -> None:
        hook = self.on_event
        if hook is not None:
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
    def write_trace(self, path, freq_ghz: Optional[float] = None) -> None:
        """Write everything observed so far as Perfetto-loadable JSON:
        the simulated-time events (local and merged worker runs) plus
        every wall-clock span, in one multi-process trace. The export
        works on a merged copy, so it can be called repeatedly."""
        combined = TraceBuilder()
        combined.merge(self.trace)
        self.tracer.export_to(combined)
        combined.write(
            path,
            freq_ghz=freq_ghz or self._freq_ghz or 4.0,
            other_data={"runs": len(self.runs),
                        "spans": len(self.tracer)},
        )

    def write_manifest(self, path, config=None, *,
                       seed: Optional[int] = None,
                       scale: Optional[str] = None,
                       service: Optional[Dict[str, object]] = None,
                       **context) -> ManifestWriter:
        """Write header + per-run records + the full metrics snapshot
        as JSON-lines. ``service``, when given, is the gateway's final
        operational snapshot (``service_state`` record, schema v4);
        ``span`` records are schema v5."""
        writer = ManifestWriter(path)
        if config is not None:
            writer.append(run_header(config, seed=seed, scale=scale,
                                     **context))
        writer.extend(self.runs)
        writer.extend(self.sim_requests)
        writer.extend(self.resilience_events)
        writer.extend(self.service_requests)
        writer.extend(self.tracer.to_records())
        if self.plan_summary is not None:
            writer.append({"type": "plan_summary", **self.plan_summary})
        if self.service_requests:
            by_status: Dict[str, int] = {}
            for request in self.service_requests:
                key = str(request["status"])
                by_status[key] = by_status.get(key, 0) + 1
            writer.append({
                "type": "service_summary",
                "requests": len(self.service_requests),
                "by_status": by_status,
            })
        if service is not None:
            writer.append({"type": "service_state", **service})
        writer.append({
            "type": "metrics_snapshot",
            "metrics": self.registry.snapshot(),
        })
        return writer

    def __repr__(self) -> str:
        return (
            f"Telemetry(runs={len(self.runs)}, "
            f"trace_events={len(self.trace)}, "
            f"instruments={len(self.registry)})"
        )
