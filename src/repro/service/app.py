"""The simulation gateway: a long-lived asyncio daemon that multiplexes
concurrent simulation/experiment requests over the bounded engine.

Request lifecycle (``POST /run``)::

    JSON body ──validate──▶ SimRequest ──normalize──▶ RunRequest
        │                                                 │
        │                              canonical fingerprint (SimCache key)
        ▼                                                 ▼
    hot?  ──── in-memory cache hit ────────────▶ 200 source="memory"
    cold ──▶ AdmissionTable.admit (one step)
               ├─ draining ───▶ 503
               ├─ in flight ──▶ follow: await the shared future
               ├─ FIFO full ──▶ 429 + Retry-After (no entry left)
               └─ lead ───────▶ FIFO ──▶ dispatcher batch
                                              │
                                 execute_plan (supervised engine:
                                 retries, watchdog, crash containment)
                                              │
                                 resolve/reject every waiter with the
                                 result or one structured error

The dispatcher is a single task pulling admitted work in batches, so
concurrent cold requests for *different* fingerprints still share one
engine plan (cross-request dedupe) while concurrent requests for the
*same* fingerprint never reach the engine twice. Every plan, the
dispatcher's and each ``/explore`` generation's, runs on the gateway's
one :class:`~repro.experiments.engine.WorkerPool`, whose workers are
forked on the first cold dispatch and live until shutdown: a worker
keeps the traces it generated, and a cohort goes to the worker that
last ran its trace structure.

Shutdown: SIGTERM/SIGINT (or :meth:`Gateway.request_drain`) stops
admission (new work gets 503), lets the dispatcher finish the backlog,
bounded by ``drain_timeout_s``, then resolves stragglers with a
structured drain error — a connection is never left hanging — closes
the worker pool (killing its workers if the drain timed out) and
finally closes the manifest when one was requested. Records stream to
the manifest as they happen, so the drain writes only its closing
``service_state`` and ``metrics_snapshot`` records, and a killed
gateway leaves every record written before the kill.

Observability: every ``/run`` request opens a wall-clock span whose
trace id derives from the run fingerprint, connecting the HTTP handler
through admission, the dispatcher batch and ``execute_plan`` to the
worker process (:mod:`repro.obs.tracing`). ``GET /metrics`` serves the
JSON snapshot by default and Prometheus text format 0.0.4 under
``Accept: text/plain``. ``GET /watch?fingerprint=...`` streams
newline-delimited JSON progress events (queued → running → retry →
done, plus periodic counter deltas) over chunked transfer encoding
while a run is in flight.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

from ..experiments.base import (
    RunRequest,
    _SIM_CACHE,
    cache_get,
)
from ..experiments.engine import WorkerPool, dedupe_requests, plan_outcomes
from ..experiments.registry import describe_experiments, get_experiment
from ..experiments.resilience import RetryPolicy
from ..obs.logging import get_logger, log_context
from ..obs.manifest import config_to_dict
from ..obs.metrics import MetricsRegistry
from ..obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..obs.prometheus import render_registry
from ..obs.tracing import Tracer
from .admission import AdmissionTable
from .schemas import (
    DrainingError,
    ExperimentRequest,
    ExploreRequest,
    InvalidRequestError,
    MethodNotAllowedError,
    NotFoundError,
    ServiceError,
    SimRequest,
    SimResponse,
    run_failure_error,
)

log = get_logger("service")

#: Largest accepted request body; the API's payloads are tiny.
MAX_BODY_BYTES = 1 << 20

#: Per-connection header/body read timeout (slowloris guard).
READ_TIMEOUT_S = 30.0

#: ``/watch`` write-side dead-client guard: a chunk that cannot drain
#: within this budget counts as one stalled write...
WATCH_WRITE_TIMEOUT_S = 10.0
#: ...and this many *consecutive* stalls drop the stream. Half-open
#: connections (client vanished without a FIN) otherwise hold their
#: watcher queue — and its unread backlog — forever.
WATCH_MAX_STALLED_WRITES = 3

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _WatchStreamGuard:
    """Write side of one ``/watch`` stream, with dead-client detection.

    The read side already has a slowloris guard (``READ_TIMEOUT_S``),
    but a client that stops *reading* — half-open TCP, a wedged
    consumer — stalls ``drain()`` instead. Each send gets
    ``timeout_s`` to drain; after ``max_stalls`` consecutive stalls
    the guard raises :class:`ConnectionError`, which the watch handler
    treats exactly like a disconnect (queue unsubscribed, connection
    closed). One slow-but-alive read resets the streak.
    """

    def __init__(self, writer: asyncio.StreamWriter, *,
                 timeout_s: float = WATCH_WRITE_TIMEOUT_S,
                 max_stalls: int = WATCH_MAX_STALLED_WRITES,
                 on_drop=None):
        self.writer = writer
        self.timeout_s = timeout_s
        self.max_stalls = max_stalls
        self.on_drop = on_drop
        self.stalls = 0

    async def send(self, event: Dict[str, object]) -> None:
        data = (json.dumps(event) + "\n").encode("utf-8")
        self.writer.write(
            f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        try:
            await asyncio.wait_for(self.writer.drain(),
                                   timeout=self.timeout_s)
        except asyncio.TimeoutError:
            self.stalls += 1
            if self.stalls >= self.max_stalls:
                if self.on_drop is not None:
                    self.on_drop()
                raise ConnectionError(
                    f"client stalled {self.stalls} consecutive /watch "
                    f"writes; dropping the stream") from None
        else:
            self.stalls = 0


class Gateway:
    """The HTTP+JSON simulation gateway (``python -m repro.experiments
    serve``); also embeddable in-process for tests via :meth:`start` /
    :meth:`stop`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 jobs: int = 1, queue_limit: int = 64, batch_max: int = 16,
                 memory_cache_limit: int = 4096,
                 policy: Optional[RetryPolicy] = None,
                 drain_timeout_s: float = 30.0,
                 watch_tick_s: float = 0.5,
                 telemetry=None, cache=None,
                 registry: Optional[MetricsRegistry] = None):
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.batch_max = max(1, batch_max)
        self.memory_cache_limit = memory_cache_limit
        self.policy = policy or RetryPolicy()
        self.drain_timeout_s = drain_timeout_s
        self.watch_tick_s = watch_tick_s
        self.telemetry = telemetry
        self.cache = cache
        #: The telemetry records every span; without one, spans only
        #: propagate context and nothing keeps them.
        self.tracer: Tracer = (telemetry.tracer if telemetry is not None
                               else Tracer())

        #: In-flight runs by fingerprint and the FIFO of cold runs not
        #: yet dispatched.
        self.admission = AdmissionTable(queue_limit, workers=self.jobs)
        #: Engine workers for every run the gateway computes (``/run``,
        #: ``/experiment`` and ``/explore``), kept from the first cold
        #: dispatch until shutdown.
        self.pool = WorkerPool(self.jobs)
        self.draining = False
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._drain_requested = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: ``/watch`` subscribers: fingerprint -> event queues.
        self._watchers: Dict[str, List[asyncio.Queue]] = {}

        self.registry = registry if registry is not None else (
            telemetry.registry if telemetry is not None
            else MetricsRegistry())
        reg = self.registry
        self._c_requests = reg.counter(
            "service_requests_total", "HTTP requests received")
        self._c_ok = reg.counter(
            "service_responses_ok", "2xx responses")
        self._c_error = reg.counter(
            "service_responses_error", "non-2xx responses")
        self._c_invalid = reg.counter(
            "service_rejected_invalid", "400 invalid requests")
        self._c_busy = reg.counter(
            "service_rejected_busy", "429 backpressure rejections")
        self._c_coalesced = reg.counter(
            "service_coalesced_total",
            "requests that shared an in-flight run")
        self._c_hit_disk = reg.counter(
            "service_hits_disk", "runs served from the on-disk cache")
        self._c_computed = reg.counter(
            "service_runs_computed", "runs computed by the engine")
        self._c_run_failed = reg.counter(
            "service_runs_failed", "runs that failed under supervision")
        self._c_batches = reg.counter(
            "service_batches", "engine dispatch batches")
        self._c_batch_cohorts = reg.counter(
            "service_batch_cohorts",
            "structure-sharing cohorts executed by the engine")
        self._c_ewma_rejected = reg.counter(
            "service_ewma_rejected_samples",
            "non-positive service-time samples refused by the "
            "admission EWMA")
        self.admission.on_rejected_sample = self._c_ewma_rejected.inc
        self._c_watch_dropped = reg.counter(
            "service_watch_dropped_clients",
            "/watch streams dropped after consecutive stalled writes")
        self._g_queue = reg.gauge(
            "service_queue_depth", "admission-queue depth")
        self._g_inflight = reg.gauge(
            "service_inflight", "in-flight coalesced fingerprints")
        self._g_draining = reg.gauge(
            "service_draining", "1 while draining")
        self._h_wall = reg.histogram(
            "service_request_wall_ms", "request wall time (ms)")
        self._h_wall_by_path = {
            "/run": reg.histogram(
                "service_request_wall_ms_run",
                "POST /run wall time (ms)"),
            "/experiment": reg.histogram(
                "service_request_wall_ms_experiment",
                "POST /experiment wall time (ms)"),
            "/explore": reg.histogram(
                "service_request_wall_ms_explore",
                "POST /explore wall time (ms)"),
        }
        self._c_explore_requests = reg.counter(
            "service_explore_requests",
            "POST /explore exploration sessions served")
        self._c_explore_points = reg.counter(
            "service_explore_points",
            "design-space points evaluated for /explore requests")
        #: Explorations serialize: each one is a long multi-run job
        #: sharing the pool and caches, so concurrent sessions would
        #: only thrash it (clients watch progress via /watch).
        self._explore_lock = asyncio.Lock()
        self._c_source = {
            "memory": reg.counter(
                "service_runs_served_memory",
                "run resolutions served from the in-memory cache"),
            "disk": reg.counter(
                "service_runs_served_disk",
                "run resolutions served from the on-disk cache"),
            "computed": reg.counter(
                "service_runs_served_computed",
                "run resolutions freshly computed by the engine"),
            "coalesced": reg.counter(
                "service_runs_served_coalesced",
                "run resolutions that joined an in-flight computation"),
        }

    # ==================================================================
    # Lifecycle
    # ==================================================================
    async def start(self) -> Tuple[str, int]:
        """Bind the server and start the dispatcher; returns the bound
        (host, port) — with ``port=0`` the ephemeral port chosen."""
        self._loop = asyncio.get_running_loop()
        self.started_at = time.monotonic()
        if self.telemetry is not None:
            # Forward supervision events (retries, failures) from the
            # engine thread to /watch subscribers on the loop.
            self.telemetry.on_event = self._on_telemetry_event
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop())
        log.info("gateway listening on http://%s:%d (jobs=%d, "
                 "queue-limit=%d)", self.host, self.port, self.jobs,
                 self.admission.limit)
        return self.host, self.port

    async def serve(self, install_signals: bool = False) -> None:
        """Run until drain is requested (SIGTERM/SIGINT when
        ``install_signals``), then shut down gracefully."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_drain,
                                            signal.Signals(sig).name)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without support
        await self._drain_requested.wait()
        await self._shutdown()

    def request_drain(self, reason: str = "drain requested") -> None:
        """Begin graceful drain: stop admitting, finish in-flight work.
        Idempotent; thread-safe via ``call_soon_threadsafe`` when called
        off-loop."""
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is not loop:
                loop.call_soon_threadsafe(self._begin_drain, reason)
                return
        self._begin_drain(reason)

    def _begin_drain(self, reason: str) -> None:
        if self.draining:
            return
        self.draining = True
        self._g_draining.set(1)
        log.info("draining (%s): %d queued, %d in flight", reason,
                 self.admission.depth, len(self.admission))
        self.admission.close()
        # Wake every /watch stream so open connections end promptly.
        for fingerprint in list(self._watchers):
            self._publish(fingerprint, "drain", reason=reason)
        self._drain_requested.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        timed_out = False
        if self._dispatcher is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._dispatcher),
                    timeout=self.drain_timeout_s)
            except asyncio.TimeoutError:
                timed_out = True
                log.warning("drain timeout (%.1fs): cancelling the "
                            "dispatcher, failing %d in-flight run(s)",
                            self.drain_timeout_s, len(self.admission))
                self._dispatcher.cancel()
                try:
                    await self._dispatcher
                except (asyncio.CancelledError, Exception):
                    pass
        # After the dispatcher settled the workers are idle; after a
        # timed-out drain they may still run the abandoned batch.
        await asyncio.to_thread(self.pool.close, timed_out)
        # Safety net: nobody may be left awaiting a dead future.
        stranded = self.admission.abort_all(
            lambda key: DrainingError(
                "gateway shut down before this run executed",
                fingerprint=key))
        if stranded:
            log.warning("drain: aborted %d in-flight run(s)", stranded)
        if self._server is not None:
            await self._server.wait_closed()
        if self.telemetry is not None:
            self.telemetry.on_event = None
            self.telemetry.close({"type": "service_state",
                                  **self.snapshot()})
        log.info("gateway stopped")

    async def stop(self) -> None:
        """Drain and shut down (in-process embedding helper)."""
        self.request_drain("stop() called")
        await self._shutdown()

    def snapshot(self) -> Dict[str, object]:
        """Operational state for ``/healthz`` and the manifest."""
        return {
            "status": "draining" if self.draining else "serving",
            "uptime_s": (time.monotonic() - self.started_at
                         if self.started_at is not None else 0.0),
            "jobs": self.jobs,
            **self.admission.snapshot(),
            "memory_cache_entries": len(_SIM_CACHE),
            "memory_cache_limit": self.memory_cache_limit,
            "disk_cache": (self.cache.snapshot()
                           if self.cache is not None else None),
            "watchers": sum(len(queues)
                            for queues in self._watchers.values()),
        }

    # ==================================================================
    # /watch event bus
    # ==================================================================
    def _publish(self, fingerprint: str, event: str, **fields) -> None:
        """Push one progress event to every watcher of ``fingerprint``
        (no-op without subscribers). Loop-thread only."""
        queues = self._watchers.get(fingerprint)
        if not queues:
            return
        payload = {"event": event, "fingerprint": fingerprint,
                   "ts": time.time(), **fields}
        for queue in list(queues):
            queue.put_nowait(payload)

    def _on_telemetry_event(self, kind: str,
                            record: Dict[str, object]) -> None:
        """Telemetry ``on_event`` hook — called from the engine's worker
        thread, so hop onto the loop before touching watcher queues."""
        fingerprint = record.get("fingerprint")
        loop = self._loop
        if not fingerprint or loop is None or not loop.is_running():
            return
        fields = {k: v for k, v in record.items()
                  if k not in ("type", "fingerprint")}
        loop.call_soon_threadsafe(
            functools.partial(self._publish, str(fingerprint), kind,
                              **fields))

    # ==================================================================
    # Dispatcher: admitted work -> supervised engine -> waiters
    # ==================================================================
    async def _dispatch_loop(self) -> None:
        while True:
            first = await self.admission.take()
            self._g_queue.set(self.admission.depth)
            if first is None:
                return  # closed and drained
            batch: List[RunRequest] = [first]
            batch.extend(self.admission.drain_now(self.batch_max - 1))
            self._g_queue.set(self.admission.depth)
            self._c_batches.inc()
            for request in batch:
                self._publish(request.fingerprint, "running",
                              batch=len(batch))
            started = time.monotonic()
            try:
                with self.tracer.span("service.batch",
                                      attrs={"batch": len(batch)}):
                    outcomes = await asyncio.to_thread(
                        self._execute_batch, batch)
            except BaseException as exc:  # engine blew past supervision
                log.error("dispatch batch failed wholesale: %s: %s",
                          type(exc).__name__, exc)
                for request in batch:
                    self.admission.reject(request.fingerprint, ServiceError(
                        f"engine dispatch failed: "
                        f"{type(exc).__name__}: {exc}"))
                    self._c_run_failed.inc()
                    self._publish(request.fingerprint, "failed",
                                  error=f"{type(exc).__name__}: {exc}")
                self._g_inflight.set(len(self.admission))
                continue
            elapsed = time.monotonic() - started
            computed = sum(1 for _, source in outcomes.values()
                           if source == "computed")
            if computed:
                self.admission.observe_run_seconds(elapsed / computed)
            for request in batch:
                fingerprint = request.fingerprint
                result, source = outcomes[fingerprint]
                if source == "failed":
                    self._c_run_failed.inc()
                    self.admission.reject(
                        fingerprint,
                        run_failure_error(fingerprint, str(result)))
                    self._publish(fingerprint, "failed", error=str(result))
                else:
                    if source == "disk":
                        self._c_hit_disk.inc()
                    else:
                        self._c_computed.inc()
                    self.admission.resolve(fingerprint, (result, source))
                    self._publish(fingerprint, "done", source=source)
            self._g_inflight.set(len(self.admission))
            self._trim_sim_cache()

    def _execute_batch(self, requests: List[RunRequest]) -> Dict[
            str, Tuple[object, str]]:
        """Worker-thread half of a dispatch: run the supervised engine
        over the batch on the gateway's worker pool and report each
        fingerprint's outcome as ``(result, source)`` or ``(error
        message, "failed")``
        (:func:`repro.experiments.engine.plan_outcomes`). The plan's
        structure-sharing runs execute as cohorts, counted by
        ``service_batch_cohorts``."""
        summary: Dict[str, object] = {}
        outcomes = plan_outcomes(requests, jobs=self.jobs,
                                 policy=self.policy, summary_out=summary,
                                 pool=self.pool)
        self._c_batch_cohorts.inc(int(summary.get("batch_cohorts", 0)))
        return outcomes

    def _trim_sim_cache(self) -> None:
        """Bound the long-lived daemon's in-memory result cache with LRU
        eviction: every hit moves its entry to the back of the dict's
        insertion order (:func:`repro.experiments.base.cache_get`), so
        the front is always the least recently *used* entry — a popular
        fingerprint re-requested every minute survives trims that a
        once-touched sweep entry does not. The disk cache, when
        installed, still holds everything evicted."""
        excess = len(_SIM_CACHE) - self.memory_cache_limit
        if excess <= 0:
            return
        for key in list(_SIM_CACHE)[:excess]:
            del _SIM_CACHE[key]
        log.debug("evicted %d least-recently-used in-memory results "
                  "(limit %d)", excess, self.memory_cache_limit)

    # ==================================================================
    # Request handling
    # ==================================================================
    async def _resolve_run(self, request: RunRequest) -> Tuple[object, str]:
        """Resolve one canonical run through the hot cache, then the
        admission table; returns ``(SimResult, source)`` or raises a
        :class:`ServiceError`."""
        fingerprint = request.fingerprint
        result = cache_get(fingerprint)  # LRU: a hit refreshes recency
        if result is not None:
            self._count_source("memory")
            return result, "memory"
        future, leader = self.admission.admit(fingerprint, request)
        if leader:
            self._g_queue.set(self.admission.depth)
            self._g_inflight.set(len(self.admission))
            self._publish(fingerprint, "queued",
                          queue_depth=self.admission.depth)
            self.tracer.instant("service.queued", fingerprint=fingerprint,
                                attrs={"queue_depth": self.admission.depth})
        else:
            self._c_coalesced.inc()
            self.tracer.instant("service.coalesced",
                                fingerprint=fingerprint)
        result, source = await self.admission.wait(future)
        source = source if leader else "coalesced"
        self._count_source(source)
        return result, source

    def _count_source(self, source: str) -> None:
        counter = self._c_source.get(source)
        if counter is not None:
            counter.inc()

    async def _handle_run(self, body: object) -> Dict[str, object]:
        sim_request = SimRequest.from_wire(body)
        request = sim_request.to_run_request()
        fingerprint = request.fingerprint
        with log_context(fingerprint=fingerprint[:12]), \
                self.tracer.span(
                    "service.request", fingerprint=fingerprint,
                    attrs={"path": "/run",
                           "workload": request.workload,
                           "scheme": request.scheme}) as span:
            result, source = await self._resolve_run(request)
            span.setdefault("attrs", {})["source"] = source
        return SimResponse(sim_request, fingerprint, source,
                           result).to_wire()

    async def _handle_experiment(self, body: object) -> Dict[str, object]:
        exp_request = ExperimentRequest.from_wire(body)
        experiment = get_experiment(exp_request.exp_id)
        config = exp_request.config()
        scale = exp_request.scale
        runs = experiment.runs(config, scale)
        plan = dedupe_requests(runs.values())
        # Each cold run holds an admission slot until it is dispatched,
        # so the plan goes in waves the queue can hold: a plan larger
        # than the queue must not be refused by its own runs.
        resolved: Dict[str, Tuple[object, str]] = {}
        wave_size = self.admission.limit
        for first in range(0, len(plan), wave_size):
            wave = plan[first:first + wave_size]
            outcomes = await asyncio.gather(
                *(self._resolve_run(request) for request in wave))
            resolved.update(zip((request.fingerprint for request in wave),
                                outcomes))
        sources: Dict[str, int] = {}
        for _, source in resolved.values():
            sources[source] = sources.get(source, 0) + 1
        # Render from what admission resolved, never the memory cache,
        # which may have evicted a run since.
        results = {key: resolved[request.fingerprint][0]
                   for key, request in runs.items()}
        started = time.monotonic()
        result = await asyncio.to_thread(
            experiment.render, config, scale, results)
        return {
            "experiment": result.exp_id,
            "title": result.title,
            "scale": scale.name,
            "seed": exp_request.seed,
            "columns": result.columns,
            "rows": config_to_dict(result.rows),
            "paper_claim": result.paper_claim,
            "elapsed_seconds": time.monotonic() - started,
            "planned_runs": {"total": len(plan), "by_source": sources},
        }

    async def _handle_explore(self, body: object) -> Dict[str, object]:
        from ..explore import ExploreError, ExploreSession, frontier_report

        explore_request = ExploreRequest.from_wire(body)
        if self.draining:
            raise DrainingError("gateway is draining; not admitting "
                                "new work")
        settings = explore_request.settings
        try:
            session = ExploreSession(
                settings,
                policy=self.policy,
                registry=self.registry,
                telemetry=self.telemetry,
                on_event=(self._on_telemetry_event
                          if self.telemetry is None else None),
                pool=self.pool,
            )
        except ExploreError as exc:
            raise InvalidRequestError(str(exc)) from None
        self._c_explore_requests.inc()
        with log_context(session=session.session_id[:12]), \
                self.tracer.span(
                    "service.explore", fingerprint=session.session_id,
                    attrs={"path": "/explore",
                           "space": settings.space.name,
                           "strategy": settings.strategy}):
            async with self._explore_lock:
                # A re-POST of the same settings reads every point an
                # earlier request computed from the run caches. Each
                # generation's runs take their turn on the pool between
                # dispatcher batches.
                try:
                    report = await asyncio.to_thread(session.run)
                except RuntimeError:
                    if not self.draining:
                        raise
                    # The drain closed the pool under the exploration.
                    raise DrainingError(
                        "gateway drained during the exploration",
                        session=session.session_id) from None
        counts = report["counts"]
        self._c_explore_points.inc(counts["evaluated"])
        self._publish(session.session_id, "explore_done",
                      frontier_size=len(report["frontier"]),
                      evaluated=counts["evaluated"])
        return frontier_report(report) | {"counts": counts}

    def _handle_healthz(self) -> Dict[str, object]:
        return self.snapshot()

    def _handle_metrics(self) -> Dict[str, object]:
        return {"metrics": self.registry.snapshot()}

    @staticmethod
    def _wants_prometheus_text(headers: Dict[str, str]) -> bool:
        """Content negotiation for ``/metrics``: Prometheus scrapers ask
        for ``text/plain; version=0.0.4``; anything not explicitly
        text-seeking keeps the JSON snapshot."""
        accept = headers.get("accept", "")
        return "text/plain" in accept or "openmetrics" in accept

    async def _route(self, method: str, path: str, body: bytes,
                     headers: Optional[Dict[str, str]] = None,
                     ) -> Tuple[int, object, Dict[str, str]]:
        headers = headers or {}
        routes = {
            "/healthz": ("GET", lambda b: self._handle_healthz()),
            "/metrics": ("GET", lambda b: self._handle_metrics()),
            "/experiments": ("GET", lambda b: {
                "experiments": describe_experiments()}),
            "/run": ("POST", self._handle_run),
            "/experiment": ("POST", self._handle_experiment),
            "/explore": ("POST", self._handle_explore),
        }
        route = routes.get(path)
        if route is None:
            raise NotFoundError(f"no such endpoint {path!r}",
                                endpoints=sorted(routes) + ["/watch"])
        expected_method, handler = route
        if method != expected_method:
            raise MethodNotAllowedError(
                f"{path} only accepts {expected_method}",
                allowed=expected_method)
        if path == "/metrics" and self._wants_prometheus_text(headers):
            return 200, render_registry(self.registry), {
                "Content-Type": PROMETHEUS_CONTENT_TYPE}
        if expected_method == "POST":
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InvalidRequestError(
                    f"request body is not valid JSON: {exc}") from None
            response = await handler(payload)
        else:
            response = handler(body)
        return 200, response, {}

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        started = time.monotonic()
        status = 500
        record: Dict[str, object] = {}
        try:
            method, path, query, body, req_headers = await asyncio.wait_for(
                self._read_request(reader), timeout=READ_TIMEOUT_S)
            self._c_requests.inc()
            record = {"method": method, "path": path}
            if method == "GET" and path == "/watch":
                status = await self._handle_watch(writer, query)
                if 200 <= status < 300:
                    self._c_ok.inc()
                else:
                    self._c_error.inc()
                return
            try:
                status, payload, headers = await self._route(
                    method, path, body, req_headers)
            except ServiceError as exc:
                status, payload, headers = exc.status, exc.to_wire(), {}
                if exc.status == 429:
                    self._c_busy.inc()
                    headers["Retry-After"] = str(
                        exc.detail.get("retry_after_s", 1))
                elif exc.status == 400:
                    self._c_invalid.inc()
                record["error"] = exc.code
            if 200 <= status < 300:
                self._c_ok.inc()
            else:
                self._c_error.inc()
            await self._write_response(writer, status, payload, headers)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, _BadRequest) as exc:
            status = getattr(exc, "status", 400)
            try:
                await self._write_response(
                    writer, status,
                    {"error": {"code": "bad_http", "message": str(exc),
                               "retryable": False}}, {})
            except (ConnectionError, RuntimeError):
                pass
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never leak a traceback as a hang
            log.error("request handler crashed: %s: %s",
                      type(exc).__name__, exc)
            try:
                await self._write_response(
                    writer, 500,
                    {"error": {"code": "internal",
                               "message": f"{type(exc).__name__}: {exc}",
                               "retryable": False}}, {})
            except (ConnectionError, RuntimeError):
                pass
        finally:
            wall_ms = (time.monotonic() - started) * 1000.0
            self._h_wall.observe(wall_ms)
            by_path = self._h_wall_by_path.get(str(record.get("path")))
            if by_path is not None:
                by_path.observe(wall_ms)
            if self.telemetry is not None and record.get("path") in (
                    "/run", "/experiment", "/explore"):
                self.telemetry.record({
                    "type": "service_request",
                    "method": record["method"],
                    "path": record["path"],
                    "status": status,
                    "wall_ms": round(wall_ms, 3),
                    "error": record.get("error"),
                })
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    # ==================================================================
    # /watch: chunked NDJSON progress streaming
    # ==================================================================
    async def _handle_watch(self, writer: asyncio.StreamWriter,
                            query: str) -> int:
        """Stream progress events for one fingerprint as
        newline-delimited JSON over chunked transfer encoding, until the
        run finishes, the gateway drains, or the client disconnects."""
        params = urllib.parse.parse_qs(query)
        fingerprints = params.get("fingerprint")
        if not fingerprints or not fingerprints[0]:
            await self._write_response(writer, 400, {
                "error": {"code": "invalid_request",
                          "message": "/watch requires a ?fingerprint=... "
                                     "query parameter",
                          "retryable": False}}, {})
            return 400
        fingerprint = fingerprints[0]
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(fingerprint, []).append(queue)
        guard = _WatchStreamGuard(writer,
                                  on_drop=self._c_watch_dropped.inc)
        try:
            writer.write((
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1"))
            await writer.drain()

            in_cache = fingerprint in _SIM_CACHE
            inflight = fingerprint in self.admission
            state = ("done" if in_cache
                     else "inflight" if inflight
                     else "unknown")
            await guard.send({
                "event": "state", "fingerprint": fingerprint,
                "status": state, "draining": self.draining,
                "ts": time.time()})
            if in_cache:
                await guard.send({
                    "event": "done", "fingerprint": fingerprint,
                    "source": "memory", "ts": time.time()})
                return 200

            last_counters = dict(
                self.registry.snapshot().get("counters") or {})
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=self.watch_tick_s)
                except asyncio.TimeoutError:
                    counters = dict(
                        self.registry.snapshot().get("counters") or {})
                    delta = {name: value - last_counters.get(name, 0)
                             for name, value in counters.items()
                             if value != last_counters.get(name, 0)}
                    last_counters = counters
                    if delta:
                        await guard.send({
                            "event": "registry", "fingerprint": fingerprint,
                            "counters": delta, "ts": time.time()})
                    if self.draining:
                        await guard.send({
                            "event": "drain", "fingerprint": fingerprint,
                            "ts": time.time()})
                        return 200
                    continue
                await guard.send(event)
                if event.get("event") in ("done", "failed", "drain"):
                    return 200
        except (ConnectionError, asyncio.TimeoutError, RuntimeError):
            return 200  # client went away; nothing left to say
        finally:
            queues = self._watchers.get(fingerprint)
            if queues is not None:
                try:
                    queues.remove(queue)
                except ValueError:
                    pass
                if not queues:
                    del self._watchers[fingerprint]
            try:
                writer.write(b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader,
                            ) -> Tuple[str, str, str, bytes,
                                       Dict[str, str]]:
        request_line = (await reader.readline()).decode(
            "latin-1", "replace").strip()
        if not request_line:
            raise _BadRequest("empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("unparseable Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} "
                f"byte limit", status=413)
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), path, query, body, headers

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              payload: object,
                              headers: Dict[str, str]) -> None:
        """Write one complete response. Dict payloads go out as JSON;
        ``str`` payloads as text (Content-Type from ``headers``, which
        otherwise carries extra response headers)."""
        headers = dict(headers)
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = headers.pop("Content-Type", "application/json")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()


class _BadRequest(Exception):
    """Malformed HTTP framing (pre-routing)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status
