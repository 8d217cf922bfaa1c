"""Supervised replica fleet: health-checked scale-out of the gateway.

The gateway's dispatcher feeds one local engine — a single point of
failure and a throughput ceiling. This module shards cold-run
execution across N *replicas*: long-lived daemonic processes that
compute their jobs in-process, one at a time, through the engine's
member body (:func:`repro.experiments.engine.run_outcome`) over the
shared content-addressed :class:`~repro.sim.simcache.SimCache` and
checkpoint store. No engine pool runs inside a replica, so the fleet's
heartbeats, deadlines, breakers and poison rule are the only process
supervision above a run.

Topology — the FPB idiom of globally budgeted, locally supervised
resources, applied to serving capacity::

    dispatcher batch
        │  consistent-hash ring on canonical fingerprints
        ▼
    ┌── r0 ──┐   ┌── r1 ──┐   ┌── r2 ──┐      every replica:
    │  run   │   │  run   │   │  run   │      · inbox/outbox queues
    │ + ckpt │   │ + ckpt │   │ + ckpt │      · heartbeat thread
    └────────┘   └────────┘   └────────┘      · one job at a time
        ▲             ▲            ▲
        └──── supervisor: heartbeats, job deadlines, breakers,
              respawn under a restart budget, failover re-routing

Correctness properties (proven by ``tests/integration/
test_fleet_chaos``):

* **Collapse-exact routing.** Requests are routed by canonical
  fingerprint on a consistent-hash ring, so fleet-wide coalescing stays
  exact: one fingerprint maps to one replica, and the coalescer in
  front of the fleet already guarantees one in-flight run per
  fingerprint. Results are byte-identical to single-process execution
  — replicas run the very same member body over the very same cache.
* **Failures keep the engine's rules.** A run that raises is retried,
  failed or quarantined under the replica's :class:`RetryPolicy`, with
  the engine's own message. A run that kills its process takes its
  replica down and fails over like any other orphan.
* **No waiter is ever stranded.** The parent keeps the authoritative
  copy of every outstanding job. When a replica dies (process exit,
  missed heartbeats, or a job blowing its fleet deadline), its breaker
  trips, the process is reaped, and every queued/in-flight job fails
  over to the next live replica on the ring. A job that keeps taking
  replicas down is contained after ``max_reroutes`` hops
  (``replica_failed``); when *no* live replica remains, jobs resolve as
  ``stranded`` so the gateway can serve them on its degraded in-process
  path instead of 500ing.
* **Supervision is budgeted.** Each replica slot respawns at most
  ``restart_budget`` times in a row without completing a job — a crash
  loop; past the budget the slot is ``dead`` and the ring routes
  around it. A respawned replica re-enters *half-open* and must
  complete a job to close its breaker.
* **Deadlines time attempts, not queues.** The parent's job deadline
  runs from when a replica reports starting the job and stops for each
  backoff sleep: a job waiting in a replica's inbox is not charged.

Circuit breaker per replica::

    closed ──(threshold consecutive failures | death/hang/hb-timeout)──▶ open
    open ──(cooldown elapses)──▶ half-open ──(job succeeds)──▶ closed
                                     └──(job fails)──▶ open
    any ──(restart budget exhausted)──▶ dead   [terminal]

Fault points (``repro.testing.faults``): ``replica_crash`` and
``replica_hang`` fire in the replica's job loop (key = the run's
``workload/scheme/fingerprint``), ``heartbeat_drop`` fires in its
heartbeat thread (key = the replica name, e.g. ``r0``); these and the
engine's run-level points (``worker_run``, ``sim_progress``) reach
replicas through the ``REPRO_FAULTS`` environment.

Single-loop discipline: like the coalescer and admission queue, all
``Fleet`` methods run on the gateway's event-loop thread; replica
messages hop from pump threads onto the loop via
``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.base import (
    RunRequest,
    request_key,
    use_checkpoints,
    use_disk_cache,
)
from ..experiments.engine import run_outcome
from ..experiments.resilience import RetryPolicy
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry
from ..sim.checkpoint import CheckpointStore
from ..sim.simcache import SimCache
from ..testing.faults import maybe_inject
from ..trace.generator import clear_trace_cache
from ..util.procs import close_inherited_sockets, trim_heap

log = get_logger("service.fleet")

#: Breaker states (also the per-replica ``state`` in ``/healthz``).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
DEAD = "dead"

#: Job-outcome sources a replica (or the fleet) can report, beyond the
#: engine's ``computed``/``disk``/``failed``:
#: every live replica was lost before the job could complete — the
#: gateway serves it on the degraded in-process path instead.
STRANDED = "stranded"
#: the job crossed the re-route budget while live replicas remained —
#: a poison job, contained instead of taking the whole fleet down.
REPLICA_FAILED = "replica_failed"

#: Replica job-loop poll period; bounds shutdown latency, not
#: throughput (results return as soon as they exist).
_POLL_S = 0.05

#: Pump-thread poll period on each replica's outbox.
_PUMP_POLL_S = 0.2


# ======================================================================
# Circuit breaker
# ======================================================================
class CircuitBreaker:
    """Per-replica health gate with the classic three states plus a
    terminal ``dead`` (restart budget exhausted).

    ``open`` → ``half_open`` is lazy: reading :attr:`state` after the
    cooldown performs the transition, so no timer task is needed.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1, got "
                             f"{failure_threshold}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = CLOSED
        self._opened_at: Optional[float] = None
        self._dead = False
        self.consecutive_failures = 0
        #: Total times the breaker opened (soft trips and hard trips).
        self.opens = 0

    @property
    def state(self) -> str:
        if self._dead:
            return DEAD
        if (self._state == OPEN and self._opened_at is not None
                and self._clock() - self._opened_at >= self.cooldown_s):
            self._state = HALF_OPEN
        return self._state

    def routable(self) -> bool:
        """May this replica receive work? ``half_open`` is routable on
        purpose — the next job routed to it *is* the probe."""
        return self.state in (CLOSED, HALF_OPEN)

    def record_success(self) -> None:
        """A job completed: reset the failure streak and close."""
        self.consecutive_failures = 0
        if not self._dead:
            self._state = CLOSED

    def record_failure(self) -> bool:
        """A job failed under this replica. Opens the breaker when the
        consecutive-failure threshold is reached (or immediately if the
        failure was the half-open probe); returns ``True`` when this
        call opened it."""
        self.consecutive_failures += 1
        state = self.state
        if state == HALF_OPEN or (
                state == CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self.trip()
            return True
        return False

    def trip(self) -> None:
        """Open immediately (death, hang, missed heartbeats)."""
        if self._dead or self._state == OPEN:
            return
        self._state = OPEN
        self._opened_at = self._clock()
        self.opens += 1

    def half_open(self) -> None:
        """A respawned replica must prove itself before closing."""
        if not self._dead:
            self._state = HALF_OPEN

    def kill(self) -> None:
        """Terminal: the slot's restart budget is exhausted."""
        self._dead = True

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
        }


# ======================================================================
# Consistent-hash ring
# ======================================================================
class HashRing:
    """Consistent hashing of fingerprints onto replica slots.

    Each slot contributes ``vnodes`` virtual points so load spreads
    evenly; a key's *preference order* is the distinct-slot sequence met
    walking the ring clockwise from the key's position. Failover is the
    same walk skipping unroutable slots — deterministic, and minimal:
    keys only move off slots that actually went away.
    """

    def __init__(self, slots: int, vnodes: int = 32):
        if slots < 1:
            raise ValueError(f"ring needs >= 1 slot, got {slots}")
        if vnodes < 1:
            raise ValueError(f"ring needs >= 1 vnode, got {vnodes}")
        self.n_slots = slots
        points: List[Tuple[int, int]] = []
        for slot in range(slots):
            for vnode in range(vnodes):
                points.append((self._hash(f"replica-{slot}:{vnode}"), slot))
        points.sort()
        self._points = [h for h, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        # md5 for dispersion, not security: stable across processes and
        # Python versions (hash() is salted per process).
        return int(hashlib.md5(key.encode("utf-8")).hexdigest()[:16], 16)

    def preference(self, key: str) -> List[int]:
        """All slots, ordered by the clockwise walk from ``key``."""
        start = bisect.bisect_left(self._points, self._hash(key))
        order: List[int] = []
        seen = set()
        n = len(self._owners)
        for i in range(n):
            slot = self._owners[(start + i) % n]
            if slot not in seen:
                seen.add(slot)
                order.append(slot)
                if len(order) == self.n_slots:
                    break
        return order

    def route(self, key: str,
              routable: Callable[[int], bool]) -> Optional[int]:
        """First routable slot on ``key``'s walk, or ``None`` when the
        whole ring is down."""
        for slot in self.preference(key):
            if routable(slot):
                return slot
        return None


# ======================================================================
# Configuration
# ======================================================================
@dataclass(frozen=True)
class FleetConfig:
    """Everything a :class:`Fleet` needs, serializable to replicas."""

    replicas: int = 2
    #: Heartbeat cadence inside each replica; a replica missing
    #: ``heartbeat_miss_limit`` consecutive beats is declared down.
    heartbeat_interval_s: float = 1.0
    heartbeat_miss_limit: int = 3
    #: Respawns a slot may make in a row, without a job completed in
    #: between, before it is permanently ``dead``.
    restart_budget: int = 3
    #: Parent-side wall-clock deadline per job attempt, counted from
    #: when the replica starts it; a smaller ``policy.run_timeout_s``
    #: takes its place (:attr:`job_deadline_s`).
    job_timeout_s: Optional[float] = 300.0
    #: Replica deaths one job may cause before it is contained as a
    #: poison job (``replica_failed``) rather than re-routed again.
    max_reroutes: int = 2
    #: Breaker tuning (consecutive *job* failures; deaths trip at once).
    breaker_failures: int = 3
    breaker_cooldown_s: float = 5.0
    #: Supervisor scan period (heartbeat ages, job deadlines, corpses).
    supervise_tick_s: float = 0.1
    #: Shared state handed to replicas: the content-addressed disk
    #: cache and checkpoint store they rebuild on their side.
    cache_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 0
    #: Retry rules for the runs inside each replica (``None`` → defaults).
    policy: Optional[RetryPolicy] = None
    vnodes: int = 32

    @property
    def job_deadline_s(self) -> Optional[float]:
        """The parent's wall-clock budget per job attempt: the smaller of
        :attr:`job_timeout_s` and ``policy.run_timeout_s``, or whichever
        is set (``None``: no deadline)."""
        budgets = (self.job_timeout_s,
                   self.policy.run_timeout_s if self.policy else None)
        return min((t for t in budgets if t is not None), default=None)


# ======================================================================
# Replica child process
# ======================================================================
def _replica_main(name: str, config: FleetConfig, inbox, outbox) -> None:
    """Entry point of one replica process: install the shared stores,
    start the heartbeat thread, then run jobs one at a time through
    :func:`~repro.experiments.engine.run_outcome` until ``shutdown`` (or
    the parent disappears)."""
    # The parent handles SIGINT (Ctrl-C drains the gateway); replicas
    # must not die to a forwarded terminal signal mid-job.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A respawn forks while the gateway holds live connections.
    close_inherited_sockets()

    if config.cache_dir:
        use_disk_cache(SimCache(config.cache_dir))
    if config.checkpoint_dir:
        use_checkpoints(CheckpointStore(config.checkpoint_dir),
                        config.checkpoint_every)
    policy = config.policy or RetryPolicy()

    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.is_set():
            try:
                maybe_inject("heartbeat_drop", key=name)
            except Exception:
                # The beat is dropped, not the replica: liveness
                # detection is the parent's job.
                stop.wait(config.heartbeat_interval_s)
                continue
            try:
                outbox.put(("heartbeat",))
            except (OSError, ValueError):
                return  # parent (or its queue) is gone
            stop.wait(config.heartbeat_interval_s)

    threading.Thread(target=heartbeat, name=f"{name}-heartbeat",
                     daemon=True).start()
    try:
        while True:
            try:
                message = inbox.get(timeout=_POLL_S)
            except queue.Empty:
                continue
            except (EOFError, OSError):
                return
            if message[0] == "shutdown":
                return
            _, job_id, request = message
            key = request_key(request)

            def clock(running: bool) -> None:
                # The parent times each attempt on its own clock from
                # these reports: neither the wait in this inbox nor a
                # backoff sleep counts against the job's deadline.
                outbox.put(("clock", job_id, running))

            clock(True)
            # Chaos hooks: a crash here is a replica death before the
            # run starts; a hang starves the job past its parent-side
            # fleet deadline while heartbeats continue.
            maybe_inject("replica_crash", key=key)
            maybe_inject("replica_hang", key=key)
            result, source = run_outcome(request, policy, clock=clock)
            # A replica keeps no trace and no freed heap between jobs,
            # so its idle memory stays flat whatever it has served.
            clear_trace_cache()
            trim_heap()
            try:
                outbox.put(("result", job_id, source, result))
            except (OSError, ValueError):
                return
    finally:
        stop.set()


# ======================================================================
# Parent-side bookkeeping
# ======================================================================
class _Replica:
    """One live replica incarnation (a slot respawns into a new one)."""

    def __init__(self, slot: int, generation: int, name: str,
                 process, inbox, outbox):
        self.slot = slot
        self.generation = generation
        self.name = name
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.stop = threading.Event()
        #: Spawning counts as the first beat: a replica gets a full
        #: heartbeat window to come up before it can be declared down.
        self.last_beat = time.monotonic()
        self.beats = 0
        #: Fingerprint of the job it last reported starting, if any.
        self.busy: Optional[str] = None


class _Slot:
    """One position on the ring, surviving replica incarnations."""

    def __init__(self, index: int, breaker: CircuitBreaker):
        self.index = index
        self.breaker = breaker
        self.replica: Optional[_Replica] = None
        self.spawns = 0
        self.restarts = 0
        #: Respawns since this slot last completed a job; the restart
        #: budget caps this, so only a crash loop kills the slot.
        self.crash_loop = 0
        self.deaths = 0
        self.jobs_ok = 0
        self.jobs_failed = 0

    @property
    def name(self) -> str:
        return f"r{self.index}"


@dataclass
class _Job:
    """The parent's authoritative copy of one dispatched run — what
    makes failover possible after a replica dies with the only other
    copy."""

    job_id: int
    request: RunRequest
    future: "asyncio.Future"
    slot: Optional[int] = None
    #: Parent-clock deadline of the attempt the replica is running;
    #: ``None`` until it reports starting one, and during backoff.
    deadline: Optional[float] = None
    reroutes: int = 0
    death_reasons: List[str] = field(default_factory=list)


class Fleet:
    """The supervisor: spawns replicas, routes jobs by fingerprint,
    watches heartbeats and deadlines, trips breakers, respawns under
    the restart budget, and fails jobs over — resolving every submitted
    job exactly once, no matter what the replicas do."""

    def __init__(self, config: FleetConfig, *,
                 registry: Optional[MetricsRegistry] = None,
                 telemetry=None, tracer=None,
                 on_event: Optional[Callable[..., None]] = None):
        if config.replicas < 1:
            raise ValueError(
                f"fleet needs >= 1 replica, got {config.replicas}")
        self.config = config
        self.telemetry = telemetry
        self.tracer = tracer
        #: ``on_event(fingerprint_or_None, payload)`` — the gateway
        #: wires this to its ``/watch`` publisher.
        self.on_event = on_event
        self.ring = HashRing(config.replicas, config.vnodes)
        self.slots = [
            _Slot(i, CircuitBreaker(config.breaker_failures,
                                    config.breaker_cooldown_s))
            for i in range(config.replicas)
        ]
        self._mp = multiprocessing.get_context()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._jobs: Dict[int, _Job] = {}
        self._job_seq = 0
        self._supervisor: Optional[asyncio.Task] = None
        self._stopping = False
        #: Terminated processes awaiting a reap (non-blocking joins on
        #: the supervisor tick keep zombies from accumulating).
        self._graveyard: List[object] = []

        reg = registry if registry is not None else MetricsRegistry()
        self._c_spawns = reg.counter(
            "service_replica_spawns", "replica processes started")
        self._c_restarts = reg.counter(
            "service_replica_restarts",
            "replica respawns after an unhealthy death")
        self._c_deaths = reg.counter(
            "service_replica_deaths",
            "replicas declared down (exit, hang, missed heartbeats)")
        self._c_failovers = reg.counter(
            "service_replica_failovers",
            "jobs re-routed off a dead replica")
        self._c_breaker_opens = reg.counter(
            "service_replica_breaker_opens",
            "circuit-breaker open transitions across the fleet")
        self._c_heartbeat_timeouts = reg.counter(
            "service_replica_heartbeat_timeouts",
            "replicas that missed their heartbeat window")
        self._c_jobs = reg.counter(
            "service_replica_jobs", "jobs dispatched to replicas")
        self._c_stranded = reg.counter(
            "service_fleet_stranded",
            "jobs stranded with no live replica (served degraded "
            "in-process by the gateway)")
        self._g_live = reg.gauge(
            "service_replicas_live", "replicas currently routable")

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for slot in self.slots:
            self._spawn(slot)
        self._supervisor = self._loop.create_task(self._supervise())
        log.info("fleet up: %d replica(s), restart budget %d, "
                 "heartbeat %.2fs x%d", self.config.replicas,
                 self.config.restart_budget,
                 self.config.heartbeat_interval_s,
                 self.config.heartbeat_miss_limit)

    async def stop(self) -> None:
        """Stop supervision, resolve anything outstanding as stranded
        (the gateway's degraded path picks those up), and tear every
        replica down — politely first, then by force."""
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for job in list(self._jobs.values()):
            if not job.future.done():
                job.future.set_result(
                    ("fleet stopped before the job completed", STRANDED))
        self._jobs.clear()
        victims: List[_Replica] = []
        for slot in self.slots:
            replica = slot.replica
            slot.replica = None
            if replica is None:
                continue
            victims.append(replica)
            replica.stop.set()
            try:
                replica.inbox.put(("shutdown",))
            except (OSError, ValueError):
                pass
        await asyncio.to_thread(self._join_all, victims)
        self._g_live.set(0)
        log.info("fleet stopped")

    def _join_all(self, victims: List[_Replica]) -> None:
        deadline = time.monotonic() + 5.0
        for replica in victims:
            replica.process.join(max(0.1, deadline - time.monotonic()))
            if replica.process.is_alive():
                replica.process.kill()
                replica.process.join(1.0)
            self._drop_queues(replica)
        for process in self._graveyard:
            process.join(0.5)
        self._graveyard.clear()

    # -- spawning and supervision --------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        generation = slot.spawns
        slot.spawns += 1
        inbox = self._mp.Queue()
        outbox = self._mp.Queue()
        # Daemonic: a replica computes in-process, and the runtime
        # refuses any child process it might try to start.
        process = self._mp.Process(
            target=_replica_main,
            args=(slot.name, self.config, inbox, outbox),
            name=f"fleet-{slot.name}-g{generation}", daemon=True)
        process.start()
        replica = _Replica(slot.index, generation, slot.name,
                           process, inbox, outbox)
        slot.replica = replica
        threading.Thread(target=self._pump, args=(replica,),
                         name=f"fleet-{slot.name}-pump",
                         daemon=True).start()
        if generation > 0:
            # A respawn must prove itself: half-open until a job lands.
            slot.breaker.half_open()
        self._c_spawns.inc()
        self._refresh_live()
        action = "spawn" if generation == 0 else "respawn"
        log.info("%s %s: pid %d (generation %d)", action, slot.name,
                 process.pid, generation)
        self._event(None, action, slot, pid=process.pid,
                    generation=generation)

    def _pump(self, replica: _Replica) -> None:
        """Pump thread: one per incarnation, forwarding that replica's
        outbox onto the event loop. Dies with its replica (stop event)
        or with the loop."""
        while not replica.stop.is_set():
            try:
                message = replica.outbox.get(timeout=_PUMP_POLL_S)
            except queue.Empty:
                continue
            except (EOFError, OSError):
                return
            loop = self._loop
            if loop is None or loop.is_closed():
                return
            try:
                loop.call_soon_threadsafe(self._on_message, replica,
                                          message)
            except RuntimeError:
                return

    def _on_message(self, replica: _Replica, message: Tuple) -> None:
        slot = self.slots[replica.slot]
        current = slot.replica is replica
        kind = message[0]
        if kind == "heartbeat":
            if current:  # not a late beat from a replaced incarnation
                replica.last_beat = time.monotonic()
                replica.beats += 1
            return
        if kind == "clock":
            _, job_id, running = message
            job = self._jobs.get(job_id)
            budget = self.config.job_deadline_s
            if current and job is not None and job.slot == replica.slot:
                replica.busy = job.request.fingerprint
                # Parent's clock on purpose: the deadline must not trust
                # a replica that may be wedged (or lying about time).
                job.deadline = (time.monotonic() + budget
                                if running and budget is not None
                                else None)
            return
        if kind != "result":
            return
        _, job_id, source, payload = message
        job = self._jobs.pop(job_id, None)
        if job is None or job.future.done():
            return  # already failed over; the reroute's result wins
        if current:
            replica.last_beat = time.monotonic()  # results prove liveness
            replica.busy = None
            slot.crash_loop = 0
        if source == "failed":
            slot.jobs_failed += 1
            if current and slot.breaker.record_failure():
                self._c_breaker_opens.inc()
                log.warning("breaker OPEN on %s after %d consecutive "
                            "job failures", slot.name,
                            slot.breaker.consecutive_failures)
                self._event(None, "breaker_open", slot,
                            reason="consecutive job failures")
                self._refresh_live()
        else:
            slot.jobs_ok += 1
            if current:
                was_probing = slot.breaker.state == HALF_OPEN
                slot.breaker.record_success()
                if was_probing:
                    self._event(None, "breaker_close", slot,
                                reason="half-open probe succeeded")
                    self._refresh_live()
        job.future.set_result((payload, source))

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self.config.supervise_tick_s)
            self._tick()

    def _tick(self) -> None:
        now = time.monotonic()
        window = (self.config.heartbeat_interval_s
                  * self.config.heartbeat_miss_limit)
        for slot in self.slots:
            replica = slot.replica
            if replica is None:
                continue
            if not replica.process.is_alive():
                self._replica_down(
                    slot, "exit",
                    f"process exited with code "
                    f"{replica.process.exitcode}")
                continue
            age = now - replica.last_beat
            if age > window:
                self._c_heartbeat_timeouts.inc()
                self._replica_down(
                    slot, "heartbeat_timeout",
                    f"no heartbeat for {age:.2f}s "
                    f"(window {window:.2f}s)")
                continue
            expired = [job for job in self._jobs.values()
                       if job.slot == slot.index
                       and job.deadline is not None
                       and now >= job.deadline]
            if expired:
                self._replica_down(
                    slot, "job_timeout",
                    f"{len(expired)} job(s) blew the "
                    f"{self.config.job_deadline_s:.1f}s fleet deadline")
        for process in list(self._graveyard):
            process.join(0)
            if not process.is_alive():
                self._graveyard.remove(process)
        self._refresh_live()

    def _replica_down(self, slot: _Slot, kind: str, reason: str) -> None:
        """A replica is gone (or as good as): trip the breaker, reap the
        process, fail its jobs over, respawn under the budget."""
        replica = slot.replica
        slot.replica = None
        slot.deaths += 1
        self._c_deaths.inc()
        log.warning("replica %s down (%s): %s", slot.name, kind, reason)
        was_open = slot.breaker.state in (OPEN, DEAD)
        slot.breaker.trip()
        if not was_open:
            self._c_breaker_opens.inc()
        if self.tracer is not None:
            self.tracer.instant("fleet.replica_down",
                                attrs={"replica": slot.name,
                                       "kind": kind, "reason": reason})
        self._event(None, "down", slot, kind=kind, reason=reason)
        if replica is not None:
            replica.stop.set()
            # Force, not terminate: a down replica is crashed, hung, or
            # heartbeat-dead.
            replica.process.kill()
            self._graveyard.append(replica.process)
            self._drop_queues(replica)
        # Failover before respawn: orphans must land on the *next live*
        # replica on the ring, not back on this slot's fresh process.
        orphans = [job for job in self._jobs.values()
                   if job.slot == slot.index]
        for job in orphans:
            del self._jobs[job.job_id]
            job.reroutes += 1
            job.death_reasons.append(f"{slot.name}: {kind}")
            self._c_failovers.inc()
            if (job.reroutes > self.config.max_reroutes
                    and self.any_routable()):
                # Poison containment: this job keeps taking replicas
                # down; fail it rather than feed it the rest of the
                # fleet. (With no replica left it strands instead, and
                # the gateway's in-process engine — which contains
                # crashes — serves it degraded.)
                self._event(job.request.fingerprint, "poisoned", slot,
                            reroutes=job.reroutes,
                            deaths=job.death_reasons)
                if not job.future.done():
                    job.future.set_result((
                        f"job took down {job.reroutes} replica(s) "
                        f"({'; '.join(job.death_reasons)})",
                        REPLICA_FAILED))
                continue
            self._event(job.request.fingerprint, "failover", slot,
                        reason=reason, reroutes=job.reroutes)
            if self.tracer is not None:
                self.tracer.instant(
                    "fleet.failover",
                    fingerprint=job.request.fingerprint,
                    attrs={"from": slot.name, "reroutes": job.reroutes})
            self._dispatch(job)
        if slot.crash_loop < self.config.restart_budget:
            slot.restarts += 1
            slot.crash_loop += 1
            self._c_restarts.inc()
            self._spawn(slot)
        else:
            slot.breaker.kill()
            log.error("replica %s: restart budget (%d) exhausted with no "
                      "job completed; slot is dead", slot.name,
                      self.config.restart_budget)
            self._event(None, "dead", slot,
                        restart_budget=self.config.restart_budget)
        self._refresh_live()

    @staticmethod
    def _drop_queues(replica: _Replica) -> None:
        for q in (replica.inbox, replica.outbox):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):
                pass

    # -- routing and execution -----------------------------------------

    def _routable(self, index: int) -> bool:
        slot = self.slots[index]
        return (not self._stopping
                and slot.replica is not None
                and slot.replica.process.is_alive()
                and slot.breaker.routable())

    def any_routable(self) -> bool:
        return any(self._routable(i) for i in range(len(self.slots)))

    def _refresh_live(self) -> None:
        self._g_live.set(
            sum(1 for i in range(len(self.slots)) if self._routable(i)))

    def submit(self, request: RunRequest) -> "asyncio.Future":
        """Route one run onto the ring; the returned future resolves to
        ``(payload, source)`` — never an exception — where source is
        ``computed``/``disk``/``failed`` from the replica, or the
        fleet's own ``stranded``/``replica_failed``."""
        assert self._loop is not None, "fleet not started"
        self._job_seq += 1
        job = _Job(self._job_seq, request, self._loop.create_future())
        self._dispatch(job)
        return job.future

    async def execute_batch(self, requests: List[RunRequest]
                            ) -> Dict[str, Tuple[object, str]]:
        """Fan a deduplicated batch across the fleet and gather every
        outcome (the fleet half of the gateway's dispatch)."""
        futures = [self.submit(request) for request in requests]
        resolved = await asyncio.gather(*futures)
        return {request.fingerprint: outcome
                for request, outcome in zip(requests, resolved)}

    def _dispatch(self, job: _Job) -> None:
        index = self.ring.route(job.request.fingerprint, self._routable)
        if index is None:
            self._c_stranded.inc()
            self._event(job.request.fingerprint, "stranded", None,
                        reroutes=job.reroutes)
            if not job.future.done():
                job.future.set_result(
                    ("no live replica on the ring", STRANDED))
            return
        slot = self.slots[index]
        job.slot = index
        job.deadline = None  # starts when the replica reports the job
        self._jobs[job.job_id] = job
        try:
            slot.replica.inbox.put(("job", job.job_id, job.request))
        except (OSError, ValueError) as exc:
            # The inbox died under us — treat it as a replica death;
            # this job is in ``_jobs`` and fails over with the rest.
            self._replica_down(slot, "exit", f"inbox broken: {exc}")
            return
        self._c_jobs.inc()
        self._event(job.request.fingerprint, "routed", slot,
                    reroutes=job.reroutes)

    # -- observability -------------------------------------------------

    def _event(self, fingerprint: Optional[str], action: str,
               slot: Optional[_Slot], **fields) -> None:
        replica = slot.name if slot is not None else None
        if self.telemetry is not None:
            self.telemetry.record_replica_event(
                action=action, replica=replica, fingerprint=fingerprint,
                **fields)
        hook = self.on_event
        if hook is not None:
            try:
                hook(fingerprint, {"action": action, "replica": replica,
                                   **fields})
            except Exception:  # observers must never break supervision
                pass

    def snapshot(self) -> Dict[str, object]:
        """Per-replica fleet state for ``/healthz`` and the manifest."""
        now = time.monotonic()
        members = []
        for slot in self.slots:
            replica = slot.replica
            members.append({
                "name": slot.name,
                "state": slot.breaker.state,
                "alive": (replica is not None
                          and replica.process.is_alive()),
                "pid": replica.process.pid if replica is not None else None,
                "generation": (replica.generation
                               if replica is not None else None),
                "heartbeat_age_s": (round(now - replica.last_beat, 3)
                                    if replica is not None else None),
                "beats": replica.beats if replica is not None else 0,
                "busy": replica.busy if replica is not None else None,
                "restarts": slot.restarts,
                "deaths": slot.deaths,
                "jobs_ok": slot.jobs_ok,
                "jobs_failed": slot.jobs_failed,
                "breaker": slot.breaker.snapshot(),
            })
        live = sum(1 for i in range(len(self.slots)) if self._routable(i))
        return {
            "replicas": self.config.replicas,
            "live": live,
            "status": "ok" if live else "degraded",
            "restart_budget": self.config.restart_budget,
            "heartbeat_interval_s": self.config.heartbeat_interval_s,
            "outstanding_jobs": len(self._jobs),
            "members": members,
        }
