"""Parallel experiment execution engine with failure supervision.

The engine is the only code that computes a run, at every worker
count. It takes the union of every experiment's declared run set
(:meth:`Experiment.plan`), deduplicates it by canonical run fingerprint,
strips out runs already satisfiable from the in-memory or on-disk cache,
and fans the remainder across the slots of a :class:`WorkerPool`, each a
single-worker :class:`~concurrent.futures.ProcessPoolExecutor` forked on
first use. A one-shot caller's pool lives for one plan. A long-lived
caller (the service gateway, an exploration session) keeps one across
its plans, so its workers keep their trace memos, and each cohort goes
to the idle slot that last ran its trace structure. The gateway's pool
supervises every run it serves: the plans behind ``/run``,
``/experiment`` and ``/explore`` take turns on it. Results land in the
shared caches, and each experiment's ``run()`` reads them there and
renders its rows.

Runs are scheduled in **cohorts** (:func:`repro.experiments.batch.
partition_cohorts`): runs sharing a trace structure execute back to
back on one worker, so the trace is generated once per cohort; a lone
run is a cohort of one. No cohort holds more than ⌈pending runs /
workers⌉ runs, where ``workers`` is the pool size capped at the CPUs
this process may use: workers beyond the CPUs add no parallelism,
while every extra cohort generates its trace again. At most one cohort
is in flight per worker. The unit of work is one run: a cohort's
members go to its worker one at a time, each as soon as the previous
one's future completes, so every run starts as soon as it is submitted
and its result, exception or worker death arrives on its own future.

Correctness guarantees:

* **Bit-identical at every worker count.** Every run's random streams
  derive from ``config.seed`` (``repro.rng``), so a run's bytes do not
  depend on the worker, the cohort or the pool size that computed it.
  Results cross the process boundary by pickling, which round-trips
  ints and IEEE doubles exactly.
* **Telemetry crosses back with the result, never by sharing.**
  When the parent has a :class:`~repro.obs.Telemetry`, each worker
  attaches its own local one per run, runs instrumented, and returns a
  snapshot (the run's records and metrics, and its Perfetto events only
  when the parent writes a trace) with the run's result; the parent
  records it in its manifest and, with a trace, one multi-process
  Perfetto trace. Span trace ids derive from the run fingerprint, so
  parent and worker agree without extra transport. Attaching (or not
  attaching) telemetry never changes simulation results.
* **Deterministic scheduling irrelevance.** Completion order only
  affects cache-fill order, never values; experiments read results by
  fingerprint.

Resilience guarantees (policy in :mod:`repro.experiments.resilience`,
proven by the chaos tests in ``tests/integration/test_fault_tolerance``):

* **One run's failure never unwinds the plan.** A member that raises
  does not stop the rest of its cohort; its exception comes back on
  its own future (one that cannot cross the process boundary comes
  back as a ``TypeError``, its worker alive), is classified (transient
  vs deterministic), retried as a cohort of one with exponential
  backoff and fingerprint-derived deterministic jitter, and — if it
  keeps failing — recorded as a terminal failure while the other runs
  complete (*partial-result semantics*).
* **A killed worker doesn't discard finished work.** A slot holds one
  worker running one member, so its ``BrokenProcessPool`` names that
  member, and that member is charged. Members delivered before it are
  kept, members not yet submitted requeue, and only that slot is
  rebuilt, on its next task; the other slots run on. One respawn
  budget (``RetryPolicy.max_pool_respawns``) covers the whole plan. A
  slot whose worker died between plans is rebuilt before use, and no
  run is charged for it.
* **A hung worker is killed, not waited on.** With a per-run
  wall-clock timeout (``RetryPolicy.run_timeout_s``, started as each
  member is submitted) the engine kills the worker of the slot under a
  stuck member, charges that member a
  :class:`~repro.errors.WorkerTimeoutError`, and requeues the members
  its cohort never reached without an attempt penalty.
* **Runs that fail identically twice are quarantined** so a
  deterministic bug costs at most two attempts, and the manifest
  distinguishes "worth a rerun" from "needs triage".
* **Ctrl-C drains cleanly.** ``KeyboardInterrupt`` kills the workers
  running the plan, keeps every completed result in the caches (the
  finished members of a cohort still running included), marks the
  summary interrupted, and re-raises for the CLI to persist the
  manifest and exit nonzero.

Terminal failures are published to :func:`repro.experiments.base.
mark_run_failed`; experiments that later read such a run get a
:class:`~repro.errors.RunFailedError`.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..errors import WorkerTimeoutError
from ..obs import tracing
from ..obs.logging import get_logger, log_context
from ..testing.faults import maybe_inject
from ..util.procs import (
    close_inherited_sockets, exit_when_orphaned, trim_heap,
)
from .base import (
    RunRequest,
    _SIM_CACHE,
    active_disk_cache,
    active_telemetry,
    cache_get,
    clear_failed_runs,
    execute_request,
    failed_runs,
    mark_run_failed,
    record_cache_event,
    request_key,
)
from .batch import Cohort, dedupe_requests, partition_cohorts
from .resilience import (
    FAIL,
    QUARANTINE,
    RETRY,
    RetryPolicy,
    RunFailure,
    RunSupervisor,
    TRANSIENT,
)

log = get_logger("experiments.engine")


def _worker_run(
    request: RunRequest, obs: Optional[Dict[str, object]], last: bool,
) -> Tuple[int, object, Optional[Dict[str, object]]]:
    """Process-pool entry point: compute one run, uncached, and return
    ``(worker PID, result, telemetry snapshot)``.

    A cohort's members reach one worker in member order: the first
    generates the cohort's shared trace, the rest reuse it from the
    worker-process trace memo. A run that raises raises here, and its
    exception reaches the parent's :class:`RunSupervisor` on the run's
    own future.

    After the cohort's ``last`` member the worker hands its freed heap
    back to the OS. It keeps its trace memo: a warm worker is kept for
    it.
    """
    try:
        return (os.getpid(), *_execute_one(request, obs))
    finally:
        if last:
            trim_heap()


def _execute_one(
    request: RunRequest, obs: Optional[Dict[str, object]],
) -> Tuple[object, Optional[Dict[str, object]]]:
    """One run in this process, uncached — the member body of an engine
    worker: ``(result, telemetry snapshot)``.

    With an ``obs`` spec (``sample_interval`` / ``parent_span_id`` /
    ``trace``) the run executes under a process-local
    :class:`~repro.obs.Telemetry` whose
    :meth:`~repro.obs.Telemetry.worker_snapshot` comes back for the
    parent to merge, with Perfetto events only if ``trace``; without
    one the snapshot is ``None``.
    """
    maybe_inject("worker_run", key=request_key(request))
    if obs is None:
        return execute_request(request), None

    from ..obs.telemetry import Telemetry

    fingerprint = request.fingerprint
    telemetry = Telemetry(
        sample_interval=int(obs.get("sample_interval") or 5_000))
    context = tracing.SpanContext(
        tracing.trace_id_for(fingerprint),
        str(obs.get("parent_span_id") or ""),
    )
    with tracing.activate(context), \
            log_context(fingerprint=fingerprint[:12], worker_pid=os.getpid()):
        with telemetry.tracer.span(
            "worker.run", fingerprint=fingerprint,
            attrs={"workload": request.workload, "scheme": request.scheme,
                   "role": "worker"},
        ):
            result = execute_request(request, telemetry=telemetry)
    return result, telemetry.worker_snapshot(
        fingerprint, trace=bool(obs.get("trace")))


#: How long killing a slot waits for its worker to exit, so a killed
#: worker is reaped before its slot is rebuilt.
KILL_WAIT_S = 5.0


def _worker_init(parent_pid: int) -> None:
    """Start-up of every engine pool worker. A worker can outlive the
    plan that forked it, so it drops the sockets it inherited (the
    gateway forks while holding client connections) and exits when its
    parent is gone."""
    close_inherited_sockets()
    exit_when_orphaned(parent_pid)


class _Slot:
    """One worker of a :class:`WorkerPool`: a single-worker executor,
    spawned on first use, and the cohort key it last ran."""

    def __init__(self) -> None:
        self.executor: Optional[ProcessPoolExecutor] = None
        self.key: Optional[str] = None
        self.used = 0          # the pool's task count at its last task

    @property
    def process(self):
        """The worker process (``None`` before the slot's first task)."""
        processes = getattr(self.executor, "_processes", None) or {}
        return next(iter(processes.values()), None)

    def alive(self) -> bool:
        """Whether the slot's worker can take a task now."""
        process = self.process
        return process is not None and process.is_alive()


class WorkerPool:
    """Engine worker processes that outlive a plan.

    Each of ``size`` slots is a single-worker
    :class:`~concurrent.futures.ProcessPoolExecutor` whose worker is
    forked on the slot's first task. A worker keeps its trace memo
    between tasks, so :meth:`pick` sends a cohort to the idle slot that
    last ran its cohort key. A slot whose worker died or was killed is
    rebuilt on its next task, and no other slot is touched. One plan
    runs on a pool at a time: :func:`execute_plan` holds
    :attr:`plan_lock` for the whole plan, so callers that share a pool
    (the gateway's dispatcher and its explorations) take turns.

    :func:`execute_plan` gives a one-shot caller a private pool and
    closes it when the plan returns; a long-lived caller (the gateway,
    an exploration session) passes its own and closes it
    (:meth:`close`) when it is done.
    """

    def __init__(self, size: int):
        self.slots = [_Slot() for _ in range(max(1, size))]
        self._tasks = 0
        self._closed = False
        # A gateway whose drain timed out closes the pool while the
        # abandoned plan's thread may still be submitting to it.
        self._lock = threading.Lock()
        self.plan_lock = threading.Lock()

    @property
    def size(self) -> int:
        return len(self.slots)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def pick(self, key: str, busy: Sequence[_Slot]) -> _Slot:
        """The idle slot that last ran cohort ``key``, else the least
        recently used idle slot: work never waits for a busy slot."""
        idle = [slot for slot in self.slots if slot not in busy]
        for slot in idle:
            if slot.key == key:
                return slot
        return min(idle, key=lambda slot: slot.used)

    def submit(self, slot: _Slot, key: str, fn: Callable,
               *args) -> Future:
        """Run ``fn(*args)`` for cohort ``key`` on ``slot``'s worker,
        forking a new one first if the slot has none or its worker died
        since its last task (nobody is charged for that)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if slot.executor is not None and not slot.alive():
                self._kill(slot)
            if slot.executor is None:
                slot.executor = ProcessPoolExecutor(
                    max_workers=1, initializer=_worker_init,
                    initargs=(os.getpid(),))
            self._tasks += 1
            slot.key, slot.used = key, self._tasks
            return slot.executor.submit(fn, *args)

    def kill(self, slot: _Slot) -> None:
        """Stop ``slot``'s worker now, mid-task or not, and wait for it
        to exit. The slot is rebuilt on its next task."""
        with self._lock:
            self._kill(slot)

    def close(self, terminate: bool = False) -> None:
        """Let every worker exit once its task is done and join it, or
        with ``terminate`` kill the workers mid-task. A closed pool
        takes no task."""
        with self._lock:
            self._closed = True
            if terminate:
                for slot in self.slots:
                    self._kill(slot)
            executors = [slot.executor for slot in self.slots]
        # Joined outside the lock: a plan still running on the pool (an
        # exploration, which the gateway's drain does not wait for) must
        # stay able to kill a hung worker at its deadline.
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _kill(slot: _Slot) -> None:
        # No public API kills a pool worker. The process must be read
        # before shutdown(), which drops the executor's reference to it
        # even with ``wait=False``.
        process, executor = slot.process, slot.executor
        slot.executor = None
        if executor is None:
            return
        executor.shutdown(wait=False, cancel_futures=True)
        if process is not None:
            # SIGKILL: a worker forked from the daemon inherits its
            # event loop's SIGTERM handler, which does nothing.
            process.kill()
            process.join(KILL_WAIT_S)


@dataclass
class _Flight:
    """One in-flight cohort, its slot, and how far its worker has
    got."""

    cohort: Cohort
    attempt: int
    slot: _Slot
    started: float = 0.0       # monotonic submit time of the running member
    done: int = 0              # members accounted for, in member order
    delivered: int = 0         # members whose result was published

    @property
    def running(self) -> Optional[RunRequest]:
        """The member the worker is on (``None`` once all are done)."""
        if self.done < self.cohort.size:
            return self.cohort.members[self.done]
        return None


class _PlanSupervisor:
    """Supervised execution of one plan's cohorts on a
    :class:`WorkerPool`: slot choice, per-member deadlines, the
    recovery of a slot that breaks or overruns, one respawn budget, and
    the single path every completed run takes back into the caches and
    manifest."""

    def __init__(self, cohorts: List[Cohort], n_workers: int,
                 policy: RetryPolicy, summary: Dict[str, object],
                 pool: WorkerPool):
        self.policy = policy
        self.supervisor = RunSupervisor(policy)
        self.summary = summary
        self.pool = pool
        self.n_workers = min(n_workers, pool.size)
        #: Ready work: ``(cohort, attempt)`` in submission order.
        self.work: Deque[Tuple[Cohort, int]] = deque(
            (cohort, 1) for cohort in cohorts)
        #: Backoff heap: ``(ready_at, seq, cohort, attempt)``.
        self.delayed: List[Tuple[float, int, Cohort, int]] = []
        self._delay_seq = 0
        self.futures: Dict[Future, _Flight] = {}
        self.respawns = 0
        self.aborted = False

        self.disk = active_disk_cache()
        self.telemetry = active_telemetry()

    def _obs_spec(self) -> Optional[Dict[str, object]]:
        """The per-submission telemetry spec workers run under, or
        ``None`` when the parent has no telemetry."""
        if self.telemetry is None:
            return None
        context = tracing.current_context()
        return {
            "sample_interval": self.telemetry.sample_interval,
            "parent_span_id":
                context.span_id if context is not None else None,
            "trace": self.telemetry.trace_path is not None,
        }

    # -- scheduling ----------------------------------------------------

    def run(self) -> None:
        try:
            while not self.aborted and (self.futures or self.work
                                        or self.delayed):
                self._promote_delayed()
                self._fill()
                if not self.futures:
                    self._sleep_until_ready()  # only backoffs are left
                    continue
                done, _ = wait(set(self.futures),
                               timeout=self._wait_timeout(),
                               return_when=FIRST_COMPLETED)
                if done:
                    self._collect(done)
                self._check_deadlines()
        except KeyboardInterrupt:
            self.summary["interrupted"] = True
            abandoned = self._stop()
            log.warning("interrupted: abandoning %d in-flight cohort(s), "
                        "%d completed result(s) kept",
                        len(abandoned), self.summary["computed"])
            raise

    def _promote_delayed(self) -> None:
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, _, cohort, attempt = heapq.heappop(self.delayed)
            self.work.append((cohort, attempt))

    def _fill(self) -> None:
        while self.work and len(self.futures) < self.n_workers:
            cohort, attempt = self.work.popleft()
            busy = [flight.slot for flight in self.futures.values()]
            self._submit(_Flight(cohort, attempt,
                                 self.pool.pick(cohort.key, busy)))

    def _submit(self, flight: _Flight) -> None:
        """Send ``flight``'s next member to its slot. One cohort per
        slot, one member at a time: the worker is idle, so the member
        starts at once and its deadline never counts time queued."""
        last = flight.done == flight.cohort.size - 1
        future = self.pool.submit(flight.slot, flight.cohort.key,
                                  _worker_run, flight.running,
                                  self._obs_spec(), last)
        flight.started = time.monotonic()
        self.futures[future] = flight

    def _defer(self, cohort: Cohort, attempt: int, delay: float) -> None:
        self._delay_seq += 1
        heapq.heappush(self.delayed, (time.monotonic() + delay,
                                      self._delay_seq, cohort, attempt))

    def _deadline(self, flight: _Flight) -> Optional[float]:
        """When the member ``flight``'s worker is running overruns its
        wall-clock budget, which starts as the member is submitted."""
        if self.policy.run_timeout_s is None:
            return None
        return flight.started + self.policy.run_timeout_s

    def _wait_timeout(self) -> Optional[float]:
        candidates = [self._deadline(flight)
                      for flight in self.futures.values()]
        candidates = [deadline for deadline in candidates
                      if deadline is not None]
        if self.delayed:
            candidates.append(self.delayed[0][0])
        if not candidates:
            return None
        return max(0.0, min(candidates) - time.monotonic()) + 0.02

    def _sleep_until_ready(self) -> None:
        pause = self.delayed[0][0] - time.monotonic()
        if pause > 0:
            time.sleep(min(pause, 0.25))

    # -- completion and failure handling -------------------------------

    def _collect(self, done: Iterable[Future]) -> None:
        for future in done:
            flight = self.futures.pop(future, None)
            if flight is None:
                continue  # settled when the plan aborted
            exc = future.exception()
            if isinstance(exc, KeyboardInterrupt):
                raise exc
            if isinstance(exc, BrokenProcessPool):
                self._slot_broken(flight, exc)
                continue
            if exc is None:
                self._publish(flight, future.result())
            else:
                self._charge(flight, exc)
            if flight.running is None:
                self._retire(flight)
            else:
                self._submit(flight)

    def _publish(self, flight: _Flight,
                 outcome: Tuple[int, object, Optional[Dict[str, object]]],
                 ) -> None:
        """Deliver the member ``flight``'s worker was running, from its
        ``(worker PID, result, telemetry snapshot)``, to the memory
        cache, disk cache, manifest and telemetry."""
        worker_pid, result, snapshot = outcome
        request = flight.running
        flight.done += 1
        key = request.fingerprint
        _SIM_CACHE[key] = result
        if self.disk is not None:
            self.disk.put(key, result)
        record_cache_event(request, "computed", worker=worker_pid,
                           prefetch=True)
        if self.telemetry is not None:
            self.telemetry.merge_worker_telemetry(snapshot)
        self.summary["computed"] += 1
        flight.delivered += 1

    def _charge(self, flight: _Flight, exc: BaseException) -> None:
        """Judge the failed attempt, with ``exc``, of the member
        ``flight``'s worker was running; a retry runs it as a cohort of
        one."""
        request = flight.running
        flight.done += 1
        verdict, delay = self.supervisor.on_failure(request, exc)
        if verdict == RETRY:
            self.summary["retried"] += 1
            attempt = flight.attempt + 1
            log.warning("run %s/%s failed (%s: %s) — retry %d in %.2fs",
                        request.workload, request.scheme,
                        type(exc).__name__, exc, attempt - 1, delay)
            if self.telemetry is not None:
                self.telemetry.record({
                    "type": "retry",
                    "fingerprint": request.fingerprint,
                    "workload": request.workload,
                    "scheme": request.scheme,
                    "attempt": attempt,
                    "delay_s": delay,
                    "error_type": type(exc).__name__,
                })
            self._defer(Cohort(flight.cohort.key, (request,)), attempt,
                        delay)
            return
        self._record_terminal(self.supervisor.failures[-1])

    def _record_terminal(self, failure: RunFailure) -> None:
        if failure.verdict == QUARANTINE:
            self.summary["quarantined"] += 1
            log.error("run %s/%s QUARANTINED after %d identical "
                      "failure(s): %s", failure.workload, failure.scheme,
                      failure.attempts, failure.error)
        else:
            self.summary["failed"] += 1
            log.error("run %s/%s failed permanently after %d attempt(s): "
                      "%s: %s", failure.workload, failure.scheme,
                      failure.attempts, failure.error_type, failure.error)
        self.summary["failures"].append(failure.as_record())
        mark_run_failed(failure.fingerprint, failure.message())
        if self.telemetry is not None:
            self.telemetry.record({"type": "run_failure",
                                   **failure.as_record()})

    def _retire(self, flight: _Flight, reason: Optional[str] = None) -> None:
        """Close a cohort. Members it never reached requeue as one
        cohort, without an attempt charge. The cohort is recorded as
        ``executed`` when its worker ran every member, else as
        ``dissolved`` for ``reason``."""
        cohort = flight.cohort
        rest = cohort.members[flight.done:]
        if rest:
            self.work.appendleft((Cohort(cohort.key, rest), flight.attempt))
        if reason is None:
            self.summary["batch_cohorts"] += 1
        elif cohort.size == 1:
            return
        else:
            log.warning("cohort %s (%d runs) cut short (%s): %d run(s) "
                        "delivered, %d requeued", cohort.key[:12],
                        cohort.size, reason, flight.delivered, len(rest))
        if self.telemetry is not None:
            self.telemetry.record({
                "type": "batch_cohort",
                "action": "executed" if reason is None else "dissolved",
                "key": cohort.key,
                "size": cohort.size,
                "delivered": flight.delivered,
                "detail": reason,
            })

    # -- slot failures ---------------------------------------------------

    def _slot_broken(self, flight: _Flight, exc: BaseException) -> None:
        """``flight``'s worker died. It was running one member, which is
        charged; the members it finished are kept, the rest requeue,
        and only its slot is rebuilt, on its next task."""
        self.pool.kill(flight.slot)
        if not self._respawn("broken_pool", exc, [flight]):
            return
        self._charge(flight, exc)
        self._retire(flight, "broken_pool")

    def _check_deadlines(self) -> None:
        if self.policy.run_timeout_s is None:
            return
        now = time.monotonic()
        for future, flight in list(self.futures.items()):
            if future.done() or now < self._deadline(flight):
                continue
            # The slot's worker is stuck on one member: kill that worker
            # alone, charge the member a WorkerTimeoutError, and requeue
            # the members it never reached without a charge.
            del self.futures[future]
            self.pool.kill(flight.slot)
            self.summary["timeouts"] += 1
            self._charge(flight, WorkerTimeoutError(
                f"no result within the {self.policy.run_timeout_s:.1f}s"
                f" wall-clock budget; worker killed"))
            if not self._respawn("watchdog_timeout", None, [flight]):
                return
            self._retire(flight, "watchdog_timeout")

    def _respawn(self, reason: str, exc: Optional[BaseException],
                 victims: List[_Flight]) -> bool:
        """Count one slot rebuild against the plan's respawn budget.
        Past it, the other slots are stopped too, every outstanding run
        fails — the unfinished members of ``victims`` and of the other
        in-flight cohorts, and everything queued — and the plan
        aborts."""
        self.respawns += 1
        self.summary["pool_respawns"] += 1
        if self.respawns > self.policy.max_pool_respawns:
            self._abort(reason, victims)
            return False
        requeued = sum(flight.cohort.size - flight.done
                       for flight in victims)
        log.warning("worker respawn %d/%d (%s): %d unfinished run(s) "
                    "requeued", self.respawns, self.policy.max_pool_respawns,
                    reason, requeued)
        if self.telemetry is not None:
            self.telemetry.record({
                "type": "pool_respawn",
                "respawns": self.respawns,
                "reason": reason,
                "requeued": requeued,
                "error": str(exc) if exc is not None else None,
            })
        return True

    def _stop(self) -> List[_Flight]:
        """Kill the slot of every in-flight member and return their
        flights. A member whose result is already back is delivered
        first: no finished run is thrown away."""
        flights = []
        for future, flight in self.futures.items():
            if future.done() and future.exception() is None:
                self._publish(flight, future.result())
            self.pool.kill(flight.slot)
            flights.append(flight)
        self.futures.clear()
        return flights

    def _abort(self, reason: str, victims: List[_Flight]) -> None:
        for flight in self._stop():
            if flight.running is None:
                self._retire(flight)
            else:
                victims.append(flight)
        outstanding = (
            [(flight.cohort.members[flight.done:], flight.attempt + 1)
             for flight in victims]
            + [(cohort.members, attempt) for cohort, attempt in self.work]
            + [(cohort.members, attempt)
               for _, _, cohort, attempt in self.delayed])
        log.error("pool respawn budget exhausted (%d); failing %d "
                  "outstanding run(s)", self.policy.max_pool_respawns,
                  sum(len(members) for members, _ in outstanding))
        note = (f"pool respawn budget ({self.policy.max_pool_respawns}) "
                f"exhausted during {reason}")
        for members, attempts in outstanding:
            for request in members:
                self._force_fail(request, attempts, note)
        self.work.clear()
        self.delayed.clear()
        self.aborted = True

    def _force_fail(self, request: RunRequest, attempts: int,
                    note: str) -> None:
        failure = RunFailure(
            fingerprint=request.fingerprint,
            workload=request.workload,
            scheme=request.scheme,
            error=note,
            error_type="BrokenProcessPool",
            failure_class=TRANSIENT,
            attempts=attempts,
            verdict=FAIL,
        )
        self.supervisor.failures.append(failure)
        self._record_terminal(failure)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def execute_plan(
    requests: Iterable[RunRequest],
    jobs: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    pool: Optional[WorkerPool] = None,
) -> Dict[str, object]:
    """Compute the runs of ``requests`` the caches lack, on ``jobs``
    supervised worker processes (one by default). This is the only code
    that computes a run.

    Returns a summary with partial-result semantics: counts of planned
    and unique requests, cache hits (``memory`` / ``disk``), fresh
    ``computed`` results, plus the supervision counters — ``failed``,
    ``retried``, ``quarantined``, ``timeouts``, ``pool_respawns`` — and
    a ``failures`` list (one record per terminal failure, mirroring the
    manifest's ``run_failure`` records). ``batch_cohorts`` counts the
    cohorts that ran to their last member. Failed runs never unwind
    the plan; they are recorded here, registered with
    :func:`~repro.experiments.base.mark_run_failed`, and surface as
    :class:`~repro.errors.RunFailedError` if an experiment needs them.

    Every ``jobs`` gets the same supervision: retries, the per-run
    watchdog and crash containment. Runs already cached start no
    worker.

    The workers come from ``pool`` when the caller keeps one across
    plans (at most ``pool.size`` of them run the plan, and a plan
    already running on it finishes first), else from a private
    :class:`WorkerPool` that is closed, its workers joined, before this
    returns.

    ``KeyboardInterrupt`` propagates after the workers running the plan
    are killed and ``summary["interrupted"]`` is set — every
    already-computed result stays in the caches, the finished members
    of an interrupted cohort included.
    """
    planned = list(requests)
    unique = dedupe_requests(planned)
    summary: Dict[str, object] = {
        "planned": len(planned),
        "unique": len(unique),
        "memory": 0,
        "disk": 0,
        "computed": 0,
        "failed": 0,
        "retried": 0,
        "quarantined": 0,
        "timeouts": 0,
        "pool_respawns": 0,
        "batch_cohorts": 0,
        "interrupted": False,
        "failures": [],
    }
    # A re-planned run gets a fresh chance even if a previous plan in
    # this process gave up on it.
    clear_failed_runs(request.fingerprint for request in unique)
    disk = active_disk_cache()
    pending: List[RunRequest] = []
    for request in unique:
        key = request.fingerprint
        if key in _SIM_CACHE:
            summary["memory"] += 1
            continue
        if disk is not None:
            result = disk.get(key)
            if result is not None:
                _SIM_CACHE[key] = result
                record_cache_event(request, "disk", prefetch=True)
                summary["disk"] += 1
                continue
        pending.append(request)

    if not pending:
        return summary

    n_workers = min(max(jobs, 1), len(pending))
    cohorts = partition_cohorts(pending, min(n_workers, _usable_cpus()))
    n_workers = min(n_workers, len(cohorts))  # no worker without a cohort
    log.debug("computing %d runs as %d cohort(s) on %d workers "
              "(%d memory hits, %d disk hits)", len(pending), len(cohorts),
              n_workers, summary["memory"], summary["disk"])
    with (WorkerPool(n_workers) if pool is None
          else nullcontext(pool)) as workers, workers.plan_lock:
        plan = _PlanSupervisor(cohorts, n_workers,
                               policy or RetryPolicy(), summary, workers)
        if plan.telemetry is None:
            plan.run()
        else:
            with plan.telemetry.tracer.span(
                "plan.execute",
                attrs={"pending": len(pending), "unique": len(unique),
                       "jobs": plan.n_workers, "cohorts": len(cohorts)},
            ):
                plan.run()
    return summary


def plan_outcomes(
    requests: Iterable[RunRequest],
    jobs: int = 1,
    *,
    policy: Optional[RetryPolicy] = None,
    summary_out: Optional[Dict[str, object]] = None,
    pool: Optional[WorkerPool] = None,
) -> Dict[str, Tuple[object, str]]:
    """Execute ``requests`` under full supervision and report each
    fingerprint's outcome as ``(result, source)``.

    The serving-side wrapper around :func:`execute_plan` behind the
    gateway's dispatch, with the per-request provenance the service
    layer reports to clients. ``source`` is ``disk`` (the run was already in the on-disk
    cache before the plan), ``computed`` (freshly executed — or
    satisfied from this process's memory cache, which for a cold
    service request is the same thing), or ``failed`` with the terminal
    failure message as the result.

    With a ``summary_out`` dict the plan summary is copied into it so
    callers like the service gateway can export its counters as
    metrics. ``pool`` is the caller's long-lived :class:`WorkerPool`,
    as for :func:`execute_plan`.
    """
    requests = list(requests)
    disk = active_disk_cache()
    on_disk = {
        request.fingerprint
        for request in requests
        if disk is not None and request.fingerprint in disk
    }
    summary = execute_plan(requests, jobs=jobs, policy=policy, pool=pool)
    if summary_out is not None:
        summary_out.update(summary)
    failures = failed_runs()
    outcomes: Dict[str, Tuple[object, str]] = {}
    for request in requests:
        key = request.fingerprint
        result = cache_get(key)  # LRU: refresh recency on delivery
        if result is not None:
            outcomes[key] = (
                result, "disk" if key in on_disk else "computed")
        elif key in failures:
            outcomes[key] = (failures[key], "failed")
        else:
            outcomes[key] = (
                "run neither completed nor failed (engine aborted "
                "or interrupted)", "failed")
    return outcomes
