"""Batched multi-run plan execution (structure-of-arrays sweeps).

A plan sweep — the 224-run golden corpus, the fig15/fig22 budget
sweeps, a storm of coalesced service cold misses — is mostly *one*
structure evaluated at many scalar points: same workload, same cache
and DIMM geometry, same kernel, differing only in swept knobs like
power budgets, GCP efficiency, or cell mapping. Executed per-run, each
point pays the full pool round-trip **and** regenerates the same
memory trace; trace generation is the single most expensive
non-simulation phase (BENCH_baseline.json), so at quick scales it
dominates the sweep.

This module is the batched tier underneath
:func:`repro.experiments.engine.execute_plan`:

* :func:`partition_cohorts` groups a deduplicated plan by
  :func:`cohort_key` — a digest of each run's *trace-relevant*
  structure **after** its scheme is applied (workload, scale, kernel,
  seed, CPU + cache geometry, PCM cell model, line size). It digests
  the same structure the trace generator's memo keys on, so a cohort
  is exactly a set of runs that can share one trace-generation pass;
  swept scalars (budgets, GCP efficiency, MR split, write-queue depth)
  never separate runs, and nothing trace-relevant is ever mixed.
* :func:`_cohort_execute` is the worker entry point: it lowers a
  cohort into one process task that runs every member through the
  engine's own :func:`~repro.experiments.engine._worker_execute`
  (same fault-injection points, same telemetry sidecars, same
  checkpoint plumbing) against the worker-local trace memo, then
  scatters per-run outcomes back. Results are **byte-identical** to
  serial execution: identical fingerprints, identical per-run RNG
  streams (all derive from ``config.seed``), and the parent merges
  them through literally the same
  :meth:`~repro.experiments.engine._WorkerEnv.deliver` path.
* :class:`_CohortRunner` supervises cohort futures: a cohort whose
  worker dies (``BrokenProcessPool``) or hangs (per-cohort watchdog,
  scaled by cohort size) is **bisected** — split in half and retried —
  until the culprit run is cornered in a cohort of one, which *falls
  back* to the per-run tier where the PR 3 resilience machinery
  (retry classification, quarantine, per-run watchdog) judges it.
  Innocent runs never pay for a culprit's crash with anything worse
  than a re-execution.

Everything this tier cannot or should not batch — singleton cohorts
under ``auto``, fallback members, cohorts stranded by an exhausted
respawn budget — is returned to ``execute_plan``, which hands it to
the unchanged per-run :class:`~repro.experiments.engine._PlanExecutor`.
Batching therefore never *loses* a run and never force-fails one; the
per-run tier remains the sole authority on terminal failures.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.policies.registry import get_scheme
from ..obs.logging import get_logger
from ..trace.generator import trace_structure
from .base import RunRequest
from .engine import _WorkerEnv, _worker_execute, dedupe_requests
from .resilience import RetryPolicy

log = get_logger("experiments.batch")


def cohort_key(request: RunRequest) -> str:
    """Digest of a run's batch-compatible structure.

    Computed on the config *after* the scheme is applied (schemes may
    change the cell mapping, power budgets, or queue depth — none of
    which the trace generator reads, so scheme and budget sweeps over
    one workload share a cohort). The digested structure is
    :func:`~repro.trace.generator.trace_structure`, which the
    generator's memo also keys on: two runs share a key iff they share
    a memoized trace, so a cohort's members are guaranteed to share one
    trace-generation pass inside a worker.
    """
    cfg = get_scheme(request.scheme).apply_to_config(request.config)
    structure = trace_structure(
        cfg, request.workload,
        request.scale.n_pcm_writes, request.scale.max_refs_per_core,
    )
    return hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Cohort:
    """One batch-compatible group: members sorted by fingerprint, so a
    cohort's identity (and its execution order inside the worker) is
    independent of plan order."""

    key: str
    members: Tuple[RunRequest, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def partition_cohorts(requests: Iterable[RunRequest]) -> List[Cohort]:
    """Partition a plan into cohorts.

    Properties (proven by ``tests/property/test_batch_partition.py``):
    a true partition of the deduplicated plan (every unique fingerprint
    in exactly one cohort), deterministic under plan permutation
    (members sort by fingerprint, cohorts by key), and never mixing
    runs whose trace-relevant structures differ.
    """
    groups: Dict[str, List[RunRequest]] = {}
    for request in dedupe_requests(requests):
        groups.setdefault(cohort_key(request), []).append(request)
    return [
        Cohort(key, tuple(sorted(members, key=lambda r: r.fingerprint)))
        for key, members in sorted(groups.items())
    ]


#: One member's result crossing the process boundary:
#: ``(fingerprint, result | None, error | None, sidecar | None)``.
Outcome = Tuple[str, object, Optional[str], Optional[str]]


def _cohort_execute(
    requests: Sequence[RunRequest],
    obs: Optional[Dict[str, object]] = None,
    ckpt: Optional[Dict[str, object]] = None,
) -> Tuple[int, List[Outcome]]:
    """Process-pool entry point: run one cohort on one worker.

    Each member goes through the engine's ``_worker_execute`` — the
    per-run tier's own entry point, with its fault-injection hook,
    telemetry sidecar, and checkpoint plumbing — so a batched run is
    indistinguishable from a per-run one. The amortization comes from
    the worker-process-local trace memo: the first member generates the
    cohort's shared trace, the rest reuse it.

    A member that *raises* is captured as an error outcome (the parent
    hands it to the per-run tier for proper retry classification); a
    member that kills or wedges the process surfaces to the parent as
    ``BrokenProcessPool`` / a watchdog timeout and triggers bisection.
    """
    outcomes: List[Outcome] = []
    for request in requests:
        try:
            fingerprint, result, _pid, sidecar = _worker_execute(
                request, obs, ckpt)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            outcomes.append((request.fingerprint, None,
                             f"{type(exc).__name__}: {exc}", None))
        else:
            outcomes.append((fingerprint, result, None, sidecar))
    return os.getpid(), outcomes


class _CohortRunner:
    """Supervised execution of a plan's batched cohorts.

    Mirrors the per-run ``_PlanExecutor``'s pool lifecycle, at cohort
    granularity and with a different failure philosophy: this tier
    never records a terminal failure. A cohort that breaks the pool or
    blows its deadline is bisected toward the culprit; a cohort of one
    that still fails — and everything stranded when the respawn budget
    runs out — is handed back for per-run execution, where the
    resilience machinery owns retries, quarantine and verdicts.
    """

    def __init__(self, cohorts: Sequence[Cohort], jobs: int,
                 policy: RetryPolicy, summary: Dict[str, object],
                 env: _WorkerEnv):
        self.policy = policy
        self.summary = summary
        self.env = env
        self.work: Deque[Cohort] = deque(cohorts)
        #: Runs this tier gave up on, owed to the per-run tier.
        self.fallback: List[RunRequest] = []
        self.futures: Dict[Future, Tuple[Cohort, Optional[float]]] = {}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.respawns = 0
        self.n_workers = min(max(jobs, 1), len(cohorts))
        self.window = 2 * self.n_workers

    # -- scheduling ----------------------------------------------------

    def run(self) -> None:
        self._ensure_pool()
        try:
            while self.work or self.futures:
                self._fill()
                if not self.futures:
                    break  # respawn budget exhausted; work drained
                done, _ = wait(set(self.futures),
                               timeout=self._wait_timeout(),
                               return_when=FIRST_COMPLETED)
                if done:
                    self._collect(done)
                self._check_deadlines()
        except KeyboardInterrupt:
            self.summary["interrupted"] = True
            log.warning("interrupted: abandoning %d in-flight cohort(s)",
                        len(self.futures))
            self._teardown_pool(terminate=True)
            raise
        finally:
            self._teardown_pool()

    def _fill(self) -> None:
        if self.pool is None:
            return
        while self.work and len(self.futures) < self.window:
            cohort = self.work.popleft()
            deadline = None
            if self.policy.run_timeout_s is not None:
                # A cohort is up to `size` serial runs; scale the
                # per-run watchdog accordingly.
                deadline = (time.monotonic()
                            + self.policy.run_timeout_s * cohort.size)
            future = self.pool.submit(_cohort_execute, list(cohort.members),
                                      self.env.obs_spec(),
                                      self.env.ckpt_spec)
            self.futures[future] = (cohort, deadline)

    def _wait_timeout(self) -> Optional[float]:
        deadlines = [deadline for _, deadline in self.futures.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic()) + 0.02

    # -- completion and failure handling -------------------------------

    def _collect(self, done: Iterable[Future]) -> None:
        broken: Optional[BaseException] = None
        casualties: List[Cohort] = []
        for future in done:
            entry = self.futures.pop(future, None)
            if entry is None:
                continue
            cohort, _deadline = entry
            try:
                worker_pid, outcomes = future.result()
            except BrokenProcessPool as exc:
                broken = broken or exc
                casualties.append(cohort)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:
                # The cohort wrapper itself failed (pickling, OS
                # trouble): not a member's fault — per-run tier decides.
                self._fall_back(cohort, f"{type(exc).__name__}: {exc}")
            else:
                self._deliver(cohort, worker_pid, outcomes)
        if broken is not None:
            self._pool_broken(casualties, broken)

    def _deliver(self, cohort: Cohort, worker_pid: int,
                 outcomes: List[Outcome]) -> None:
        by_fingerprint = {r.fingerprint: r for r in cohort.members}
        delivered = 0
        errored: List[RunRequest] = []
        for fingerprint, result, error, sidecar in outcomes:
            request = by_fingerprint[fingerprint]
            if error is None:
                self.env.deliver(request, result, worker_pid, sidecar,
                                 self.summary)
                delivered += 1
            else:
                errored.append(request)
        self.summary["batch_cohorts"] += 1
        self.summary["batch_runs"] += delivered
        if self.env.telemetry is not None:
            self.env.telemetry.record_batch_cohort(
                action="executed", key=cohort.key, size=cohort.size,
                delivered=delivered,
            )
        if errored:
            self._fall_back(
                Cohort(cohort.key, tuple(errored)),
                f"{len(errored)} member(s) raised inside the cohort",
            )

    def _fall_back(self, cohort: Cohort, note: str) -> None:
        log.warning("cohort %s (%d run(s)) falls back to per-run "
                    "execution: %s", cohort.key[:12], cohort.size, note)
        self.summary["batch_fallbacks"] += cohort.size
        if self.env.telemetry is not None:
            self.env.telemetry.record_batch_cohort(
                action="fallback", key=cohort.key, size=cohort.size,
                detail=note,
            )
        self.fallback.extend(cohort.members)

    def _bisect(self, cohort: Cohort) -> None:
        """Split a suspect cohort toward its culprit: halves requeue at
        the front; a cohort of one is a cornered culprit and falls
        back to the per-run tier for judgment."""
        if cohort.size == 1:
            self._fall_back(cohort, "cohort of one still failing batched")
            return
        self.summary["batch_bisections"] += 1
        if self.env.telemetry is not None:
            self.env.telemetry.record_batch_cohort(
                action="bisect", key=cohort.key, size=cohort.size,
            )
        mid = cohort.size // 2
        log.warning("bisecting cohort %s: %d -> %d + %d run(s)",
                    cohort.key[:12], cohort.size, mid, cohort.size - mid)
        self.work.appendleft(Cohort(cohort.key, cohort.members[mid:]))
        self.work.appendleft(Cohort(cohort.key, cohort.members[:mid]))

    def _pool_broken(self, casualties: List[Cohort],
                     exc: BaseException) -> None:
        """The pool died under a cohort. Completed siblings deliver;
        every in-flight cohort is a suspect and bisects."""
        victims: List[Cohort] = list(casualties)
        for future, (cohort, _deadline) in list(self.futures.items()):
            del self.futures[future]
            if future.done() and future.exception() is None:
                worker_pid, outcomes = future.result()
                self._deliver(cohort, worker_pid, outcomes)
            else:
                victims.append(cohort)
        self._respawn(bisect=victims, requeue=[], exc=exc,
                      reason="batch_broken_pool")

    def _check_deadlines(self) -> None:
        if self.policy.run_timeout_s is None or not self.futures:
            return
        now = time.monotonic()
        expired: List[Cohort] = []
        for future, (cohort, deadline) in list(self.futures.items()):
            if deadline is None or now < deadline:
                continue
            if future.done():
                continue  # finished between wait() and here; next loop
            del self.futures[future]
            expired.append(cohort)
        if not expired:
            return
        # A worker is wedged mid-cohort; the pool must be abandoned.
        # The expired cohorts are suspects (bisect toward the hanging
        # member); completed siblings deliver and the rest requeue
        # whole — they were innocent bystanders of the teardown.
        innocents: List[Cohort] = []
        for future, (cohort, _deadline) in list(self.futures.items()):
            del self.futures[future]
            if future.done() and future.exception() is None:
                worker_pid, outcomes = future.result()
                self._deliver(cohort, worker_pid, outcomes)
            else:
                innocents.append(cohort)
        self._respawn(bisect=expired, requeue=innocents, exc=None,
                      reason="batch_watchdog_timeout")

    def _respawn(self, bisect: List[Cohort], requeue: List[Cohort],
                 exc: Optional[BaseException], reason: str) -> None:
        """Rebuild the pool within the (shared) respawn budget; past
        it, every outstanding cohort falls back per-run — this tier
        refuses to fail runs, it only stops batching them."""
        self._teardown_pool(terminate=True)
        self.respawns += 1
        self.summary["pool_respawns"] += 1
        if self.env.telemetry is not None:
            self.env.telemetry.record_pool_respawn(
                respawns=self.respawns, reason=reason,
                requeued=sum(c.size for c in bisect + requeue),
                error=str(exc) if exc is not None else None,
            )
        if self.respawns > self.policy.max_pool_respawns:
            note = (f"batch pool respawn budget "
                    f"({self.policy.max_pool_respawns}) exhausted "
                    f"during {reason}")
            log.error("%s; handing %d cohort(s) to the per-run tier",
                      note, len(bisect) + len(requeue) + len(self.work))
            for cohort in bisect + requeue:
                self._fall_back(cohort, note)
            while self.work:
                self._fall_back(self.work.popleft(), note)
            return  # pool stays down; run() drains out
        for cohort in requeue:
            self.work.appendleft(cohort)
        for cohort in bisect:
            self._bisect(cohort)
        self._ensure_pool()

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> None:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.n_workers)

    def _teardown_pool(self, terminate: bool = False) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=not terminate, cancel_futures=True)
        if terminate:
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:
                    pass


def run_batched(pending: List[RunRequest], *, jobs: int,
                policy: RetryPolicy, summary: Dict[str, object],
                mode: str, env: _WorkerEnv) -> List[RunRequest]:
    """Execute a plan's batch-compatible cohorts; return what's left.

    Under ``auto`` only cohorts of ≥ 2 runs batch (a singleton gains
    nothing and would pay cohort bookkeeping); under ``force`` every
    cohort batches. The returned list — unbatched singletons plus any
    fallback from cohort supervision — is owed to the per-run tier.
    """
    cohorts = partition_cohorts(pending)
    if mode == "auto":
        batched = [cohort for cohort in cohorts if cohort.size >= 2]
    else:
        batched = cohorts
    batched_fingerprints = {
        request.fingerprint
        for cohort in batched
        for request in cohort.members
    }
    leftover = [request for request in pending
                if request.fingerprint not in batched_fingerprints]
    if not batched:
        return leftover
    log.debug("batching %d run(s) into %d cohort(s) (mode=%s, "
              "%d left per-run)",
              sum(c.size for c in batched), len(batched), mode,
              len(leftover))
    runner = _CohortRunner(batched, jobs, policy, summary, env)
    runner.run()
    leftover.extend(runner.fallback)
    return leftover
