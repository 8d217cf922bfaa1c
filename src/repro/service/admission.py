"""The admission table: a cold run joins or is admitted in one step.

Every cold fingerprint (in no cache) passes this table before it
reaches the engine. It holds one shared future per in-flight
fingerprint and the bounded FIFO of admitted runs the dispatcher has
not taken yet. :meth:`AdmissionTable.admit` decides in one call, as the
power manager takes an iteration's whole allocation at once: the first
requester of a fingerprint *leads* and its run joins the FIFO; whoever
asks while that run is queued or computing *follows* and shares the
future. A refused request leaves no entry behind: it raises
:class:`DrainingError` once the table is closed, or :class:`BusyError`
when the FIFO is full, with a ``Retry-After`` derived from the backlog
and an EWMA of recent per-run service times.

Properties (proven by ``tests/property/test_prop_service``):

* **Never double-runs.** At most one in-flight entry exists per
  fingerprint, and it is only re-admittable after its entry resolves
  (by then the result is cached, so a re-request is a cache hit).
* **Never cross-wires.** A future is bound to its fingerprint when the
  run is admitted and resolved exactly once, with that fingerprint's
  result or error.
* **Bounded memory.** The table holds only in-flight fingerprints;
  resolution removes the entry (``peak_inflight`` is the witness).
* **Failures fan out, never strand.** ``reject`` delivers the same
  error to every waiter; ``abort_all`` (drain/shutdown) leaves nobody
  awaiting a future that will never resolve.

Single-loop: every method runs on the event-loop thread, and only
``take`` (the dispatcher's side) awaits. Waiters await through
:meth:`AdmissionTable.wait`, which shields the shared future, so one
cancelled client (a disconnect) cannot cancel the run for the others.
Closing wakes the dispatcher with ``None`` once the FIFO is empty: stop
admitting → finish backlog → resolve stragglers → exit.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..obs.logging import get_logger
from .schemas import BusyError, DrainingError

log = get_logger("service.admission")

#: Service-time prior (seconds) used until the first run completes.
DEFAULT_RUN_SECONDS = 2.0

#: EWMA smoothing for observed per-run service times.
EWMA_ALPHA = 0.3

#: Ceiling on the Retry-After estimate: a deep queue of slow runs would
#: tell clients "come back in hours", which in practice means "never";
#: "retry in about a minute and re-check" is the more truthful advice.
RETRY_AFTER_CAP_S = 60


class AdmissionTable:
    """In-flight runs by fingerprint, and the FIFO of runs not yet
    dispatched."""

    def __init__(self, limit: int, workers: int = 1):
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self.workers = max(1, workers)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: Deque[object] = deque()
        self._wakeup = asyncio.Event()
        self._closed = False
        #: Runs admitted (each one's requester led), requests that
        #: joined a run in flight, and requests refused as busy.
        self.admitted = 0
        self.followers = 0
        self.rejected = 0
        #: Waiters that cancelled (disconnected) before their result.
        self.cancelled_waiters = 0
        self.peak_depth = 0
        self.peak_inflight = 0
        self.ewma_run_s = DEFAULT_RUN_SECONDS
        #: Times the Retry-After cap kicked in.
        self.retry_after_clamped = 0
        #: Non-positive service-time samples refused by
        #: :meth:`observe_run_seconds`: a nonzero count means a caller
        #: times runs with a clock that can step backwards.
        self.ewma_rejected_samples = 0
        #: Hook fired once per refused sample (the gateway's
        #: ``service_ewma_rejected_samples`` counter).
        self.on_rejected_sample: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: str) -> bool:
        return key in self._inflight

    @property
    def depth(self) -> int:
        """Admitted runs the dispatcher has not taken yet."""
        return len(self._pending)

    def retry_after_s(self) -> int:
        """Whole seconds until a FIFO slot is plausibly free: the
        backlog's estimated drain time across the workers, at least 1 s
        so clients never busy-spin, at most ``RETRY_AFTER_CAP_S``."""
        backlog = len(self._pending) + 1  # plus the run likely executing
        estimate = backlog * self.ewma_run_s / self.workers
        seconds = max(1, int(math.ceil(estimate)))
        if seconds > RETRY_AFTER_CAP_S:
            self.retry_after_clamped += 1
            return RETRY_AFTER_CAP_S
        return seconds

    def admit(self, key: str,
              work: object) -> Tuple["asyncio.Future", bool]:
        """Join the in-flight run for ``key``, or admit ``work`` as it.

        Returns ``(future, leader)``; ``leader`` is true when this call
        queued ``work``, whose outcome the dispatcher delivers through
        :meth:`resolve` or :meth:`reject`. Raises :class:`DrainingError`
        once closed and :class:`BusyError` when the FIFO is full; a
        refused call records nothing but the refusal count.
        """
        if self._closed:
            raise DrainingError("gateway is draining; not admitting "
                                "new work")
        future = self._inflight.get(key)
        if future is not None:
            self.followers += 1
            return future, False
        if len(self._pending) >= self.limit:
            self.rejected += 1
            raise BusyError(
                f"admission queue full ({self.limit} pending cold "
                f"requests)", retry_after_s=self.retry_after_s(),
                queue_depth=len(self._pending), queue_limit=self.limit)
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._pending.append(work)
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, len(self._inflight))
        self.peak_depth = max(self.peak_depth, len(self._pending))
        self._wakeup.set()
        return future, True

    async def wait(self, future: "asyncio.Future"):
        """Await a shared run's outcome, shielded: cancelling this
        waiter (a dropped connection) is counted in
        ``cancelled_waiters`` and never cancels the run."""
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            self.cancelled_waiters += 1
            raise

    async def take(self) -> Optional[object]:
        """Next admitted run, waiting if the FIFO is empty; ``None``
        once the table is closed *and* drained (dispatcher exit)."""
        while True:
            if self._pending:
                return self._pending.popleft()
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    def drain_now(self, limit: int) -> list:
        """Up to ``limit`` more runs without waiting (batch top-up)."""
        batch = []
        while self._pending and len(batch) < limit:
            batch.append(self._pending.popleft())
        return batch

    def resolve(self, key: str, result: object) -> None:
        """Deliver ``result`` to every waiter of ``key``; a no-op for a
        key no longer in flight."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def reject(self, key: str, error: BaseException) -> bool:
        """Deliver the same ``error`` to every waiter of ``key``;
        returns whether ``key`` was still in flight."""
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return False
        future.set_exception(error)
        return True

    def abort_all(self, error_factory: Callable[[str], BaseException]) -> int:
        """Reject every in-flight entry (drain/shutdown): each key's
        waiters get ``error_factory(key)``. Returns entries aborted."""
        return sum(self.reject(key, error_factory(key))
                   for key in list(self._inflight))

    def observe_run_seconds(self, seconds: float) -> None:
        """Fold one completed run's service time into the EWMA.
        Non-positive samples are logged and counted, never folded in:
        they would make ``Retry-After`` lie to clients."""
        if seconds <= 0:
            self.ewma_rejected_samples += 1
            if self.on_rejected_sample is not None:
                self.on_rejected_sample()
            log.warning(
                "refusing non-positive service-time sample %.6fs "
                "(%d refused so far); check the caller's clock",
                seconds, self.ewma_rejected_samples)
            return
        self.ewma_run_s += EWMA_ALPHA * (seconds - self.ewma_run_s)

    def close(self) -> None:
        """Stop admitting; wake the dispatcher so it can drain + exit."""
        self._closed = True
        self._wakeup.set()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The ``queue`` and ``coalescing`` blocks of ``/healthz``."""
        return {
            "queue": {
                "depth": len(self._pending),
                "limit": self.limit,
                "peak_depth": self.peak_depth,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "ewma_run_s": round(self.ewma_run_s, 3),
                "ewma_rejected_samples": self.ewma_rejected_samples,
                "retry_after_cap_s": RETRY_AFTER_CAP_S,
                "retry_after_clamped": self.retry_after_clamped,
                "closed": self._closed,
            },
            "coalescing": {
                "inflight": len(self._inflight),
                "peak_inflight": self.peak_inflight,
                "leaders": self.admitted,
                "followers": self.followers,
                "cancelled_waiters": self.cancelled_waiters,
            },
        }
