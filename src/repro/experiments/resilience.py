"""Failure supervision policy for the experiment engine.

The engine (:mod:`repro.experiments.engine`) treats every planned run
as a supervised unit of work. This module holds the policy side of that
supervision — pure, deterministic, and testable without a process pool:

* **Classification** (:func:`classify_failure`): *transient* failures
  (a worker killed under the pool, a watchdog timeout, an I/O error)
  are worth retrying; *deterministic* failures (a simulation invariant
  violation) will recur on identical inputs, so they get at most one
  confirmation retry.
* **Backoff** (:func:`backoff_delay`): exponential in the attempt
  number, with jitter derived from the run *fingerprint* — so delays
  de-synchronize across runs yet are bit-reproducible for a given plan
  (no clocks, no RNG).
* **Quarantine** (:class:`RunSupervisor`): a run that fails
  deterministically with the *same signature twice* is quarantined —
  no further compute is spent on it, and it is marked distinctly in
  the summary and manifest so reruns can triage it.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import WorkerTimeoutError
from ..util.seeds import derive_fraction

#: Failure classes.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Supervisor verdicts.
RETRY = "retry"
FAIL = "fail"
QUARANTINE = "quarantine"

#: Exception types whose recurrence is environmental, not a property of
#: the run's inputs. ``WorkerTimeoutError`` is the engine's wall-clock
#: abandonment; ``OSError`` covers the I/O weather a shared cache
#: directory lives in. The simulator's own ``WatchdogError`` (livelock)
#: is deliberately *not* here: it counts event dispatches, so it recurs
#: identically and should be quarantined, not retried.
_TRANSIENT_TYPES: Tuple[type, ...] = (
    BrokenProcessPool,
    WorkerTimeoutError,
    TimeoutError,
    ConnectionError,
    EOFError,
    MemoryError,
    OSError,
)


def classify_failure(exc: BaseException) -> str:
    """``transient`` if retrying the identical run can plausibly
    succeed, else ``deterministic``."""
    return TRANSIENT if isinstance(exc, _TRANSIENT_TYPES) else DETERMINISTIC


def failure_signature(exc: BaseException) -> str:
    """Stable identity of a failure: the exception type and message.

    Two failures with equal signatures are treated as "the same bug";
    recurrence under the deterministic class triggers quarantine.
    """
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the supervisor's patience."""

    #: Total attempts for a transiently-failing run (1 = no retry).
    max_attempts: int = 3
    #: Total attempts for a deterministically-failing run. The default
    #: (2) grants one confirmation retry; the identical-signature rule
    #: usually quarantines before this is exhausted.
    deterministic_attempts: int = 2
    #: Exponential backoff: ``base * 2**(attempt-1)``, capped.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Fraction of the backoff added as fingerprint-derived jitter.
    jitter: float = 0.5
    #: Per-run wall-clock budget on a worker; ``None`` disables the
    #: engine's hang watchdog.
    run_timeout_s: Optional[float] = None
    #: How many times the engine may rebuild a broken/abandoned pool
    #: before failing everything still outstanding.
    max_pool_respawns: int = 5

    def __post_init__(self):
        if self.max_attempts < 1 or self.deterministic_attempts < 1:
            raise ValueError("attempt budgets must be >= 1")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")


def backoff_delay(fingerprint: str, attempt: int,
                  policy: RetryPolicy) -> float:
    """Delay before retry number ``attempt`` (1-based: the delay after
    the first failure is ``attempt=1``).

    Deterministic jitter: the fractional part comes from
    :func:`repro.util.seeds.derive_fraction` over ``(fingerprint,
    attempt)``, so concurrent retries of different runs spread out,
    while re-running the same plan reproduces the exact same schedule.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    base = min(policy.backoff_base_s * (2 ** (attempt - 1)),
               policy.backoff_cap_s)
    return base * (1.0 + policy.jitter * derive_fraction(fingerprint,
                                                         attempt))


@dataclass
class RunFailure:
    """One failed attempt (or the terminal failure) of a planned run."""

    fingerprint: str
    workload: str
    scheme: str
    error: str
    error_type: str
    failure_class: str
    attempts: int
    verdict: str  # retry | fail | quarantine

    def as_record(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "workload": self.workload,
            "scheme": self.scheme,
            "error": self.error,
            "error_type": self.error_type,
            "failure_class": self.failure_class,
            "attempts": self.attempts,
            "verdict": self.verdict,
        }

    def message(self) -> str:
        """The one line a caller of a failed run is told, e.g.
        ``ValueError: boom (quarantine after 2 attempt(s))``."""
        return (f"{self.error_type}: {self.error} "
                f"({self.verdict} after {self.attempts} attempt(s))")


class RunSupervisor:
    """Per-run attempt accounting and retry/quarantine verdicts.

    The engine reports every failed attempt through :meth:`on_failure`
    and obeys the verdict. The supervisor never touches the pool — it
    only decides; terminal failures accumulate in :attr:`failures`.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None):
        self.policy = policy or RetryPolicy()
        self._attempts: Dict[str, int] = {}
        self._signatures: Dict[str, List[str]] = {}
        #: Terminal failures (verdict ``fail`` or ``quarantine``), in
        #: the order they became terminal.
        self.failures: List[RunFailure] = []
        self.retries = 0

    def attempts(self, fingerprint: str) -> int:
        return self._attempts.get(fingerprint, 0)

    def on_failure(self, request,
                   exc: BaseException) -> Tuple[str, Optional[float]]:
        """Record one failed attempt of ``request`` and decide its fate.
        A retried run re-executes from write 0.

        Returns ``(verdict, delay_s)``: ``("retry", delay)`` with the
        deterministic backoff, or ``("fail" | "quarantine", None)``.
        """
        fp = request.fingerprint
        attempt = self._attempts[fp] = self._attempts.get(fp, 0) + 1
        signature = failure_signature(exc)
        failure_class = classify_failure(exc)
        seen = self._signatures.setdefault(fp, [])
        identical = signature in seen
        seen.append(signature)

        if failure_class == DETERMINISTIC and identical:
            verdict: str = QUARANTINE
        else:
            budget = (self.policy.max_attempts
                      if failure_class == TRANSIENT
                      else self.policy.deterministic_attempts)
            verdict = RETRY if attempt < budget else FAIL

        failure = RunFailure(
            fingerprint=fp,
            workload=request.workload,
            scheme=request.scheme,
            error=str(exc),
            error_type=type(exc).__name__,
            failure_class=failure_class,
            attempts=attempt,
            verdict=verdict,
        )
        if verdict == RETRY:
            self.retries += 1
            return RETRY, backoff_delay(fp, attempt, self.policy)
        self.failures.append(failure)
        return verdict, None

    @property
    def failed(self) -> List[RunFailure]:
        return [f for f in self.failures if f.verdict == FAIL]

    @property
    def quarantined(self) -> List[RunFailure]:
        return [f for f in self.failures if f.verdict == QUARANTINE]
