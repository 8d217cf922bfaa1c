"""Supervision policy: classification, deterministic backoff, quarantine.

Pure-policy tests — no process pool. The engine's behaviour under real
crashed/hung workers lives in ``tests/integration/test_fault_tolerance``.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import pytest

from repro.errors import SimulationError, WatchdogError, WorkerTimeoutError
from repro.experiments.resilience import (
    DETERMINISTIC,
    FAIL,
    QUARANTINE,
    RETRY,
    TRANSIENT,
    RetryPolicy,
    RunSupervisor,
    backoff_delay,
    classify_failure,
    failure_signature,
)


@dataclass(frozen=True)
class FakeRequest:
    """The three fields the supervisor reads off a RunRequest."""

    fingerprint: str = "f" * 64
    workload: str = "tig_m"
    scheme: str = "fpb"


class TestClassification:
    @pytest.mark.parametrize("exc", [
        BrokenProcessPool("a worker died"),
        WorkerTimeoutError("abandoned after 30s"),
        OSError("I/O weather"),
        MemoryError(),
        EOFError(),
        TimeoutError(),
        ConnectionResetError(),
    ])
    def test_transient(self, exc):
        assert classify_failure(exc) == TRANSIENT

    @pytest.mark.parametrize("exc", [
        SimulationError("invariant violated"),
        # The simulator's livelock watchdog counts dispatches, so it
        # recurs identically: deterministic, headed for quarantine.
        WatchdogError("no forward progress"),
        ValueError("bad input"),
        ZeroDivisionError(),
    ])
    def test_deterministic(self, exc):
        assert classify_failure(exc) == DETERMINISTIC

    def test_signature_is_type_and_message(self):
        assert failure_signature(ValueError("boom")) == "ValueError: boom"
        assert (failure_signature(ValueError("boom"))
                != failure_signature(ValueError("bang")))
        assert (failure_signature(OSError("x"))
                != failure_signature(ValueError("x")))


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"deterministic_attempts": 0},
        {"run_timeout_s": 0.0},
        {"run_timeout_s": -1.0},
        {"max_pool_respawns": -1},
    ])
    def test_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_reproducible_from_fingerprint(self):
        """The satellite claim: same fingerprint + attempt = same delay,
        across supervisor instances and runs — no clocks, no RNG."""
        policy = RetryPolicy()
        for attempt in (1, 2, 3):
            assert (backoff_delay("a" * 64, attempt, policy)
                    == backoff_delay("a" * 64, attempt, policy))

    def test_jitter_varies_across_fingerprints(self):
        policy = RetryPolicy()
        delays = {backoff_delay(f"fp{i}", 1, policy) for i in range(16)}
        assert len(delays) == 16  # hash-derived: all distinct

    def test_exponential_then_capped(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.4,
                             jitter=0.0)
        assert backoff_delay("x", 1, policy) == pytest.approx(0.1)
        assert backoff_delay("x", 2, policy) == pytest.approx(0.2)
        assert backoff_delay("x", 3, policy) == pytest.approx(0.4)
        assert backoff_delay("x", 9, policy) == pytest.approx(0.4)

    def test_jitter_bounded_by_policy_fraction(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=1.0,
                             jitter=0.5)
        for i in range(32):
            delay = backoff_delay(f"fp{i}", 1, policy)
            assert 1.0 <= delay <= 1.5

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay("z", 0, RetryPolicy())


class TestSupervisor:
    def test_transient_retries_until_budget_then_fails(self):
        sup = RunSupervisor(RetryPolicy(max_attempts=3))
        req = FakeRequest()
        v1, d1 = sup.on_failure(req, OSError("flaky"))
        assert (v1, d1) == (RETRY, backoff_delay(req.fingerprint, 1,
                                                 sup.policy))
        v2, d2 = sup.on_failure(req, OSError("flaky"))
        assert v2 == RETRY
        assert d2 > d1  # exponential: attempt 2's floor beats 1's ceiling
        v3, d3 = sup.on_failure(req, OSError("flaky"))
        assert (v3, d3) == (FAIL, None)
        assert sup.attempts(req.fingerprint) == 3
        assert sup.retries == 2
        [failure] = sup.failed
        assert failure.verdict == FAIL
        assert failure.failure_class == TRANSIENT
        assert failure.attempts == 3
        assert sup.quarantined == []

    def test_transient_never_quarantines_on_identical_signature(self):
        """An identical transient failure (same disk error twice) is
        environment, not a property of the run — keep retrying."""
        sup = RunSupervisor(RetryPolicy(max_attempts=4))
        req = FakeRequest()
        for _ in range(3):
            verdict, _ = sup.on_failure(req, OSError("disk full"))
            assert verdict == RETRY
        verdict, _ = sup.on_failure(req, OSError("disk full"))
        assert verdict == FAIL

    def test_deterministic_identical_twice_quarantines(self):
        sup = RunSupervisor(RetryPolicy())
        req = FakeRequest()
        v1, _ = sup.on_failure(req, ValueError("same bug"))
        assert v1 == RETRY  # one confirmation retry
        v2, d2 = sup.on_failure(req, ValueError("same bug"))
        assert (v2, d2) == (QUARANTINE, None)
        [failure] = sup.quarantined
        assert failure.failure_class == DETERMINISTIC
        assert failure.attempts == 2
        assert sup.failed == []

    def test_deterministic_distinct_signatures_fail_at_budget(self):
        """Two *different* deterministic errors are not 'the same bug
        twice' — the attempt budget decides, and the verdict is a plain
        fail, not quarantine."""
        sup = RunSupervisor(RetryPolicy(deterministic_attempts=2))
        req = FakeRequest()
        assert sup.on_failure(req, ValueError("first"))[0] == RETRY
        verdict, _ = sup.on_failure(req, ValueError("second"))
        assert verdict == FAIL
        assert sup.quarantined == []

    def test_runs_tracked_independently(self):
        sup = RunSupervisor(RetryPolicy(max_attempts=2))
        a = FakeRequest(fingerprint="a" * 64)
        b = FakeRequest(fingerprint="b" * 64, scheme="ideal")
        assert sup.on_failure(a, OSError("x"))[0] == RETRY
        assert sup.on_failure(b, OSError("x"))[0] == RETRY
        assert sup.on_failure(a, OSError("x"))[0] == FAIL
        assert sup.attempts(b.fingerprint) == 1  # b unaffected by a

    def test_terminal_failure_record_shape(self):
        """as_record() is what lands in the manifest (``run_failure``)
        and in ``execute_plan``'s summary — pin the schema."""
        sup = RunSupervisor(RetryPolicy(max_attempts=1))
        req = FakeRequest()
        verdict, _ = sup.on_failure(req, OSError("boom"))
        assert verdict == FAIL
        assert sup.failures[0].as_record() == {
            "fingerprint": req.fingerprint,
            "workload": "tig_m",
            "scheme": "fpb",
            "error": "boom",
            "error_type": "OSError",
            "failure_class": TRANSIENT,
            "attempts": 1,
            "verdict": FAIL,
        }

