"""Unit tests for :mod:`repro.util.seeds`.

The module's whole value is *byte-compatibility*: every site that used
to hand-roll its own sha256-to-number recipe now derives through one
canonical layout, and that layout must reproduce the historical values
exactly — the backoff jitter is part of recorded retry schedules.
"""

from __future__ import annotations

import hashlib

from repro.experiments.resilience import RetryPolicy, backoff_delay
from repro.util.seeds import (
    derive_fraction,
    derive_key,
    derive_seed,
    stable_digest,
)


class TestCanonicalLayout:
    def test_parts_are_stringified_and_colon_joined(self):
        assert (stable_digest("a", 1, 2.5)
                == hashlib.sha256(b"a:1:2.5").digest())

    def test_single_part(self):
        assert stable_digest("x") == hashlib.sha256(b"x").digest()

    def test_distinct_inputs_distinct_digests(self):
        assert stable_digest("a", "b") != stable_digest("ab")
        assert stable_digest("a", 1) != stable_digest("a", 2)

    def test_deterministic_across_calls(self):
        assert stable_digest("k", 7) == stable_digest("k", 7)


class TestDeriveKey:
    def test_matches_historical_golden_ranking(self):
        # The canonical layout: the hex sha256 of "seed:fingerprint".
        seed, fingerprint = 42, "deadbeef" * 8
        expected = hashlib.sha256(
            f"{seed}:{fingerprint}".encode()).hexdigest()
        assert derive_key(seed, fingerprint) == expected

    def test_is_hex_of_digest(self):
        assert derive_key("a", 1) == stable_digest("a", 1).hex()


class TestDeriveFraction:
    def test_matches_historical_backoff_jitter(self):
        # resilience.backoff_delay derived its jitter fraction from the
        # first 8 bytes of sha256("fingerprint:attempt"), big-endian,
        # over 2**64.
        fingerprint, attempt = "abc123", 3
        digest = hashlib.sha256(
            f"{fingerprint}:{attempt}".encode()).digest()
        expected = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        assert derive_fraction(fingerprint, attempt) == expected

    def test_in_unit_interval(self):
        for i in range(64):
            assert 0.0 <= derive_fraction("fp", i) < 1.0


class TestDeriveSeed:
    def test_is_64_bit(self):
        for i in range(64):
            assert 0 <= derive_seed("space", "grid", i) < 2 ** 64

    def test_consistent_with_fraction(self):
        assert (derive_seed("x", 1) / float(2 ** 64)
                == derive_fraction("x", 1))


class TestCallSitesUnchanged:
    """The refactored call sites still produce the historical values."""

    def test_backoff_delay_formula(self):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=2.0,
                             jitter=0.5)
        fingerprint = "f" * 64
        for attempt in (1, 2, 5):
            base = min(0.05 * (2 ** (attempt - 1)), 2.0)
            digest = hashlib.sha256(
                f"{fingerprint}:{attempt}".encode()).digest()
            jitter = int.from_bytes(digest[:8], "big") / float(2 ** 64)
            assert backoff_delay(fingerprint, attempt, policy) == (
                base * (1.0 + 0.5 * jitter))
