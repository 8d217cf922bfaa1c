"""Deterministic seed/key derivation from fingerprints.

Several subsystems need a *derived* pseudo-random quantity that is
(a) stable across processes and platforms, (b) uncorrelated between
different inputs, and (c) reproducible from the inputs alone — no
clocks, no global RNG state:

* retry backoff jitter (:func:`repro.experiments.resilience.
  backoff_delay`) de-synchronizes concurrent retries while keeping a
  plan's retry schedule bit-reproducible;
* explore strategies (:mod:`repro.explore.strategies`) seed their
  sampling from ``(space, strategy, seed)``, and explore spaces and
  sessions take their identities from :func:`derive_key`.

Before this module each site hand-rolled its own ``sha256``-to-number
recipe; they all derive through here now, from one canonical byte
layout: the parts are stringified with ``str`` and joined with ``":"``
(so ``derive_*("a", 1)`` hashes the bytes ``b"a:1"``), then digested
with SHA-256. The layout is part of the on-disk/manifest compatibility
surface — :func:`derive_fraction` reproduces the historical backoff
jitter byte-for-byte — so changing it invalidates recorded schedules
and identities.

For *simulation* random streams (numpy generators) use
:func:`repro.rng.make_rng`, which layers SeedSequence spawning on top;
this module covers the scalar hash-derived side only.
"""

from __future__ import annotations

import hashlib


def stable_digest(*parts: object) -> bytes:
    """SHA-256 digest of the canonical ``":"``-joined part encoding."""
    blob = ":".join(str(part) for part in parts)
    return hashlib.sha256(blob.encode("utf-8")).digest()


def derive_key(*parts: object) -> str:
    """A stable 64-hex-char identity key for the parts: the hex
    SHA-256 of their canonical encoding."""
    return stable_digest(*parts).hex()


def derive_fraction(*parts: object) -> float:
    """A uniform fraction in ``[0, 1)`` derived from the parts.

    Uses the first 8 digest bytes as a big-endian integer over
    ``2**64``; ``derive_fraction(fingerprint, attempt)`` reproduces the
    engine's historical backoff jitter exactly.
    """
    return int.from_bytes(stable_digest(*parts)[:8], "big") / float(2 ** 64)


def derive_seed(*parts: object) -> int:
    """A 64-bit integer seed derived from the parts, suitable for
    ``random.Random`` / ``numpy`` seeding."""
    return int.from_bytes(stable_digest(*parts)[:8], "big")
