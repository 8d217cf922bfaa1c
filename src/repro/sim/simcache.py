"""Content-addressed on-disk cache of simulation results.

A run is identified by a :func:`run_fingerprint` — a SHA-256 digest over
the *canonical* form of everything that determines its outcome:

* the full :class:`~repro.config.system.SystemConfig` dataclass tree
  (every leaf field, via :func:`repro.config.system.config_fingerprint`,
  so sweeps over fields a hand-written key would forget can never alias);
* the scheme name and workload name;
* the simulation size (``n_pcm_writes`` / ``max_refs_per_core``);
* :data:`SIM_SCHEMA_VERSION`, bumped whenever the simulator's semantics
  change so stale results from older code are never reused.

:class:`SimCache` stores one pickled :class:`~repro.sim.runner.SimResult`
per fingerprint under ``<root>/<aa>/<fingerprint>.pkl`` (two-level
fan-out keeps directories small). Entries are self-verifying: the file
starts with a SHA-256 digest of the payload (:func:`seal`), and the
payload embeds the fingerprint and schema version. A truncated, corrupted, mis-keyed or stale-schema entry
is detected on load, deleted, and reported as a miss — never
deserialized blindly into an experiment.

Writes are atomic (:func:`write_atomic`), so concurrent processes
sharing one cache directory can race without ever exposing a partial
entry.

Stores are *best-effort*: the cache is an accelerator, not a
correctness dependency, so a failing disk (full, read-only, vanished)
must never abort an experiment. :meth:`SimCache.put` catches
``OSError``, logs a warning, bumps :attr:`SimCache.store_errors`, and
lets the caller keep computing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..config.system import config_fingerprint
from ..obs.logging import get_logger
from ..testing.faults import corrupt_payload, maybe_inject

log = get_logger("sim.simcache")

#: Version of the simulator's result-producing code paths. Bump on any
#: change that can alter a :class:`SimResult` for the same inputs; every
#: cached fingerprint changes with it, invalidating the whole cache.
#: v2: per-write device RNG streams keyed by (seed, core, write index)
#: replaced the shared per-core stream, changing every sampled trace.
SIM_SCHEMA_VERSION = 2

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".simcache"

_DIGEST_BYTES = hashlib.sha256().digest_size


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that a reader sees all of it or no
    file at all, even if the writer dies midway."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def seal(payload: bytes) -> bytes:
    """``payload`` behind its SHA-256 digest: the self-verifying layout
    of cache entries."""
    return hashlib.sha256(payload).digest() + payload


def unseal(blob: bytes) -> Optional[bytes]:
    """The payload :func:`seal` wrapped in ``blob``, or ``None`` when
    the blob is truncated or its digest does not match."""
    digest, payload = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:]
    if not payload or hashlib.sha256(payload).digest() != digest:
        return None
    return payload


def run_fingerprint(config, workload: str, scheme: str, *,
                    n_pcm_writes: int, max_refs_per_core: int) -> str:
    """The content address of one simulation run."""
    blob = repr((
        "repro.sim.run",
        SIM_SCHEMA_VERSION,
        config_fingerprint(config),
        str(workload),
        str(scheme),
        int(n_pcm_writes),
        int(max_refs_per_core),
    ))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SimCache:
    """Content-addressed pickle store for :class:`SimResult` objects."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        # Hit/miss accounting for manifests and logs.
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.store_errors = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """Load the result stored under ``key``, or ``None``.

        Any integrity failure (truncation, bit-rot, key or schema
        mismatch, unpicklable payload) deletes the entry and counts as a
        miss — the caller recomputes and re-stores.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        result = self._decode(raw, key)
        if result is None:
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result) -> bool:
        """Atomically store ``result`` under ``key``, best-effort.

        Returns ``True`` on success. An ``OSError`` (disk full,
        read-only or deleted cache directory, quota) is *not* raised:
        the simulation result is already computed and the cache is only
        an accelerator, so the failure is logged, counted in
        :attr:`store_errors`, and the experiment keeps going.
        """
        payload = pickle.dumps(
            {"schema": SIM_SCHEMA_VERSION, "key": key, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = corrupt_payload("cache_corrupt", key, seal(payload))
        path = self.path_for(key)
        try:
            maybe_inject("cache_put", key=key)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, blob)
        except OSError as exc:
            self.store_errors += 1
            log.warning("cache store failed for %s… (%s: %s) — result "
                        "kept in memory, continuing", key[:12],
                        type(exc).__name__, exc)
            return False
        self.stores += 1
        return True

    @staticmethod
    def _decode(raw: bytes, key: str):
        payload = unseal(raw)
        if payload is None:
            return None
        try:
            record = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(record, dict):
            return None
        if record.get("schema") != SIM_SCHEMA_VERSION or record.get("key") != key:
            return None
        return record.get("result")

    def __contains__(self, key: str) -> bool:
        """True only if an entry with a *valid digest* exists for ``key``.

        The payload digest is verified (without unpickling), so
        ``key in cache`` and ``cache.get(key) is not None`` agree for
        truncated, bit-rotten or garbage files. The residual gap is
        deliberate: a well-checksummed entry written by an older schema
        (or copied under the wrong key) still reports True here but
        loads as a miss — full agreement would require unpickling on
        every membership test. Unlike :meth:`get`, a corrupt entry is
        left in place and no counters move — membership is a read-only
        question.
        """
        try:
            raw = self.path_for(key).read_bytes()
        except OSError:
            return False
        return unseal(raw) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def snapshot(self) -> dict:
        """Counter snapshot for manifests/logging."""
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "store_errors": self.store_errors,
        }

    def __repr__(self) -> str:
        return (
            f"SimCache({self.root}, hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores})"
        )
