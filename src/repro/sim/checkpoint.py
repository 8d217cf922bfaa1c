"""Checkpoint/resume capsules for long-horizon simulations.

A run that dies at 99% used to restart from write 0. This module gives
the simulator durable mid-run state: every ``checkpoint_every_writes``
completed writes, a :class:`Checkpointer` (installed as the engine's
after-event hook) pickles the entire simulation object graph via
:meth:`SimEngine.snapshot` and stores it as a *capsule* under the
cache directory (``.simcache/ckpt/`` by default). On retry — after a
worker crash, a watchdog kill, or a transient error — the runner loads
the latest valid capsule for the run's fingerprint and continues from
that event boundary instead of re-executing from scratch.

Determinism is the whole point: a capsule is taken *between* two event
callbacks, where the heap plus object graph (queues, banks, token
pools, RNG streams, stats) is a complete description of the run, so a
resumed simulation replays the exact event sequence an uninterrupted
one would and produces a byte-identical :class:`SimResult`. The
differential and chaos suites enforce this against the golden
fingerprint corpus for both kernels.

Capsules follow the :class:`~repro.sim.simcache.SimCache` trust model —
they are self-verifying and best-effort:

* file layout ``<root>/<aa>/<fingerprint>/<writes>-<cycle>.ckpt``; the
  file is a one-line JSON header (for cheap progress peeks) followed by
  a pickled record embedding :data:`CKPT_SCHEMA_VERSION`,
  :data:`SIM_SCHEMA_VERSION` and the fingerprint, sealed behind its
  SHA-256 digest like a cache entry (:func:`~repro.sim.simcache.seal`).
  A truncated, corrupted, mis-keyed or stale-schema capsule is detected
  on load, deleted, and the run restarts clean from write 0 — never
  resumed blindly;
* writes are atomic (:func:`~repro.sim.simcache.write_atomic`) and
  *best-effort*: a failing disk degrades checkpointing, not the run;
* the store keeps the newest :attr:`CheckpointStore.keep_per_run`
  capsules per fingerprint and drops a run's capsules once it
  completes, so healthy runs leave nothing behind (``repro.experiments
  checkpoints list|gc`` handles orphans from abandoned runs).

Fault-injection points (see :mod:`repro.testing.faults`): ``ckpt_put``
fires before a capsule is written (``crash`` there kills a worker at a
checkpoint boundary), ``ckpt_corrupt`` flips payload bytes, and
``sim_progress`` fires once per completed write between boundaries
(key ``fingerprint:writes_done``), so chaos tests can kill a run at an
exact mid-interval write.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs.logging import get_logger
from ..testing.faults import corrupt_payload, maybe_inject
from .events import SimEngine
from .simcache import (
    DEFAULT_CACHE_DIR,
    SIM_SCHEMA_VERSION,
    seal,
    unseal,
    write_atomic,
)

log = get_logger("sim.checkpoint")

#: Version of the capsule format *and* of the snapshotted object graph's
#: layout. Bump whenever either changes shape (renamed attributes,
#: different refs, new pickle contract): stale capsules must never be
#: resumed into newer code, they are discarded and the run restarts.
CKPT_SCHEMA_VERSION = 2

#: Default capsule root, next to the result cache's entries.
DEFAULT_CKPT_DIR = str(Path(DEFAULT_CACHE_DIR) / "ckpt")


@dataclass
class Capsule:
    """One validated snapshot, ready to hand to :meth:`SimEngine.restore`."""

    fingerprint: str
    cycle: int
    writes_done: int
    state: bytes


class CheckpointStore:
    """Self-verifying, best-effort capsule store under ``root``."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CKPT_DIR,
                 keep_per_run: int = 2):
        self.root = Path(root)
        #: Newest capsules retained per fingerprint. Two, not one: the
        #: previous boundary stays resumable while the newest is being
        #: proven (a capsule that itself triggers the crash — bad disk
        #: sector, poisoned state — must not be the only fallback).
        self.keep_per_run = max(1, keep_per_run)
        self.stores = 0
        self.store_errors = 0
        self.loads = 0
        self.corrupt = 0
        self.discards = 0

    def dir_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / fingerprint

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(self, fingerprint: str, state: bytes, *,
            cycle: int, writes_done: int) -> Optional[Path]:
        """Atomically store a capsule; returns its path or ``None``.

        Best-effort like :meth:`SimCache.put`: an ``OSError`` is logged
        and counted, never raised — losing a checkpoint only costs
        re-execution time on the next failure, not correctness.
        """
        payload = pickle.dumps(
            {
                "schema": CKPT_SCHEMA_VERSION,
                "sim_schema": SIM_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "cycle": int(cycle),
                "writes_done": int(writes_done),
                "state": state,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        header = json.dumps(
            {
                "schema": CKPT_SCHEMA_VERSION,
                "sim_schema": SIM_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "cycle": int(cycle),
                "writes_done": int(writes_done),
                "bytes": len(payload),
            },
            sort_keys=True,
        ).encode("utf-8")
        blob = corrupt_payload("ckpt_corrupt", fingerprint, seal(payload))
        directory = self.dir_for(fingerprint)
        path = directory / f"{writes_done:012d}-{cycle:015d}.ckpt"
        try:
            maybe_inject("ckpt_put", key=f"{fingerprint}:{writes_done}")
            directory.mkdir(parents=True, exist_ok=True)
            write_atomic(path, header + b"\n" + blob)
        except OSError as exc:
            self.store_errors += 1
            log.warning(
                "checkpoint store failed for %s… @ write %d (%s: %s) — "
                "continuing without this capsule", fingerprint[:12],
                writes_done, type(exc).__name__, exc)
            return None
        self.stores += 1
        self._prune(fingerprint, keep=self.keep_per_run)
        return path

    def _capsule_paths(self, fingerprint: str) -> List[Path]:
        """Capsule files for one run, oldest first (filename-ordered:
        the zero-padded ``writes-cycle`` name sorts by progress)."""
        try:
            return sorted(self.dir_for(fingerprint).glob("*.ckpt"))
        except OSError:
            return []

    def _prune(self, fingerprint: str, *, keep: int) -> None:
        for stale in self._capsule_paths(fingerprint)[:-keep or None]:
            try:
                stale.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latest(self, fingerprint: str) -> Optional[Capsule]:
        """The newest *valid* capsule for ``fingerprint``, or ``None``.

        Candidates are tried newest-first; any integrity failure
        (truncation, digest mismatch, schema or fingerprint mismatch)
        deletes that capsule and falls back to the next older one —
        worst case the run restarts from write 0, which is always safe.
        """
        for path in reversed(self._capsule_paths(fingerprint)):
            capsule = self._decode(path, fingerprint)
            if capsule is not None:
                self.loads += 1
                return capsule
            self.corrupt += 1
            log.warning("discarding invalid checkpoint capsule %s", path)
            try:
                path.unlink()
            except OSError:
                pass
        return None

    def latest_meta(self, fingerprint: str) -> Optional[dict]:
        """The newest capsule's JSON header (cheap: reads one line, no
        digest check or unpickle) — for progress display only, never for
        resuming."""
        for path in reversed(self._capsule_paths(fingerprint)):
            try:
                with path.open("rb") as handle:
                    line = handle.readline(65536)
                meta = json.loads(line.decode("utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(meta, dict) and meta.get("fingerprint") == fingerprint:
                return meta
        return None

    def progress(self, fingerprint: str) -> Optional[int]:
        """Writes completed by the run's newest capsule, or ``None``:
        a cheap header read, so a lying header can misjudge retry budget
        but never correctness (resuming fully validates)."""
        meta = self.latest_meta(fingerprint)
        writes_done = meta.get("writes_done") if meta is not None else None
        return writes_done if isinstance(writes_done, int) else None

    def _decode(self, path: Path, fingerprint: str) -> Optional[Capsule]:
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        newline = raw.find(b"\n")
        if newline < 0:
            return None
        payload = unseal(raw[newline + 1:])
        if payload is None:
            return None
        try:
            record = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(record, dict):
            return None
        if record.get("schema") != CKPT_SCHEMA_VERSION:
            return None
        if record.get("sim_schema") != SIM_SCHEMA_VERSION:
            return None
        if record.get("fingerprint") != fingerprint:
            return None
        state = record.get("state")
        if not isinstance(state, bytes):
            return None
        return Capsule(
            fingerprint=fingerprint,
            cycle=int(record.get("cycle", 0)),
            writes_done=int(record.get("writes_done", 0)),
            state=state,
        )

    # ------------------------------------------------------------------
    # Lifecycle / tooling
    # ------------------------------------------------------------------
    def discard(self, fingerprint: str) -> int:
        """Drop every capsule for a run (it completed, or its capsules
        are known bad). Returns the number of files removed."""
        removed = 0
        directory = self.dir_for(fingerprint)
        for path in self._capsule_paths(fingerprint):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # Prune the run dir and its now-possibly-empty shard dir so a
        # healthy run leaves no trace at all; rmdir refuses non-empty.
        for leftover in (directory, directory.parent):
            if leftover == self.root:
                break
            try:
                leftover.rmdir()
            except OSError:
                break
        if removed:
            self.discards += removed
        return removed

    def runs(self) -> List[Dict[str, object]]:
        """One summary per checkpointed run (for ``checkpoints list``)."""
        out: List[Dict[str, object]] = []
        if not self.root.is_dir():
            return out
        for directory in sorted(self.root.glob("*/*")):
            if not directory.is_dir():
                continue
            fingerprint = directory.name
            paths = self._capsule_paths(fingerprint)
            if not paths:
                continue
            meta = self.latest_meta(fingerprint) or {}
            total = 0
            mtime = 0.0
            for path in paths:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                total += stat.st_size
                mtime = max(mtime, stat.st_mtime)
            out.append({
                "fingerprint": fingerprint,
                "capsules": len(paths),
                "bytes": total,
                "mtime": mtime,
                "writes_done": meta.get("writes_done"),
                "cycle": meta.get("cycle"),
                "schema": meta.get("schema"),
            })
        return out

    def gc(self, *, completed: Optional[Callable[[str], bool]] = None,
           drop_all: bool = False) -> Dict[str, int]:
        """Remove capsules that can never be resumed: invalid files,
        stale-schema runs, and (when ``completed`` says so) runs whose
        result already sits in the cache. ``drop_all`` clears
        everything. Returns removal counts."""
        summary = {"runs_scanned": 0, "runs_removed": 0, "files_removed": 0}
        for entry in self.runs():
            fingerprint = str(entry["fingerprint"])
            summary["runs_scanned"] += 1
            stale = entry["schema"] != CKPT_SCHEMA_VERSION
            done = completed(fingerprint) if completed is not None else False
            if drop_all or stale or done:
                removed = self.discard(fingerprint)
                summary["runs_removed"] += 1
                summary["files_removed"] += removed
                continue
            # Still live: revalidate lazily by peeking at the newest
            # capsule; latest() unlinks any damaged ones it skips.
            if self.latest(fingerprint) is None:
                self.discard(fingerprint)
                summary["runs_removed"] += 1
        return summary

    def snapshot(self) -> dict:
        """Counter snapshot for manifests/logging."""
        return {
            "root": str(self.root),
            "stores": self.stores,
            "store_errors": self.store_errors,
            "loads": self.loads,
            "corrupt": self.corrupt,
            "discards": self.discards,
        }

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({self.root}, stores={self.stores}, "
            f"loads={self.loads}, corrupt={self.corrupt})"
        )


@dataclass
class CheckpointPlan:
    """Everything the runner needs to checkpoint (and resume) one run."""

    store: CheckpointStore
    fingerprint: str
    every_writes: int

    def __post_init__(self):
        if self.every_writes <= 0:
            raise ValueError(
                f"checkpoint_every_writes must be positive: "
                f"{self.every_writes}"
            )


class Checkpointer:
    """The engine's after-event hook: capsules the run every
    ``every_writes`` completed writes.

    Progress is measured in *completed trace writes* (``stats.
    writes_done``), not cycles or events, so the boundary is meaningful
    across workloads and matches how run length is specified
    (``n_pcm_writes``). The hook reads state and writes files; it never
    schedules events or mutates the graph, so enabling checkpointing
    cannot change simulation results.
    """

    def __init__(self, plan: CheckpointPlan, engine: SimEngine,
                 refs: Dict[str, object], telemetry=None):
        self.plan = plan
        self.engine = engine
        self.refs = refs
        self.telemetry = telemetry
        self.stats = refs["stats"]
        self.saved = 0
        self._last_writes = self.stats.writes_done
        self._next_due = self.stats.writes_done + plan.every_writes

    def __call__(self, now: int) -> None:
        writes = self.stats.writes_done
        if writes == self._last_writes:
            return
        self._last_writes = writes
        maybe_inject(
            "sim_progress", key=f"{self.plan.fingerprint}:{writes}"
        )
        if writes < self._next_due:
            return
        self.save(now, writes)

    def save(self, now: int, writes: int) -> Optional[Path]:
        state = self._capture()
        path = self.plan.store.put(
            self.plan.fingerprint, state, cycle=now, writes_done=writes,
        )
        self._next_due = writes + self.plan.every_writes
        if path is not None:
            self.saved += 1
            if self.telemetry is not None:
                self.telemetry.record_checkpoint(
                    action="save", fingerprint=self.plan.fingerprint,
                    writes_done=writes, cycle=now, path=str(path),
                )
        return path

    def _capture(self) -> bytes:
        """Snapshot with telemetry observers detached: ``obs`` handles
        hold tracers, file sinks and callbacks — transient, unpicklable,
        and reattached fresh on resume."""
        mem = self.refs["mem"]
        manager = self.refs["manager"]
        mem_obs, manager_obs = mem.obs, manager.obs
        mem.obs = None
        manager.obs = None
        try:
            return self.engine.snapshot(self.refs)
        finally:
            mem.obs = mem_obs
            manager.obs = manager_obs
