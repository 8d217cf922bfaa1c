"""Deterministic fault injection for chaos testing.

The experiment engine claims to survive worker crashes, hangs, broken
pools and cache I/O errors. Those paths only count as *built* if a test
can drive them on demand — so the library ships instrumented injection
points, and this module decides when they fire.

A fault plan is a list of :class:`FaultSpec`. Install one either

* programmatically (same process)::

      install_faults([FaultSpec(point="cache_put", mode="error")])

* or through the ``REPRO_FAULTS`` environment variable (JSON), which is
  how faults reach engine *worker processes* — workers inherit the
  parent's environment when they are forked, and each worker evaluates
  the plan independently. A long-lived pool (the service gateway's)
  forks its workers on the first cold dispatch and keeps them, with
  their own ``nth`` / ``times`` counters, until shutdown: set the plan
  before the gateway's first cold request::

      REPRO_FAULTS='[{"point": "worker_run", "mode": "crash",
                      "match": "lbm_m/fpb"}]'

Injection points wired into the library (each passes a ``key`` the
spec's ``match`` substring selects on; :data:`POINTS` lists them, and a
spec naming any other point is rejected):

=============== ===================================== ==================
point           fires from                            key
=============== ===================================== ==================
``worker_run``  engine worker, before the run         ``workload/scheme/fingerprint``
``cache_put``   :meth:`SimCache.put`, before writing  cache key (fingerprint)
``cache_corrupt`` :meth:`SimCache.put`, on the bytes  cache key (fingerprint)
``explore_point`` :class:`~repro.explore.session.     ``session:fingerprint``
                ExploreSession`, before each point
                is evaluated (kills an exploration
                mid-session; the rerun test reads
                its points from the run cache)
=============== ===================================== ==================

Determinism: firing depends only on the plan and the sequence of
matching calls in the evaluating process (``nth``/``times`` counters are
per-process; a ``stamp`` file makes a fault fire exactly once across
*all* processes). Nothing here consults clocks or randomness, so a
chaos test replays identically.

When no plan is installed and ``REPRO_FAULTS`` is unset, every
injection point reduces to one dict lookup — the harness is safe to
leave compiled into production paths.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

#: Environment variable carrying a JSON fault plan into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: The injection points wired into the library (the table above).
POINTS = ("worker_run", "cache_put", "cache_corrupt", "explore_point")

#: Exception types a ``mode="error"`` spec may raise, by name. Kept to a
#: closed set so a fault plan can never name arbitrary code.
_ERROR_TYPES = {
    "OSError": OSError,
    "MemoryError": MemoryError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


def _repro_error_types():
    from .. import errors

    return {
        name: getattr(errors, name)
        for name in ("SimulationError", "WatchdogError", "ExperimentError")
    }


@dataclass
class FaultSpec:
    """One planned fault: where, what, and when it fires.

    ``nth`` is 1-based over *matching* calls in the evaluating process;
    the spec fires on call ``nth`` and, if ``times`` is set, on at most
    ``times`` calls total (``times=None`` keeps firing from ``nth`` on —
    the shape of a deterministically-broken run). A ``stamp`` path turns
    the spec into a cross-process one-shot: it only fires while the file
    does not exist, and creates it immediately before firing.
    """

    point: str
    mode: str = "error"         # error | crash | hang | corrupt
    match: str = ""             # substring of the injection key ("" = all)
    nth: int = 1
    times: Optional[int] = None
    stamp: Optional[str] = None
    error: str = "OSError"      # for mode="error"
    message: str = "injected fault"
    hang_s: float = 3600.0      # for mode="hang"
    exit_code: int = 13         # for mode="crash"

    def __post_init__(self):
        if self.point not in POINTS:
            raise ValueError(f"unknown fault point {self.point!r}; "
                             f"choose from {list(POINTS)}")
        if self.mode not in ("error", "crash", "hang", "corrupt"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.nth < 1:
            raise ValueError(f"nth is 1-based, got {self.nth}")
        if self.mode == "error":
            self.resolve_error()  # fail fast on unknown names

    def resolve_error(self):
        types = dict(_ERROR_TYPES)
        types.update(_repro_error_types())
        try:
            return types[self.error]
        except KeyError:
            raise ValueError(
                f"unknown fault error type {self.error!r}; "
                f"choose from {sorted(types)}"
            ) from None


class _FaultState:
    """A fault plan plus its per-process firing counters."""

    def __init__(self, specs: Sequence[FaultSpec]):
        self.specs = list(specs)
        self.calls = [0] * len(self.specs)
        self.fired = [0] * len(self.specs)

    def due(self, point: str, key: str,
            modes: Tuple[str, ...]) -> Optional[FaultSpec]:
        """The first spec that should fire for this call, advancing the
        counters of every matching spec."""
        due: Optional[FaultSpec] = None
        for i, spec in enumerate(self.specs):
            if (spec.point != point or spec.mode not in modes
                    or spec.match not in key):
                continue
            self.calls[i] += 1
            if self.calls[i] < spec.nth:
                continue
            if spec.times is not None and self.fired[i] >= spec.times:
                continue
            if spec.stamp is not None and not _claim_stamp(spec.stamp):
                continue
            self.fired[i] += 1
            if due is None:
                due = spec
        return due


def _claim_stamp(path: str) -> bool:
    """Atomically create the stamp file; False if it already exists
    (some process already fired this spec)."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


_installed: Optional[_FaultState] = None
#: Parsed-plan cache keyed by the raw env value, so unchanged
#: environments cost one dict lookup per injection call.
_env_cache: Tuple[Optional[str], Optional[_FaultState]] = (None, None)


def install_faults(specs: Optional[Sequence[FaultSpec]]) -> None:
    """Install a fault plan in this process (overrides ``REPRO_FAULTS``).
    ``None`` removes it."""
    global _installed
    _installed = _FaultState(specs) if specs is not None else None


def clear_faults() -> None:
    """Remove any installed plan and drop the env-plan cache (counters
    reset with it)."""
    global _installed, _env_cache
    _installed = None
    _env_cache = (None, None)


def parse_plan(raw: str) -> List[FaultSpec]:
    """Parse a ``REPRO_FAULTS`` JSON value into specs."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_VAR} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"{ENV_VAR} must be a JSON list of fault specs")
    known = {f.name for f in fields(FaultSpec)}
    specs = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ValueError(f"fault spec must be an object: {entry!r}")
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        specs.append(FaultSpec(**entry))
    return specs


def _active() -> Optional[_FaultState]:
    global _env_cache
    if _installed is not None:
        return _installed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _env_cache[0] != raw:
        _env_cache = (raw, _FaultState(parse_plan(raw)))
    return _env_cache[1]


def maybe_inject(point: str, key: str = "") -> None:
    """Fire any due ``error`` / ``crash`` / ``hang`` fault at ``point``.

    No-op (one env lookup) when no plan is active. ``corrupt``-mode
    specs are handled by :func:`corrupt_payload` instead.
    """
    state = _active()
    if state is None:
        return
    spec = state.due(point, key, ("error", "crash", "hang"))
    if spec is None:
        return
    if spec.mode == "crash":
        # A hard worker death: skips atexit/finally, exactly like a
        # segfault or OOM kill from the supervisor's point of view.
        os._exit(spec.exit_code)
    if spec.mode == "hang":
        time.sleep(spec.hang_s)
        return
    raise spec.resolve_error()(f"{spec.message} [{point}:{key[:24]}]")


def corrupt_payload(point: str, key: str, payload: bytes) -> bytes:
    """Return ``payload`` with its last byte flipped if a
    ``corrupt``-mode fault is due at ``point``, else unchanged."""
    state = _active()
    if state is None or not payload:
        return payload
    spec = state.due(point, key, ("corrupt",))
    if spec is None:
        return payload
    return payload[:-1] + bytes([payload[-1] ^ 0xFF])
