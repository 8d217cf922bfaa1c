"""Resumable exploration sessions over the run machinery.

An :class:`ExploreSession` turns a ``(space, strategy, budget, seed)``
tuple into a stream of ordinary fingerprinted runs: each probed point
lowers to a ``RunRequest``, so it inherits the SimCache, the engine's
resilience and cohorts, telemetry and service coverage unchanged. The
session's own state is a **journal** — one JSON line per evaluated
point (mirroring the manifest v9 ``explore_point`` record) in a file
named by the deterministic session id — so a killed exploration
restarts from the journal plus the warm caches and re-executes nothing
it already paid for.

Determinism contract: the session id, the point sequence, and the
frontier are pure functions of the settings and base config. The
report's ``frontier`` entries deliberately omit acquisition ``source``
(memory/disk/computed varies between cold and warm runs) so frontier
reports are byte-identical across re-runs.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..config.system import SystemConfig, config_fingerprint
from ..errors import RunFailedError
from ..experiments.base import (
    QUICK,
    RunRequest,
    RunScale,
    _SIM_CACHE,
    active_disk_cache,
    active_telemetry,
    fetch,
)
from ..experiments.engine import WorkerPool, dedupe_requests, execute_plan
from ..testing.faults import maybe_inject
from ..util.seeds import derive_key
from .pareto import DEFAULT_OBJECTIVES, extract_objectives, pareto_frontier
from .space import ExploreError, Point, SearchSpace
from .strategies import STRATEGIES, make_strategy

#: Journal/report schema version (independent of the manifest's).
EXPLORE_SCHEMA = 1


@dataclass(frozen=True)
class ExploreSettings:
    """Everything that identifies an exploration (and its session id)."""

    space: SearchSpace
    strategy: str = "grid"
    budget_points: int = 60
    seed: int = 1
    workload: str = "mix_1"
    scheme: str = "fpb"
    scale: RunScale = QUICK
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ExploreError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{list(STRATEGIES)}"
            )
        if self.budget_points < 1:
            raise ExploreError(
                f"budget_points must be >= 1, got {self.budget_points}"
            )
        if self.jobs < 1:
            raise ExploreError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class _PointRecord:
    """One evaluated point, as journaled and reported."""

    generation: int
    index: int
    point: Dict[str, object]
    scheme: str
    fingerprint: str
    source: str  # memory | disk | computed | journal | invalid | failed
    objectives: Optional[Dict[str, float]]
    error: Optional[str] = None

    def report_entry(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "index": self.index,
            "point": self.point,
            "scheme": self.scheme,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "objectives": self.objectives,
            "error": self.error,
        }

    def frontier_entry(self) -> Dict[str, object]:
        # No ``source``: frontier reports must be byte-identical
        # between cold and cache-warm runs.
        return {
            "point": self.point,
            "scheme": self.scheme,
            "fingerprint": self.fingerprint,
            "objectives": self.objectives,
        }


class ExploreSession:
    """One deterministic, resumable design-space exploration.

    Each generation's new points are computed by the supervised engine
    on ``pool`` when the caller passes its long-lived
    :class:`~repro.experiments.engine.WorkerPool` (the gateway does),
    else on a private pool of ``settings.jobs`` workers when that is
    more than one, else serially in this process."""

    def __init__(
        self,
        settings: ExploreSettings,
        base_config: Optional[SystemConfig] = None,
        *,
        policy=None,
        journal_dir: Optional[Path] = None,
        registry=None,
        telemetry=None,
        on_event=None,
        pool: Optional[WorkerPool] = None,
    ):
        self.settings = settings
        if base_config is None:
            from ..config.presets import baseline_config
            base_config = baseline_config(seed=1)
        self.base_config = base_config
        self.policy = policy
        self.journal_dir = Path(journal_dir) if journal_dir else None
        self.registry = registry
        self.telemetry = telemetry
        self.on_event = on_event
        self.pool = pool
        self.objectives = DEFAULT_OBJECTIVES
        settings.space.validate(base_config, settings.scheme)
        self.session_id = derive_key(
            "explore.session",
            settings.space.fingerprint(),
            settings.strategy,
            settings.budget_points,
            settings.seed,
            settings.workload,
            settings.scheme,
            settings.scale.n_pcm_writes,
            settings.scale.max_refs_per_core,
            config_fingerprint(base_config),
        )
        self._counters = None
        if registry is not None:
            self._counters = {
                "sessions": registry.counter(
                    "explore_sessions_total",
                    "exploration sessions started"),
                "generations": registry.counter(
                    "explore_generations_total",
                    "strategy generations evaluated"),
                "points": registry.counter(
                    "explore_points_total", "points evaluated"),
                "restored": registry.counter(
                    "explore_points_restored",
                    "points restored from a session journal"),
                "failed": registry.counter(
                    "explore_points_failed",
                    "points whose run failed or did not lower"),
                "cached": registry.counter(
                    "explore_points_cached",
                    "points served from the run caches"),
                "computed": registry.counter(
                    "explore_points_computed", "points freshly simulated"),
            }
            self._frontier_gauge = registry.gauge(
                "explore_frontier_size",
                "current Pareto frontier size")
        else:
            self._frontier_gauge = None

    # -- journal ------------------------------------------------------

    @property
    def journal_path(self) -> Optional[Path]:
        if self.journal_dir is None:
            return None
        return self.journal_dir / f"{self.session_id}.jsonl"

    def _journal_append(self, record: Dict[str, object]) -> None:
        path = self.journal_path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _journal_load(self) -> Dict[str, _PointRecord]:
        """Previously evaluated points, keyed by run fingerprint.
        Tolerates a torn final line (the kill-mid-write case)."""
        path = self.journal_path
        restored: Dict[str, _PointRecord] = {}
        if path is None or not path.exists():
            return restored
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if record.get("type") == "explore_session":
                if record.get("session") != self.session_id:
                    raise ExploreError(
                        f"journal {path} belongs to session "
                        f"{record.get('session')!r}, not "
                        f"{self.session_id!r}"
                    )
                continue
            if record.get("type") != "explore_point":
                continue
            restored[record["run_fingerprint"]] = _PointRecord(
                generation=record["generation"],
                index=record["index"],
                point=record["point"],
                scheme=record["scheme"],
                fingerprint=record["run_fingerprint"],
                source="journal",
                objectives=record["objectives"],
                error=record.get("error"),
            )
        return restored

    # -- telemetry ----------------------------------------------------

    def _emit_point(self, record: _PointRecord) -> None:
        if self.telemetry is not None:
            self.telemetry.record_explore_point(
                session=self.session_id,
                run_fingerprint=record.fingerprint,
                generation=record.generation,
                index=record.index,
                point=record.point,
                scheme=record.scheme,
                source=record.source,
                objectives=record.objectives,
                error=record.error,
            )
        elif self.on_event is not None:
            self.on_event("explore_point", {
                "session": self.session_id,
                "run_fingerprint": record.fingerprint,
                "generation": record.generation,
                "source": record.source,
            })

    def _emit_frontier(self, generation: int,
                       frontier: List[_PointRecord]) -> None:
        points = [r.fingerprint for r in frontier]
        if self.telemetry is not None:
            self.telemetry.record_explore_frontier(
                session=self.session_id,
                generation=generation,
                size=len(frontier),
                points=points,
            )
        elif self.on_event is not None:
            self.on_event("explore_frontier", {
                "session": self.session_id,
                "generation": generation,
                "size": len(frontier),
            })

    # -- execution ----------------------------------------------------

    def run(self, resume: bool = False) -> Dict[str, object]:
        """Execute (or resume) the exploration; returns the report."""
        settings = self.settings
        path = self.journal_path
        restored: Dict[str, _PointRecord] = {}
        if resume:
            restored = self._journal_load()
        elif path is not None and path.exists():
            path.unlink()
        if not restored:
            self._journal_append({
                "type": "explore_session",
                "schema": EXPLORE_SCHEMA,
                "session": self.session_id,
                "space": settings.space.to_dict(),
                "strategy": settings.strategy,
                "budget_points": settings.budget_points,
                "seed": settings.seed,
                "workload": settings.workload,
                "scheme": settings.scheme,
                "scale": settings.scale.name,
            })
        if self._counters is not None:
            self._counters["sessions"].inc()

        strategy = make_strategy(settings.strategy, settings.space,
                                 settings.budget_points, settings.seed)
        evaluated: List[_PointRecord] = []
        counts = {"evaluated": 0, "restored": 0, "failed": 0,
                  "cached": 0, "computed": 0}
        frontier: List[_PointRecord] = []
        generation = -1

        # With workers, one pool serves every generation: its workers
        # keep the traces they generated for the generations after.
        with (nullcontext(self.pool) if self.pool is not None
              else WorkerPool(settings.jobs) if settings.jobs > 1
              else nullcontext()) as pool:
            for generation, points in enumerate(strategy.generations()):
                records = self._evaluate_generation(
                    generation, points, restored, counts, pool)
                evaluated.extend(records)
                frontier = self._frontier_of(evaluated)
                self._journal_append({
                    "type": "explore_frontier",
                    "session": self.session_id,
                    "generation": generation,
                    "size": len(frontier),
                    "points": [r.fingerprint for r in frontier],
                })
                self._emit_frontier(generation, frontier)
                if self._counters is not None:
                    self._counters["generations"].inc()
                if self._frontier_gauge is not None:
                    self._frontier_gauge.set(len(frontier))
                strategy.observe(
                    [r.report_entry() for r in records],
                    [r.frontier_entry() for r in frontier],
                )

        return self._report(evaluated, frontier, counts,
                            generations=generation + 1)

    def _evaluate_generation(
        self,
        generation: int,
        points: List[Point],
        restored: Dict[str, _PointRecord],
        counts: Dict[str, int],
        pool: Optional[WorkerPool],
    ) -> List[_PointRecord]:
        settings = self.settings
        lowered: List[Optional[tuple]] = []
        for point in points:
            try:
                config, scheme = settings.space.lower(
                    point, self.base_config, settings.scheme)
            except ExploreError as exc:
                lowered.append((point, None, None, str(exc)))
                continue
            request = RunRequest(config, settings.workload, scheme,
                                 settings.scale)
            lowered.append((point, scheme, request, None))

        pending = dedupe_requests(
            entry[2] for entry in lowered
            if entry[2] is not None
            and entry[2].fingerprint not in restored
        )
        disk = active_disk_cache()
        # Where each new point's result comes from, judged before the
        # prefetch below puts it in the memory cache.
        sources = {request.fingerprint: _source_of(request.fingerprint, disk)
                   for request in pending}
        if pending and pool is not None:
            # Warm the caches through the supervised engine (pool
            # parallelism over structure-sharing cohorts); the serial
            # loop below then resolves every point as a hit.
            execute_plan(pending, pool.size, policy=self.policy,
                         force=True, pool=pool)

        records: List[_PointRecord] = []
        for index, (point, scheme, request, error) in enumerate(lowered):
            if request is None:
                record = _PointRecord(
                    generation=generation, index=index,
                    point=dict(point), scheme=settings.scheme,
                    fingerprint=derive_key("explore.invalid",
                                           self.session_id, repr(point)),
                    source="invalid", objectives=None, error=error,
                )
                counts["failed"] += 1
                self._finish_point(record, counts)
                records.append(record)
                continue

            fingerprint = request.fingerprint
            maybe_inject("explore_point",
                         key=f"{self.session_id}:{fingerprint}")
            held = restored.get(fingerprint)
            if held is not None:
                record = _PointRecord(
                    generation=generation, index=index,
                    point=dict(point), scheme=scheme,
                    fingerprint=fingerprint, source="journal",
                    objectives=held.objectives, error=held.error,
                )
                counts["restored"] += 1
                if held.error is not None:
                    counts["failed"] += 1
            else:
                # A repeat of a point this generation already fetched
                # finds it in memory, as the serial path does.
                source = (sources.pop(fingerprint, None)
                          or _source_of(fingerprint, disk))
                try:
                    result = fetch(request)
                except RunFailedError as exc:
                    record = _PointRecord(
                        generation=generation, index=index,
                        point=dict(point), scheme=scheme,
                        fingerprint=fingerprint, source="failed",
                        objectives=None, error=str(exc),
                    )
                    counts["failed"] += 1
                else:
                    record = _PointRecord(
                        generation=generation, index=index,
                        point=dict(point), scheme=scheme,
                        fingerprint=fingerprint, source=source,
                        objectives=extract_objectives(
                            result, request.config, scheme),
                    )
                    counts["cached" if source != "computed"
                           else "computed"] += 1
            self._finish_point(record, counts)
            records.append(record)
        return records

    def _finish_point(self, record: _PointRecord,
                      counts: Dict[str, int]) -> None:
        counts["evaluated"] += 1
        if record.source != "journal":
            self._journal_append({
                "type": "explore_point",
                "session": self.session_id,
                "generation": record.generation,
                "index": record.index,
                "point": record.point,
                "scheme": record.scheme,
                "run_fingerprint": record.fingerprint,
                "source": record.source,
                "objectives": record.objectives,
                "error": record.error,
            })
        self._emit_point(record)
        if self._counters is not None:
            self._counters["points"].inc()
            key = {
                "journal": "restored",
                "computed": "computed",
                "memory": "cached",
                "disk": "cached",
            }.get(record.source)
            if key is not None:
                self._counters[key].inc()
            if record.error is not None:
                self._counters["failed"].inc()

    def _frontier_of(self,
                     evaluated: List[_PointRecord]) -> List[_PointRecord]:
        scored = [r for r in evaluated if r.objectives is not None]
        return pareto_frontier(
            scored, self.objectives,
            values=lambda r: r.objectives,
            tiebreak=lambda r: r.fingerprint,
        )

    def _report(self, evaluated, frontier, counts,
                generations: int) -> Dict[str, object]:
        settings = self.settings
        return {
            "schema": EXPLORE_SCHEMA,
            "session": self.session_id,
            "space": settings.space.to_dict(),
            "strategy": settings.strategy,
            "budget_points": settings.budget_points,
            "seed": settings.seed,
            "workload": settings.workload,
            "scheme": settings.scheme,
            "scale": settings.scale.name,
            "generations": generations,
            "objectives": [
                {"name": obj.name, "sense": obj.sense,
                 "description": obj.description}
                for obj in self.objectives
            ],
            "counts": counts,
            "points": [r.report_entry() for r in evaluated],
            "frontier": [r.frontier_entry() for r in frontier],
        }


def _source_of(fingerprint: str, disk) -> str:
    """Where :func:`fetch` would take run ``fingerprint`` from now."""
    if fingerprint in _SIM_CACHE:
        return "memory"
    if disk is not None and fingerprint in disk:
        return "disk"
    return "computed"


def frontier_report(report: Dict[str, object]) -> Dict[str, object]:
    """The deterministic frontier-only slice of a session report —
    what the CLI writes as ``<stem>.frontier.json`` and what the
    byte-identical acceptance check compares."""
    return {
        "schema": report["schema"],
        "session": report["session"],
        "space": report["space"],
        "strategy": report["strategy"],
        "budget_points": report["budget_points"],
        "seed": report["seed"],
        "workload": report["workload"],
        "scheme": report["scheme"],
        "scale": report["scale"],
        "objectives": report["objectives"],
        "frontier": report["frontier"],
    }
