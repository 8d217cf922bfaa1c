"""Exploration sessions over the run machinery.

An :class:`ExploreSession` turns a ``(space, strategy, budget, seed)``
tuple into a stream of ordinary fingerprinted runs: each probed point
lowers to a ``RunRequest``, so it inherits the SimCache, the engine's
resilience and cohorts, telemetry and service coverage unchanged. The
run caches are the only record of a session's progress: rerunning a
killed exploration with the same settings replays the same point
sequence, reads every point it already paid for from the caches, and
computes only the rest.

Determinism contract: the session id, the point sequence, and the
frontier are pure functions of the settings and base config. The
report's ``frontier`` entries deliberately omit acquisition ``source``
(memory/disk/computed varies between cold and warm runs) so frontier
reports are byte-identical across re-runs.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config.system import SystemConfig, config_fingerprint
from ..errors import RunFailedError
from ..experiments.base import (
    QUICK,
    RunRequest,
    RunScale,
    _SIM_CACHE,
    active_disk_cache,
    fetch,
)
from ..experiments.engine import WorkerPool, dedupe_requests, execute_plan
from ..testing.faults import maybe_inject
from ..util.seeds import derive_key
from .pareto import DEFAULT_OBJECTIVES, extract_objectives, pareto_frontier
from .space import ExploreError, Point, SearchSpace
from .strategies import STRATEGIES, make_strategy

#: Report schema version (independent of the manifest's).
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
    """One evaluated point, as reported."""

    generation: int
    index: int
    point: Dict[str, object]
    scheme: str
    fingerprint: str
    source: str  # memory | disk | computed | invalid | failed
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
    """One deterministic design-space exploration.

    Each generation's new points are computed by the supervised engine
    on ``pool`` when the caller passes its long-lived
    :class:`~repro.experiments.engine.WorkerPool` (the gateway does),
    else on a private pool of ``settings.jobs`` workers kept for the
    whole session."""

    def __init__(
        self,
        settings: ExploreSettings,
        base_config: Optional[SystemConfig] = None,
        *,
        policy=None,
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

    # -- telemetry ----------------------------------------------------

    def _emit_point(self, record: _PointRecord) -> None:
        self._emit({
            "type": "explore_point",
            "fingerprint": self.session_id,
            "session": self.session_id,
            "run_fingerprint": record.fingerprint,
            "generation": record.generation,
            "index": record.index,
            "point": record.point,
            "scheme": record.scheme,
            "source": record.source,
            "objectives": record.objectives,
            "error": record.error,
        })

    def _emit_frontier(self, generation: int,
                       frontier: List[_PointRecord]) -> None:
        self._emit({
            "type": "explore_frontier",
            "fingerprint": self.session_id,
            "session": self.session_id,
            "generation": generation,
            "size": len(frontier),
            "points": [r.fingerprint for r in frontier],
        })

    def _emit(self, record: Dict[str, object]) -> None:
        """Hand one progress record to the session's sink: the
        telemetry, which keeps it for the manifest and forwards it to
        its own ``on_event``, or else ``on_event`` itself. A record's
        ``fingerprint`` is the session id, so ``/watch`` streams keyed
        on it receive the exploration's progress; a point's own run is
        its ``run_fingerprint``."""
        if self.telemetry is not None:
            self.telemetry.record_explore(record)
        elif self.on_event is not None:
            self.on_event(record["type"], record)

    # -- execution ----------------------------------------------------

    def run(self) -> Dict[str, object]:
        """Execute the exploration; returns the report."""
        settings = self.settings
        if self._counters is not None:
            self._counters["sessions"].inc()

        strategy = make_strategy(settings.strategy, settings.space,
                                 settings.budget_points, settings.seed)
        evaluated: List[_PointRecord] = []
        counts = {"evaluated": 0, "failed": 0, "cached": 0,
                  "computed": 0}
        frontier: List[_PointRecord] = []
        generation = -1

        # One pool serves every generation: its workers keep the traces
        # they generated for the generations after.
        with (nullcontext(self.pool) if self.pool is not None
              else WorkerPool(settings.jobs)) as pool:
            for generation, points in enumerate(strategy.generations()):
                records = self._evaluate_generation(
                    generation, points, counts, pool)
                evaluated.extend(records)
                frontier = self._frontier_of(evaluated)
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
        counts: Dict[str, int],
        pool: WorkerPool,
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
            entry[2] for entry in lowered if entry[2] is not None)
        disk = active_disk_cache()
        # Where each new point's result comes from, judged before the
        # plan below puts it in the memory cache.
        sources = {request.fingerprint: _source_of(request.fingerprint, disk)
                   for request in pending}
        # The supervised engine computes the points no cache holds; the
        # loop below then reads every one from the caches.
        execute_plan(pending, pool.size, policy=self.policy, pool=pool)

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
                self._finish_point(record, counts)
                records.append(record)
                continue

            fingerprint = request.fingerprint
            maybe_inject("explore_point",
                         key=f"{self.session_id}:{fingerprint}")
            # A repeat of a point this generation already read finds it
            # in memory.
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
            else:
                record = _PointRecord(
                    generation=generation, index=index,
                    point=dict(point), scheme=scheme,
                    fingerprint=fingerprint, source=source,
                    objectives=extract_objectives(
                        result, request.config, scheme),
                )
            self._finish_point(record, counts)
            records.append(record)
        return records

    def _finish_point(self, record: _PointRecord,
                      counts: Dict[str, int]) -> None:
        key = ("failed" if record.error is not None
               else "computed" if record.source == "computed"
               else "cached")
        counts["evaluated"] += 1
        counts[key] += 1
        self._emit_point(record)
        if self._counters is not None:
            self._counters["points"].inc()
            self._counters[key].inc()

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
