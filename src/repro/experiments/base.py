"""Experiment framework.

Every table and figure of the paper's evaluation is an
:class:`Experiment` subclass with a stable ``exp_id`` (``fig2`` ..
``fig23``, ``tab1`` .. ``tab3``). Experiments run at a :class:`RunScale`
(quick / default / full) and return an :class:`ExperimentResult` whose
rows mirror the paper's series, plus the paper's reported values for
side-by-side comparison (EXPERIMENTS.md).

Simulation results are cached by a canonical run fingerprint (the full
``SystemConfig`` tree + scheme + workload + scale + simulator schema
version — see :mod:`repro.sim.simcache`), first in memory and then,
when a :class:`~repro.sim.simcache.SimCache` is installed via
:func:`use_disk_cache`, in an on-disk content-addressed store.
Experiments that share runs (Figures 11-14 all reuse the GCP sweeps)
never repeat them — within a process, across processes, or across
invocations.

An experiment names each simulation it reads exactly once, in
:meth:`Experiment.runs`, and turns their results into rows in
:meth:`Experiment.render`, which never simulates. The base class derives
the rest: :meth:`Experiment.plan` hands the same requests to the engine
(:mod:`repro.experiments.engine`), the one place a run is computed: it
dedupes the union across figures and executes it on supervised worker
processes. :meth:`Experiment.run` then reads each result from the
caches (:func:`fetch`) and renders, and calling an experiment does both.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..analysis.metrics import gmean
from ..analysis.report import render_table
from ..config.presets import baseline_config
from ..config.system import SystemConfig
from ..errors import ExperimentError, RunFailedError
from ..sim.runner import SimResult, run_simulation
from ..sim.simcache import SimCache, run_fingerprint
from ..trace.generator import generate_trace
from ..trace.workloads import ALL_WORKLOADS, QUICK_WORKLOADS


@dataclass(frozen=True)
class RunScale:
    """How big each simulation should be."""

    name: str
    n_pcm_writes: int
    max_refs_per_core: int
    workloads: Tuple[str, ...]


QUICK = RunScale("quick", 400, 80_000, QUICK_WORKLOADS)
DEFAULT = RunScale("default", 800, 150_000, ALL_WORKLOADS)
FULL = RunScale("full", 2400, 400_000, ALL_WORKLOADS)

SCALES = {scale.name: scale for scale in (QUICK, DEFAULT, FULL)}


@dataclass(frozen=True)
class RunRequest:
    """One simulation an experiment needs: the unit of planning,
    deduplication, caching and parallel execution."""

    config: SystemConfig
    workload: str
    scheme: str
    scale: RunScale

    @cached_property
    def fingerprint(self) -> str:
        """Content address of this run (see :mod:`repro.sim.simcache`).

        Only the simulation-relevant parts of the scale participate
        (``n_pcm_writes`` / ``max_refs_per_core``) — the scale's *name*
        and workload list don't change a single run's outcome.
        """
        return run_fingerprint(
            self.config, self.workload, self.scheme,
            n_pcm_writes=self.scale.n_pcm_writes,
            max_refs_per_core=self.scale.max_refs_per_core,
        )


#: An experiment's simulations, by the key its render reads each under.
Runs = Dict[Hashable, RunRequest]

#: The results of :data:`Runs`, under the same keys.
Results = Mapping[Hashable, SimResult]


@dataclass
class ExperimentResult:
    """Rows of named columns plus provenance."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]]
    paper_claim: str = ""
    notes: str = ""
    elapsed_seconds: float = 0.0
    scale: str = "default"

    def to_table(self, precision: int = 3) -> str:
        out = render_table(
            self.columns, self.rows,
            title=f"{self.exp_id}: {self.title} [{self.scale}]",
            precision=precision,
        )
        if self.paper_claim:
            out += f"\n\npaper: {self.paper_claim}"
        if self.notes:
            out += f"\nnotes: {self.notes}"
        return out

    def to_csv(self) -> str:
        """Comma-separated rendering (for spreadsheets/plotting)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=self.columns, extrasaction="ignore",
        )
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def row_by(self, key_column: str, key: object) -> Dict[str, object]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise ExperimentError(f"no row with {key_column}={key!r}")


class Experiment(abc.ABC):
    """One paper table/figure reproduction.

    A subclass names its simulations in :meth:`runs` and its rows in
    :meth:`render`; :meth:`plan` and :meth:`run` derive from those two
    and are not overridden.
    """

    exp_id = "base"
    title = ""
    paper_claim = ""

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        """Every simulation :meth:`render` reads, by the key it reads
        the result under. The default names none."""
        return {}

    @abc.abstractmethod
    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        """The experiment's rows, from the results of :meth:`runs`
        (same keys). Never simulates."""

    def plan(self, config: SystemConfig,
             scale: RunScale) -> Tuple[RunRequest, ...]:
        """The requests of :meth:`runs`, for the engine to dedupe across
        experiments and execute before :meth:`run`."""
        return tuple(self.runs(config, scale).values())

    def run(self, config: SystemConfig, scale: RunScale) -> ExperimentResult:
        """Render from the caches. Every run must have been planned:
        :func:`fetch` raises for one that was not, or that failed."""
        return self._render_from_caches(config, scale,
                                        self.runs(config, scale))

    def _render_from_caches(self, config: SystemConfig, scale: RunScale,
                            runs: Runs) -> ExperimentResult:
        # Interval measurement must be monotonic: an NTP step mid-run
        # would make a wall-clock difference negative or garbage.
        start = time.monotonic()
        results = {key: fetch(request) for key, request in runs.items()}
        result = self.render(config, scale, results)
        result.elapsed_seconds = time.monotonic() - start
        result.scale = scale.name
        return result

    def __call__(
        self,
        config: Optional[SystemConfig] = None,
        scale: RunScale = DEFAULT,
    ) -> ExperimentResult:
        """Execute the runs on the engine, then render them as
        :meth:`run` does; ``elapsed_seconds`` covers both. The requests
        are built once, for both steps."""
        from .engine import execute_plan

        config = config or baseline_config()
        start = time.monotonic()
        runs = self.runs(config, scale)
        execute_plan(runs.values())
        result = self._render_from_caches(config, scale, runs)
        result.elapsed_seconds = time.monotonic() - start
        return result


# ----------------------------------------------------------------------
# Shared simulation helpers with fingerprint-keyed caching
# ----------------------------------------------------------------------
#: In-memory run cache, keyed by the canonical run fingerprint.
_SIM_CACHE: Dict[str, SimResult] = {}

#: Optional on-disk cache behind the in-memory one (the CLI's
#: --cache-dir plumbing; library users call :func:`use_disk_cache`).
_DISK_CACHE: Optional[SimCache] = None

#: Telemetry observing every fresh run this process's plans compute (the
#: CLI's --trace/--metrics-out plumbing). Cache hits contributed their
#: telemetry when first run and are not re-instrumented; telemetry never
#: changes simulation results.
_ACTIVE_TELEMETRY = None


def use_telemetry(telemetry) -> None:
    """Install (or with ``None`` remove) the process-wide telemetry
    observer the engine instruments its runs under."""
    global _ACTIVE_TELEMETRY
    _ACTIVE_TELEMETRY = telemetry


def active_telemetry():
    return _ACTIVE_TELEMETRY


def use_disk_cache(cache: Optional[SimCache]) -> None:
    """Install (or with ``None`` remove) the process-wide on-disk run
    cache the engine and :func:`fetch` consult behind the in-memory
    cache."""
    global _DISK_CACHE
    _DISK_CACHE = cache


def active_disk_cache() -> Optional[SimCache]:
    return _DISK_CACHE


def clear_sim_cache() -> None:
    """Drop the in-memory run cache (the disk cache is untouched)."""
    _SIM_CACHE.clear()


def cache_get(key: str) -> Optional[SimResult]:
    """In-memory cache lookup that *refreshes recency*: a hit moves the
    entry to the back of the dict's insertion order, so bounded holders
    (the service gateway's ``_trim_sim_cache``) evict least-recently-
    used entries, not the oldest-inserted ones."""
    result = _SIM_CACHE.pop(key, None)
    if result is not None:
        _SIM_CACHE[key] = result
    return result


#: Runs the engine has proven to fail permanently (retries exhausted or
#: quarantined), fingerprint -> human-readable cause. :func:`fetch`
#: raises :class:`RunFailedError` for these.
_FAILED_RUNS: Dict[str, str] = {}


def mark_run_failed(fingerprint: str, message: str) -> None:
    """Register a permanently-failed run (engine supervision verdict)."""
    _FAILED_RUNS[fingerprint] = message


def clear_failed_runs(fingerprints: Optional[Iterable[str]] = None) -> None:
    """Forget failed-run verdicts — all of them, or just the given
    fingerprints (a re-planned run gets a fresh chance)."""
    if fingerprints is None:
        _FAILED_RUNS.clear()
        return
    for fingerprint in fingerprints:
        _FAILED_RUNS.pop(fingerprint, None)


def failed_runs() -> Dict[str, str]:
    """A snapshot of the failed-run registry."""
    return dict(_FAILED_RUNS)


def request_key(request: "RunRequest") -> str:
    """The fault-injection/matching key of a run — human-readable
    prefix plus the full fingerprint."""
    return f"{request.workload}/{request.scheme}/{request.fingerprint}"


def record_cache_event(request: RunRequest, source: str,
                       worker: Optional[int] = None,
                       prefetch: bool = False) -> None:
    """Record one run acquisition (memory/disk hit or fresh compute) as
    a ``cache_event`` of the active telemetry, if any. ``cache_hit`` is
    derived so manifest consumers can aggregate without knowing the
    ``source`` vocabulary."""
    telemetry = _ACTIVE_TELEMETRY
    if telemetry is not None:
        telemetry.record({
            "type": "cache_event",
            "workload": request.workload,
            "scheme": request.scheme,
            "fingerprint": request.fingerprint,
            "source": source,
            "cache_hit": source != "computed",
            "worker": worker,
            "prefetch": prefetch,
            "experiment": telemetry.current_experiment,
        })


def execute_request(request: RunRequest, telemetry=None) -> SimResult:
    """Run one simulation, bypassing every cache (the engine's worker
    entry point). Determinism is per-run: all random streams derive from
    ``request.config.seed``, so where/when a run executes cannot change
    its result."""
    return run_simulation(
        request.config, request.workload, request.scheme,
        n_pcm_writes=request.scale.n_pcm_writes,
        max_refs_per_core=request.scale.max_refs_per_core,
        telemetry=telemetry,
    )


def fetch(request: RunRequest) -> SimResult:
    """Read one planned run's result: from the in-memory cache, else
    from the disk cache. Never computes. A run the engine marked
    permanently failed raises :class:`RunFailedError`, and a run no plan
    produced raises :class:`ExperimentError`."""
    key = request.fingerprint
    result = cache_get(key)
    if result is not None:
        record_cache_event(request, "memory")
        return result
    if key in _FAILED_RUNS:
        raise RunFailedError(
            f"run {request.workload}/{request.scheme} failed during "
            f"planned execution: {_FAILED_RUNS[key]}",
            fingerprint=key, workload=request.workload,
            scheme=request.scheme,
        )
    if _DISK_CACHE is not None:
        result = _DISK_CACHE.get(key)
        if result is not None:
            _SIM_CACHE[key] = result
            record_cache_event(request, "disk")
            return result
    raise ExperimentError(
        f"run {request.workload}/{request.scheme} was never planned: "
        f"execute it with execute_plan() before reading it")


def speedup_runs(
    config: SystemConfig,
    scale: RunScale,
    schemes: Sequence[str],
    *,
    baseline: str,
    workloads: Optional[Sequence[str]] = None,
) -> Dict[Tuple[str, str], RunRequest]:
    """The runs :func:`speedup_rows` reads, keyed ``(workload, scheme)``."""
    return {
        (workload, scheme): RunRequest(config, workload, scheme, scale)
        for workload in (workloads or scale.workloads)
        for scheme in (baseline, *schemes)
    }


def gmean_row(rows: Sequence[Mapping[str, object]], columns: Sequence[str],
              label: str = "gmean") -> Dict[str, object]:
    """The summary row under ``rows``: each column's geometric mean."""
    row: Dict[str, object] = {"workload": label}
    for column in columns:
        row[column] = gmean(float(r[column]) for r in rows)
    return row


def speedup_rows(
    results: Results,
    workloads: Sequence[str],
    columns: Sequence[str],
    *,
    baseline: str,
    metric: str = "cpi",
) -> List[Dict[str, object]]:
    """One row per workload: each column's speedup (or throughput gain)
    over ``baseline``, plus a final gmean row — the shape of most of the
    paper's figures. Reads ``results[workload, column]`` and
    ``results[workload, baseline]``."""
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        base = results[workload, baseline]
        row: Dict[str, object] = {"workload": workload}
        for column in columns:
            result = results[workload, column]
            if metric == "cpi":
                row[column] = result.speedup_over(base)
            elif metric == "throughput":
                row[column] = result.throughput_ratio(base)
            else:
                raise ExperimentError(f"unknown metric {metric!r}")
        rows.append(row)
    rows.append(gmean_row(rows, columns))
    return rows


class SpeedupFigure(Experiment):
    """Each scheme's speedup (``metric="cpi"``) or write-throughput gain
    (``"throughput"``) over ``baseline``, per workload, plus a gmean
    row. A subclass whose columns are not plain schemes overrides
    :meth:`runs`, keeping the ``(workload, column)`` keys."""

    schemes: Tuple[str, ...] = ()
    baseline = "dimm+chip"
    metric = "cpi"
    notes = ""

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        return speedup_runs(config, scale, self.schemes,
                            baseline=self.baseline)

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        rows = speedup_rows(results, scale.workloads, self.schemes,
                            baseline=self.baseline, metric=self.metric)
        return ExperimentResult(
            self.exp_id, self.title, ["workload", *self.schemes], rows,
            paper_claim=self.paper_claim, notes=self.notes,
        )


class ConfigSweep(Experiment):
    """FPB's speedup over DIMM+chip at each value of one config axis,
    per workload, plus a gmean row. Each column is normalized to
    DIMM+chip at the same value."""

    values: Tuple[object, ...] = ()
    notes = ""

    @abc.abstractmethod
    def configure(self, config: SystemConfig, value) -> SystemConfig:
        """``config`` with the swept axis set to ``value``."""

    def label(self, value) -> str:
        return str(value)

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        return {
            (workload, value, scheme): RunRequest(
                self.configure(config, value), workload, scheme, scale)
            for workload in scale.workloads
            for value in self.values
            for scheme in ("dimm+chip", "fpb")
        }

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        columns = [self.label(value) for value in self.values]
        rows: List[Dict[str, object]] = []
        for workload in scale.workloads:
            row: Dict[str, object] = {"workload": workload}
            for value, column in zip(self.values, columns):
                row[column] = results[workload, value, "fpb"].speedup_over(
                    results[workload, value, "dimm+chip"])
            rows.append(row)
        rows.append(gmean_row(rows, columns))
        return ExperimentResult(
            self.exp_id, self.title, ["workload", *columns], rows,
            paper_claim=self.paper_claim, notes=self.notes,
        )


def trace_for(config: SystemConfig, workload: str, scale: RunScale):
    return generate_trace(
        config, workload,
        n_pcm_writes=scale.n_pcm_writes,
        max_refs_per_core=scale.max_refs_per_core,
    )
