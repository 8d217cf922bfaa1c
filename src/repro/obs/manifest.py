"""Run manifests: machine-readable records of what was simulated.

A manifest is a JSON-lines file — one JSON object per line — so records
stream-append during long sweeps and partial files stay parseable.
Every record carries a ``type`` tag; the two core types are:

``run_header``
    Written once per invocation: tool version, seed, scale, the full
    :class:`SystemConfig` as a dict, and free-form context.

``sim_run``
    One per simulation: scheme, workload, cycles, CPI, wall time, the
    :class:`SimStats` snapshot and the metrics-registry snapshot. Runs
    computed by engine worker processes carry the worker's PID.

``cache_event``
    One per run acquisition through the experiment-layer run cache:
    workload, scheme, run fingerprint, ``source`` (``memory`` /
    ``disk`` / ``computed``), the derived ``cache_hit`` flag, worker
    provenance and the requesting experiment.

Failure supervision (v3) adds one record per supervision event:
``retry`` (a failed attempt being retried, with its deterministic
backoff delay), ``run_failure`` (a run failing permanently; verdict
``quarantine`` when it failed identically twice and was benched),
``pool_respawn`` (a broken or abandoned worker pool being rebuilt),
and a ``plan_summary`` aggregating the engine's counters.

The service gateway (v4) adds ``service_request`` (one per HTTP request
against a simulation endpoint: method, path, status, wall time, error
code), ``service_summary`` (request counts by status) and
``service_state`` (the gateway's final operational snapshot: queue,
coalescing and cache state at drain).

The tracing plane (v5) adds ``span`` (one wall-clock span: name,
trace_id/span_id/parent_id, pid, kind, start/duration in microseconds,
attributes — trace ids derive deterministically from run fingerprints,
see :mod:`repro.obs.tracing`) and ``worker_telemetry`` (one per worker
snapshot merged into the parent; gone in v16). Worker-computed
``sim_run`` records are now fully instrumented and carry
``fingerprint``/``trace_id``.

The exploration engine (v9) adds ``explore_point`` (one per evaluated
design-space point: session id, run fingerprint, generation/index, the
point's parameter values, composed scheme, acquisition ``source`` and
objective vector or error) and ``explore_frontier`` (one per strategy
generation: the Pareto frontier's size and member fingerprints) — see
:mod:`repro.explore` and docs/exploration.md.

Worker snapshots travel back with each run's result, not in sidecar
files (v11), so ``worker_telemetry`` records no longer carry a
``sidecar`` path.

v12 drops the record kind and the ``service_state`` block that v7
added for a second, multi-process run supervisor: the gateway's worker
pool now supervises every run it serves (docs/observability.md).

v13 drops the ``checkpoint`` record kind that v6 added for mid-run
checkpoint capsules: a retried run re-executes from write 0.

v14 drops two record kinds nothing read: ``cache_summary`` (a tally of
the ``cache_event`` records) and ``quarantine`` (a copy of the
``run_failure`` record whose ``verdict`` is ``quarantine``).

v15 drops the sample-drop counts v5 added (``sim_run.series[*]
.dropped``, ``sim_run.samples_dropped`` and
``worker_telemetry.samples_dropped``): telemetry keeps every sample,
so they always read 0.

v16 drops the ``worker_telemetry`` record kind: the merged ``sim_run``
record already carries the run's ``fingerprint``, ``worker`` pid,
``trace_id`` and assigned ``pid``, and the ``span`` records are the
merged spans.

See docs/observability.md and docs/service.md for the full schema.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

#: Schema version stamped into every header record; bump on breaking
#: changes so downstream consumers (plotters, dashboards) can dispatch.
#: v2: ``cache_event``/``cache_summary`` records, uninstrumented
#: ``sim_run`` records from parallel workers (``cache_summary`` gone in
#: v14).
#: v3: failure-supervision records — ``run_failure``, ``retry``,
#: ``quarantine``, ``pool_respawn`` — plus the ``plan_summary``
#: aggregate written by the CLI (``quarantine`` gone in v14).
#: v4: service-gateway records — ``service_request``,
#: ``service_summary``, ``service_state``.
#: v5: tracing-plane records — ``span``, ``worker_telemetry`` — plus
#: instrumented worker ``sim_run`` records and sample-drop counts (the
#: counts gone in v15, ``worker_telemetry`` in v16).
#: v6: ``checkpoint`` records — one per capsule lifecycle step
#: (``action`` save/resume/discard) — from the checkpoint/resume plane
#: (gone in v13).
#: v7: lifecycle records of a second, multi-process run supervisor,
#: plus its block inside ``service_state`` (both gone in v12).
#: v8: ``batch_cohort`` records — one per batched-execution cohort
#: event (``action`` executed/bisect/fallback, cohort key, size,
#: delivered count, detail) — plus the ``batch_*`` counters inside
#: ``plan_summary``.
#: v9: design-space exploration records — ``explore_point`` (one per
#: evaluated point: session id, run fingerprint, generation, the point's
#: parameter values, composed scheme, acquisition ``source``, objective
#: vector or error) and ``explore_frontier`` (one Pareto-frontier
#: snapshot per generation: session id, generation, size, member run
#: fingerprints) — see :mod:`repro.explore` and docs/exploration.md.
#: v10: one plan supervisor over cohorts — ``batch_cohort`` actions are
#: ``executed`` and ``dissolved`` (``bisect``/``fallback`` are gone),
#: and ``plan_summary`` keeps ``batch_cohorts`` but drops
#: ``batch_runs``, ``batch_bisections`` and ``batch_fallbacks``.
#: v11: worker telemetry rides in the outcome file — ``worker_telemetry``
#: records drop their ``sidecar`` field.
#: v12: the v7 supervisor's record kind and ``service_state`` block
#: are gone; the gateway's worker pool supervises every run.
#: v13: the v6 ``checkpoint`` record kind is gone; a retried run
#: re-executes from write 0.
#: v14: the ``cache_summary`` and ``quarantine`` record kinds are gone;
#: ``run_failure.verdict`` already names a quarantined run.
#: v15: the sample-drop counts are gone — ``sim_run.series[*].dropped``,
#: ``sim_run.samples_dropped`` and ``worker_telemetry.samples_dropped``;
#: telemetry keeps every sample.
#: v16: the ``worker_telemetry`` record kind is gone; the merged
#: ``sim_run`` record carries its fingerprint, worker pid, trace id and
#: pid.
MANIFEST_SCHEMA_VERSION = 16


def _jsonable(value):
    """Recursively coerce config values into JSON-safe primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def config_to_dict(config) -> Dict[str, object]:
    """A :class:`SystemConfig` (or any dataclass) as nested JSON dicts."""
    return _jsonable(config)


class ManifestWriter:
    """Appends JSON-lines records to a manifest file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.records_written = 0

    def append(self, record: Dict[str, object]) -> None:
        if "type" not in record:
            raise ValueError("manifest records need a 'type' tag")
        with self.path.open("a") as handle:
            handle.write(json.dumps(_jsonable(record)) + "\n")
        self.records_written += 1

    def extend(self, records: Iterable[Dict[str, object]]) -> None:
        for record in records:
            self.append(record)

    def __repr__(self) -> str:
        return f"ManifestWriter({self.path}, {self.records_written} records)"


def run_header(config, *, seed: Optional[int] = None,
               scale: Optional[str] = None,
               **context) -> Dict[str, object]:
    """Build the once-per-invocation header record."""
    from .. import __version__

    record: Dict[str, object] = {
        "type": "run_header",
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "repro_version": __version__,
        "seed": seed if seed is not None else getattr(config, "seed", None),
        "scale": scale,
        "config": config_to_dict(config),
    }
    record.update(context)
    return record


def read_manifest(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSON-lines manifest back into records (blank lines
    skipped; raises ``json.JSONDecodeError`` on corrupt lines)."""
    records: List[Dict[str, object]] = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
