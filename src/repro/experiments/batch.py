"""Cohort partitioning for plan execution (structure-of-arrays sweeps).

A plan sweep — the 224-run golden corpus, the fig15/fig22 budget
sweeps, a storm of coalesced service cold misses — is mostly *one*
structure evaluated at many scalar points: same workload, same cache
and DIMM geometry, same kernel, differing only in swept knobs like
power budgets, GCP efficiency, or cell mapping. Executed run by run,
each point pays the full pool round-trip **and** regenerates the same
memory trace, the most expensive non-simulation phase of a run.

:func:`partition_cohorts` groups a deduplicated plan by
:func:`cohort_key` — a digest of each run's *trace-relevant* structure
**after** its scheme is applied (workload, scale, kernel, seed, CPU +
cache geometry, PCM cell model, line size). It digests the same
structure the trace generator's memo keys on, so a cohort is exactly a
set of runs that can share one trace-generation pass; swept scalars
(budgets, GCP efficiency, MR split, write-queue depth) never separate
runs, and nothing trace-relevant is ever mixed. The engine schedules
cohorts (:func:`repro.experiments.engine.execute_plan`): one worker
runs every member, one run at a time, against its process-local trace
memo, so the trace is generated once per cohort, and results stay
byte-identical to running each member alone because every member still
runs the ordinary per-request path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..core.policies.registry import get_scheme
from ..trace.generator import trace_structure
from .base import RunRequest


def dedupe_requests(requests: Iterable[RunRequest]) -> List[RunRequest]:
    """Unique requests by fingerprint, first occurrence order."""
    unique: Dict[str, RunRequest] = {}
    for request in requests:
        unique.setdefault(request.fingerprint, request)
    return list(unique.values())


def cohort_key(request: RunRequest) -> str:
    """Digest of a run's batch-compatible structure.

    Computed on the config *after* the scheme is applied (schemes may
    change the cell mapping, power budgets, or queue depth — none of
    which the trace generator reads, so scheme and budget sweeps over
    one workload share a cohort). The digested structure is
    :func:`~repro.trace.generator.trace_structure`, which the
    generator's memo also keys on: two runs share a key iff they share
    a memoized trace, so a cohort's members are guaranteed to share one
    trace-generation pass inside a worker.
    """
    cfg = get_scheme(request.scheme).apply_to_config(request.config)
    structure = trace_structure(
        cfg, request.workload,
        request.scale.n_pcm_writes, request.scale.max_refs_per_core,
    )
    return hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Cohort:
    """One batch-compatible group: members sorted by fingerprint, so a
    cohort's identity (and its execution order inside the worker) is
    independent of plan order."""

    key: str
    members: Tuple[RunRequest, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def partition_cohorts(requests: Iterable[RunRequest],
                      workers: int = 1) -> List[Cohort]:
    """Partition a plan into cohorts that keep ``workers`` busy.

    Runs sharing a :func:`cohort_key` group together, but no cohort
    holds more than ⌈n / workers⌉ of the plan's ``n`` unique runs, and
    there are at least ``min(workers, n)`` cohorts: a group too large
    for the cap splits into near-equal slices, and while there are
    fewer cohorts than workers the group with the largest slices
    splits once more.

    Properties (proven by ``tests/property/test_batch_partition.py``):
    a true partition of the deduplicated plan (every unique fingerprint
    in exactly one cohort), deterministic under plan permutation
    (members sort by fingerprint, cohorts by key, slices in member
    order), never mixing runs whose trace-relevant structures differ,
    and the two size bounds above.
    """
    groups: Dict[str, List[RunRequest]] = {}
    for request in dedupe_requests(requests):
        groups.setdefault(cohort_key(request), []).append(request)
    n = sum(len(members) for members in groups.values())
    cap = max(1, -(-n // max(workers, 1)))
    slices = {key: -(-len(members) // cap)
              for key, members in groups.items()}
    while sum(slices.values()) < min(workers, n):
        widest = max(sorted(slices),
                     key=lambda key: len(groups[key]) / slices[key])
        slices[widest] += 1
    cohorts: List[Cohort] = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r.fingerprint)
        base, extra = divmod(len(members), slices[key])
        start = 0
        for i in range(slices[key]):
            stop = start + base + (1 if i < extra else 0)
            cohorts.append(Cohort(key, tuple(members[start:stop])))
            start = stop
    return cohorts
