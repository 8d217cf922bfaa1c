"""Shared setup for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures at a
micro scale (tiny system, two contrasting workloads, few writes) so the
whole suite completes in minutes, and asserts the figure's headline
*shape* — who wins and roughly by how much — on the produced rows.

Run with::

    pytest benchmarks/ --benchmark-only

For paper-scale numbers use the CLI instead::

    python -m repro.experiments run all --scale default
"""

from __future__ import annotations

import pathlib
from typing import Dict, List

import pytest

from repro.config.system import SystemConfig
from repro.experiments.base import RunScale, clear_sim_cache
from repro.experiments.registry import get_experiment
from repro.obs.manifest import ManifestWriter, run_header
from repro.trace.generator import clear_trace_cache, generate_trace

from tests.conftest import make_tiny_config

#: The benchmark scale: one write-heavy and one read-heavy workload.
BENCH_SCALE = RunScale("bench", 60, 12_000, ("mcf_m", "tig_m"))

#: Where the benchmark harness records its trajectory manifest. Each
#: session appends one header plus one ``bench_run`` record per
#: experiment executed, in the stable manifest schema
#: (docs/observability.md) so BENCH_*.json[l] files stay comparable
#: across sessions.
BENCH_MANIFEST = pathlib.Path(__file__).resolve().parent.parent / \
    ".benchmarks" / "BENCH_runs.jsonl"

_bench_records: List[Dict[str, object]] = []


def bench_config(seed: int = 1) -> SystemConfig:
    """The benchmark system is the test suite's tiny config (shared in
    tests/conftest.py): 2 cores, 2 MB L3, Table-1 PCM side."""
    return make_tiny_config(seed=seed)


@pytest.fixture(scope="session")
def config() -> SystemConfig:
    return bench_config()


@pytest.fixture(scope="session", autouse=True)
def warm_traces(config):
    """Generate the shared traces once so benchmarks measure the
    experiment pipeline, not first-touch trace construction."""
    for workload in BENCH_SCALE.workloads:
        generate_trace(
            config, workload,
            n_pcm_writes=BENCH_SCALE.n_pcm_writes,
            max_refs_per_core=BENCH_SCALE.max_refs_per_core,
        )
    yield
    clear_sim_cache()
    clear_trace_cache()


@pytest.fixture(scope="session", autouse=True)
def bench_manifest(config):
    """Append this session's benchmark trajectory to BENCH_runs.jsonl."""
    yield
    if not _bench_records:
        return
    writer = ManifestWriter(BENCH_MANIFEST)
    writer.append(run_header(config, scale=BENCH_SCALE.name,
                             harness="benchmarks"))
    writer.extend(_bench_records)
    _bench_records.clear()


def run_experiment(exp_id: str, config: SystemConfig):
    """Fresh (uncached) run of one experiment at the benchmark scale."""
    clear_sim_cache()
    result = get_experiment(exp_id)(config, BENCH_SCALE)
    record: Dict[str, object] = {
        "type": "bench_run",
        "exp_id": exp_id,
        "scale": result.scale,
        "kernel": config.kernel,
        "elapsed_seconds": result.elapsed_seconds,
    }
    try:
        gmean = dict(result.row_by("workload", "gmean"))
        gmean.pop("workload", None)
        record["gmean"] = gmean
    except Exception:
        pass  # tables without a gmean row record timing only
    _bench_records.append(record)
    return result


def record_kernel_bench(benchmark, name: str, kernel: str) -> None:
    """Tag one kernel-pair microbenchmark's timings for the manifest.

    ``benchmarks/check_regression.py`` pairs these records by ``name``
    across kernels and gates on the reference/vectorized speedup ratio,
    which is machine-independent (both timings come from the same
    session on the same host).
    """
    stats = benchmark.stats.stats
    _bench_records.append({
        "type": "bench_kernel",
        "name": name,
        "kernel": kernel,
        "scale": "bench",
        "min_seconds": stats.min,
        "median_seconds": stats.median,
        "rounds": stats.rounds,
    })


def gmean_row(result):
    return result.row_by("workload", "gmean")
