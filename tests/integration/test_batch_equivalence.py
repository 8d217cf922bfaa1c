"""Differential-equivalence harness for cohort plan execution.

The engine's cohorts must be *indistinguishable from serial*: grouping
a plan into structure-sharing cohorts and executing each in one worker
pass must change throughput only — never a byte of any result. These
tests drive the claim end to end:

* **Full-registry sweep**: the union of every registered experiment's
  plan, on both kernels, executed serial and pooled — asserting
  byte-identical ``SimResult``s and identical golden
  ``result_fingerprint``s.
* **Chaos**: a fault-injected crash inside a cohort dissolves it into
  runs executed alone, the culprit is charged a terminal failure, and
  every innocent run in the plan still completes byte-identically.

Scale is micro (30 writes) so the sweep stays tier-1 cheap; the full
224-run quick-scale corpus gets the same treatment in CI via
``golden --check --jobs 2``.
"""

from __future__ import annotations

import json

import pytest

from repro.config.system import KERNELS
from repro.experiments.base import (
    RunRequest,
    RunScale,
    cache_get,
    clear_sim_cache,
    execute_request,
    failed_runs,
)
from repro.experiments.batch import partition_cohorts
from repro.experiments.engine import dedupe_requests, execute_plan
from repro.experiments.registry import available_experiments, plan_runs
from repro.experiments.resilience import RetryPolicy
from repro.testing.faults import ENV_VAR

from ..conftest import make_tiny_config

#: Tiny runs: the equivalence claim is structural, not scale-dependent.
MICRO = RunScale("micro", 30, 8_000, ("tig_m",))


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def registry_plan(kernel: str):
    """The deduplicated union of every registered experiment's plan."""
    config = make_tiny_config().with_kernel(kernel)
    return dedupe_requests(
        plan_runs(list(available_experiments()), config, MICRO))


def serial_truth(requests):
    """Fingerprint -> result, computed serially in this process,
    uncached."""
    return {request.fingerprint: execute_request(request)
            for request in requests}


def executed_results(requests, **plan_kwargs):
    summary = execute_plan(requests, **plan_kwargs)
    results = {}
    for request in requests:
        result = cache_get(request.fingerprint)
        assert result is not None, (
            f"{request.workload}/{request.scheme} missing after "
            f"execute_plan({plan_kwargs})")
        results[request.fingerprint] = result
    clear_sim_cache()
    return results, summary


@pytest.mark.parametrize("kernel", KERNELS)
def test_pooled_equals_serial_for_every_experiment(kernel):
    """Every run any experiment plans: serial and pooled cohort
    execution produce byte-identical results and identical golden
    result fingerprints."""
    requests = registry_plan(kernel)
    assert len(requests) >= 20  # the registry really is covered
    truth = serial_truth(requests)

    pooled, pooled_summary = executed_results(requests, jobs=2)

    assert pooled_summary["computed"] == len(requests)
    assert pooled_summary["batch_cohorts"] >= 1
    assert pooled_summary["failed"] == 0

    for request in requests:
        key = request.fingerprint
        assert pooled[key] == truth[key], request
        assert (pooled[key].result_fingerprint()
                == truth[key].result_fingerprint()), request


def test_kernels_agree_pooled():
    """Golden contract under cohort execution: both kernels' pooled
    runs of the same simulation share one result fingerprint."""
    by_kernel = {}
    for kernel in KERNELS:
        requests = registry_plan(kernel)
        results, _ = executed_results(requests, jobs=2)
        by_kernel[kernel] = {
            (request.workload, request.scheme): results[
                request.fingerprint].result_fingerprint()
            for request in requests
        }
    reference, vectorized = (by_kernel[kernel] for kernel in KERNELS)
    assert reference == vectorized


def sweep_plan(n_budgets: int = 4, workloads=("tig_m",)):
    """A budget sweep: one cohort per workload, ``n_budgets`` runs."""
    config = make_tiny_config()
    return [
        RunRequest(config.with_dimm_tokens(400.0 + 66.0 * i),
                   workload, "fpb", MICRO)
        for workload in workloads
        for i in range(n_budgets)
    ]


def test_crash_in_cohort_charges_culprit_and_plan_completes(
        monkeypatch):
    """Chaos: one run of a 4-run sweep hard-crashes its worker every
    time it executes. Its cohort dissolves into runs executed alone,
    the culprit is charged a terminal failure, and the three innocent
    runs complete byte-identically."""
    sweep = sweep_plan(n_budgets=4)
    assert len(partition_cohorts(sweep)) == 1
    doomed = sweep[2]
    innocents = [r for r in sweep if r is not doomed]
    truth = serial_truth(innocents)

    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "crash",
        "match": doomed.fingerprint,
    }]))
    policy = RetryPolicy(max_attempts=2, deterministic_attempts=1,
                         backoff_base_s=0.01, backoff_cap_s=0.05,
                         max_pool_respawns=8)
    summary = execute_plan(sweep, jobs=2, policy=policy)

    assert summary["failed"] == 1
    assert summary["computed"] == len(innocents)
    assert doomed.fingerprint in failed_runs()
    for request in innocents:
        result = cache_get(request.fingerprint)
        assert result is not None
        assert result == truth[request.fingerprint]
