"""Parallel engine vs serial execution: identical results, honest cache.

The acceptance bar from the engine's contract: an experiment executed
with a parallel prefetch (``--jobs N``) must produce row-for-row
*identical* ``ExperimentResult``s to a plain serial run — not merely
close. All random streams derive from ``config.seed`` and results cross
the process boundary via pickle (exact for ints and IEEE doubles), so
even floats must compare equal with ``==``.
"""

from __future__ import annotations

import pytest

from repro.experiments import engine
from repro.experiments.base import (
    RunRequest,
    RunScale,
    _SIM_CACHE,
    clear_sim_cache,
    sim,
    use_disk_cache,
)
from repro.experiments.engine import dedupe_requests, execute_plan
from repro.experiments.fig17_mr_split import Fig17MRSplit
from repro.experiments.registry import plan_runs
from repro.sim.simcache import SimCache

from ..conftest import count_trace_generations, make_tiny_config

MICRO = RunScale("micro", 30, 8_000, ("tig_m",))


@pytest.fixture(autouse=True)
def isolated_caches(isolated_run_state):
    """Every test starts and ends with pristine process-wide run
    state (shared machinery in tests/conftest.py)."""
    yield


def run_serial(config):
    clear_sim_cache()
    use_disk_cache(None)
    return Fig17MRSplit().run(config, MICRO)


class TestParallelEquivalence:
    def test_parallel_rows_identical_to_serial(self, tmp_path):
        config = make_tiny_config()
        serial = run_serial(config)

        clear_sim_cache()
        use_disk_cache(SimCache(tmp_path / "cache"))
        exp = Fig17MRSplit()
        requests = exp.plan(config, MICRO)
        summary = execute_plan(requests, jobs=4)
        assert summary["computed"] == summary["unique"] == 4
        parallel = exp.run(config, MICRO)

        assert parallel.columns == serial.columns
        assert len(parallel.rows) == len(serial.rows)
        for got, want in zip(parallel.rows, serial.rows):
            assert got == want  # exact — including every float

    def test_run_consumes_warm_hits_without_recompute(self, tmp_path):
        """After the prefetch, run() must not simulate anything."""
        config = make_tiny_config()
        use_disk_cache(SimCache(tmp_path / "cache"))
        exp = Fig17MRSplit()
        execute_plan(exp.plan(config, MICRO), jobs=2)
        before = dict(_SIM_CACHE)
        result = exp.run(config, MICRO)
        assert result.rows
        # run() added nothing: every request hit the warmed memory cache.
        assert set(_SIM_CACHE) == set(before)
        for key, value in before.items():
            assert _SIM_CACHE[key] is value

    def test_second_plan_served_entirely_from_disk(self, tmp_path):
        config = make_tiny_config()
        use_disk_cache(SimCache(tmp_path / "cache"))
        requests = Fig17MRSplit().plan(config, MICRO)
        first = execute_plan(requests, jobs=2)
        assert first["computed"] == first["unique"]

        # A fresh process would start with an empty memory cache.
        clear_sim_cache()
        use_disk_cache(SimCache(tmp_path / "cache"))
        second = execute_plan(requests, jobs=2)
        assert second["computed"] == 0
        assert second["disk"] == second["unique"] == first["unique"]

    def test_corrupted_disk_entry_recomputed_identically(self, tmp_path):
        config = make_tiny_config()
        cache = SimCache(tmp_path / "cache")
        use_disk_cache(cache)
        request = RunRequest(config, "tig_m", "fpb", MICRO)
        original = sim(config, "tig_m", "fpb", MICRO)

        # Truncate the stored entry, then resolve the same run cold.
        path = cache.path_for(request.fingerprint)
        path.write_bytes(path.read_bytes()[:50])
        clear_sim_cache()
        recomputed = sim(config, "tig_m", "fpb", MICRO)

        assert cache.corrupt == 1  # detected, not deserialized blindly
        assert recomputed.cycles == original.cycles
        assert recomputed.cpi == original.cpi
        assert recomputed.stats.snapshot() == original.stats.snapshot()


class TestCohortSizing:
    @pytest.mark.parametrize("cpus, cohorts", [(1, 1), (2, 2), (8, 4)])
    def test_cohorts_follow_jobs_capped_at_usable_cpus(self, monkeypatch,
                                                       cpus, cohorts):
        """Fig. 17's four runs share one trace structure. At ``jobs=4``
        they split into one cohort per worker, but never into more
        cohorts than there are CPUs to run them: a worker beyond the
        CPUs adds no parallelism, and its cohort would generate the
        shared trace once more."""
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        requests = Fig17MRSplit().plan(make_tiny_config(), MICRO)
        summary = execute_plan(requests, jobs=4)
        assert summary["computed"] == 4
        assert summary["batch_cohorts"] == cohorts


class TestWorkerPool:
    def test_pick_prefers_the_slot_that_holds_the_trace(self):
        """A cohort goes to the idle slot that last ran its key, else to
        the least recently used idle slot, never to a busy one. Picking
        starts no process."""
        pool = engine.WorkerPool(3)
        a, b, c = pool.slots
        a.key, a.used = "x", 3
        b.key, b.used = "y", 1
        c.key, c.used = "z", 2
        assert pool.pick("x", busy=[]) is a
        assert pool.pick("w", busy=[]) is b
        assert pool.pick("x", busy=[a, b]) is c
        assert all(slot.executor is None for slot in pool.slots)

    def test_workers_keep_their_traces_across_plans(self, tmp_path,
                                                    monkeypatch):
        """Three plans on one 2-slot pool alternate between two trace
        structures. Each cohort goes to the worker that already holds
        its trace, so each structure is generated once, in one worker,
        and every result is byte-identical to serial."""
        config = make_tiny_config()
        plans = [[RunRequest(config, "tig_m", "fpb", MICRO)],
                 [RunRequest(config, "mcf_m", "fpb", MICRO)],
                 [RunRequest(config, "tig_m", "ideal", MICRO)]]
        log = tmp_path / "traces.log"
        count_trace_generations(monkeypatch, log)
        with engine.WorkerPool(2) as pool:
            for plan in plans:
                assert execute_plan(plan, jobs=2, pool=pool)["computed"] == 1
        generated = [line.split() for line in log.read_text().splitlines()]
        assert sorted(trace for _, trace in generated) == [
            "mcf_m/reference", "tig_m/reference"]
        assert len({pid for pid, _ in generated}) == 2

        pooled = {request.fingerprint: _SIM_CACHE[request.fingerprint]
                  for plan in plans for request in plan}
        clear_sim_cache()
        for plan in plans:
            for request in plan:
                serial = sim(config, request.workload, request.scheme,
                             MICRO)
                assert (pooled[request.fingerprint].result_fingerprint()
                        == serial.result_fingerprint())


class TestPlanDedupe:
    def test_shared_runs_across_figures_collapse(self):
        """Figures 11-14 share their GCP sweep runs; the union of their
        plans must dedupe well below the naive total."""
        config = make_tiny_config()
        requests = plan_runs(["fig11", "fig12", "fig13", "fig14"],
                             config, MICRO)
        unique = dedupe_requests(requests)
        assert len(unique) < len(requests)
        fingerprints = {r.fingerprint for r in requests}
        assert len(unique) == len(fingerprints)

    def test_jobs_one_probes_but_does_not_compute(self, tmp_path):
        config = make_tiny_config()
        use_disk_cache(SimCache(tmp_path / "cache"))
        requests = Fig17MRSplit().plan(config, MICRO)
        summary = execute_plan(requests, jobs=1)
        expected = {
            "planned": len(requests), "unique": 4,
            "memory": 0, "disk": 0, "computed": 0,
        }
        assert {k: summary[k] for k in expected} == expected
        assert summary["failed"] == summary["quarantined"] == 0
        assert summary["failures"] == []
        assert not _SIM_CACHE  # nothing ran
