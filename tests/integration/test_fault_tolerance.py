"""Chaos tests: the engine's resilience claims under injected faults.

Each test drives a real ``ProcessPoolExecutor`` through a deterministic
fault plan (:mod:`repro.testing.faults`): a worker hard-crashing (the
pool breaks), a worker hanging past the wall-clock budget, cache bytes
corrupted at store time, and the cache directory failing every write.
The common bar — the acceptance criterion of the robustness work — is
*partial-result semantics*: the unaffected runs complete with results
identical to a serial execution, the failure is recorded (summary,
failed-run registry, manifest), and nothing hangs or unwinds the plan.

Faults reach worker processes through the ``REPRO_FAULTS`` environment
variable (inherited at fork) and the parent process through
``install_faults``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import RunFailedError
from repro.experiments import engine
from repro.experiments.base import (
    RunRequest,
    RunScale,
    _SIM_CACHE,
    clear_failed_runs,
    clear_sim_cache,
    execute_request,
    failed_runs,
    fetch,
    mark_run_failed,
    use_disk_cache,
    use_telemetry,
)
from repro.experiments.batch import partition_cohorts
from repro.experiments.engine import dedupe_requests, execute_plan
from repro.experiments.fig17_mr_split import Fig17MRSplit
from repro.experiments.resilience import RetryPolicy
from repro.obs import Telemetry
from repro.sim.simcache import SimCache
from repro.testing.faults import (
    ENV_VAR,
    FaultSpec,
    clear_faults,
    install_faults,
)

from ..conftest import count_worker_runs, make_tiny_config

MICRO = RunScale("micro", 30, 8_000, ("tig_m",))


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def micro_plan(config):
    """Fig. 17's deduplicated run set: 3 Multi-RESET splits + baseline."""
    return dedupe_requests(Fig17MRSplit().plan(config, MICRO))


def serial_truth(config, requests):
    """Ground truth per fingerprint, computed in this process and
    uncached."""
    truth = {}
    for request in requests:
        result = execute_request(
            RunRequest(config, request.workload, request.scheme, MICRO))
        truth[request.fingerprint] = (
            result.cycles, result.cpi, result.stats.snapshot(),
        )
    return truth


def budget_sweep(n_budgets: int = 4):
    """A ``tig_m`` DIMM-budget sweep: one trace structure, so a single
    worker runs it as one cohort."""
    config = make_tiny_config()
    return [RunRequest(config.with_dimm_tokens(400.0 + 66.0 * i),
                       "tig_m", "fpb", MICRO)
            for i in range(n_budgets)]


def sweep_truth(requests):
    """Ground truth per fingerprint for requests with their own
    configs, computed in this process and uncached."""
    truth = {}
    for request in requests:
        result = execute_request(request)
        truth[request.fingerprint] = (
            result.cycles, result.cpi, result.stats.snapshot(),
        )
    return truth


class UnpicklableError(RuntimeError):
    """An exception that cannot cross a process boundary."""

    def __reduce__(self):
        raise TypeError("UnpicklableError cannot be pickled")


def wait_for_no_children(timeout_s: float = 10.0):
    deadline = time.monotonic() + timeout_s
    while (multiprocessing.active_children()
           and time.monotonic() < deadline):
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestWorkerCrash:
    def test_crash_is_isolated_and_the_plan_completes(self, tmp_path,
                                                      monkeypatch):
        """One of four runs hard-kills its worker on every attempt. Its
        slot's break names it, so it is charged and only that slot is
        rebuilt; the three innocents finish bit-identical to serial,
        the culprit fails terminally after its retry budget."""
        config = make_tiny_config()
        requests = micro_plan(config)
        assert len(requests) == 4
        target = requests[1]
        survivors = [r for r in requests if r is not target]
        truth = serial_truth(config, survivors)

        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "crash",
            "match": target.fingerprint,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                             backoff_cap_s=0.05, max_pool_respawns=8)
        summary = execute_plan(requests, jobs=2, policy=policy)

        assert summary["computed"] == 3
        assert summary["failed"] == 1
        assert summary["quarantined"] == 0
        assert summary["retried"] == 1          # one charged retry
        assert summary["pool_respawns"] >= 2    # the break + isolated rerun
        [failure] = summary["failures"]
        assert failure["fingerprint"] == target.fingerprint
        assert failure["error_type"] == "BrokenProcessPool"
        assert failure["failure_class"] == "transient"
        assert failure["verdict"] == "fail"
        assert failure["attempts"] == 2
        assert target.fingerprint in failed_runs()

        # Partial results are exact, not merely close.
        for fingerprint, (cycles, cpi, snapshot) in truth.items():
            got = _SIM_CACHE[fingerprint]
            assert got.cycles == cycles
            assert got.cpi == cpi
            assert got.stats.snapshot() == snapshot

        # The experiment reports the proven-failed run instead of
        # blindly re-executing (and re-crashing on) it.
        with pytest.raises(RunFailedError, match="BrokenProcessPool"):
            Fig17MRSplit().run(config, MICRO)

    def test_replanning_gives_the_run_a_fresh_chance(self, tmp_path,
                                                     monkeypatch):
        """After the faulty environment clears, re-planning the same
        runs must succeed — terminal failures are per-plan, not forever."""
        config = make_tiny_config()
        requests = micro_plan(config)
        target = requests[0]
        stamp = tmp_path / "crash.stamp"
        # A cross-process one-shot: exactly one worker, once, ever.
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "crash",
            "match": target.fingerprint, "stamp": str(stamp),
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        summary = execute_plan(requests, jobs=2, policy=policy)
        # The single crash was absorbed: retried (or isolated) to success.
        assert summary["failed"] == summary["quarantined"] == 0
        assert summary["computed"] == 4
        assert stamp.exists()
        assert failed_runs() == {}

    def test_crash_in_a_cohort_charges_the_member_running(self, tmp_path,
                                                         monkeypatch):
        """One worker runs a 4-run cohort whose second member kills it
        on every attempt. Only that member was running, so it is the
        proven culprit and is charged; the member finished before it is
        kept and the two after it run once each."""
        requests = budget_sweep()
        [cohort] = partition_cohorts(requests, 1)
        target = cohort.members[1]
        executions = tmp_path / "executions.log"
        count_worker_runs(monkeypatch, executions)
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "crash",
            "match": target.fingerprint,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        summary = execute_plan(requests, jobs=1, policy=policy)

        assert summary["computed"] == 3
        assert summary["failed"] == 1
        assert summary["retried"] == 1
        assert summary["pool_respawns"] == 2    # the break + its retry
        [failure] = summary["failures"]
        assert failure["fingerprint"] == target.fingerprint
        assert failure["error_type"] == "BrokenProcessPool"
        keys = executions.read_text().splitlines()
        for request in requests:
            runs = sum(request.fingerprint in key for key in keys)
            assert runs == (2 if request is target else 1)


class TestRespawnBudget:
    def test_budget_exhaustion_fails_outstanding_not_hangs(self, tmp_path,
                                                           monkeypatch):
        """Every run crashes its worker; with a respawn budget of 1 the
        engine must give up promptly — failing everything outstanding —
        rather than thrash pools or spin forever."""
        config = make_tiny_config()
        requests = micro_plan(config)
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "crash",
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                             max_pool_respawns=1)
        summary = execute_plan(requests, jobs=2, policy=policy)
        assert summary["computed"] == 0
        assert summary["failed"] == len(requests)
        assert summary["pool_respawns"] == 2  # the allowed one + the fatal one
        assert len(summary["failures"]) == len(requests)
        for request in requests:
            assert request.fingerprint in failed_runs()


class TestHungWorker:
    def test_hang_is_abandoned_and_the_innocent_completes(self, tmp_path,
                                                          monkeypatch):
        """A worker sleeping far past the wall-clock budget is killed,
        not waited on; the innocent run's result is kept and the hung
        run is charged a WorkerTimeoutError."""
        config = make_tiny_config()
        innocent = RunRequest(config, "tig_m", "dimm+chip", MICRO)
        hung = RunRequest(config, "tig_m", "ipm+mr3", MICRO)
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "hang", "hang_s": 120.0,
            "match": hung.fingerprint,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(max_attempts=1, run_timeout_s=3.0,
                             backoff_base_s=0.01)
        summary = execute_plan([innocent, hung], jobs=2, policy=policy)

        assert summary["computed"] == 1
        assert summary["timeouts"] == 1
        assert summary["failed"] == 1
        assert summary["pool_respawns"] == 1
        [failure] = summary["failures"]
        assert failure["fingerprint"] == hung.fingerprint
        assert failure["error_type"] == "WorkerTimeoutError"
        assert failure["failure_class"] == "transient"
        assert innocent.fingerprint in _SIM_CACHE
        assert hung.fingerprint in failed_runs()

        # "Abandoned" must mean killed: a worker left sleeping would
        # stall interpreter exit until its (long) sleep finishes.
        assert wait_for_no_children() == []

    def test_hang_inside_a_cohort_costs_one_deadline(self, tmp_path,
                                                     monkeypatch):
        """On one worker the innocent and the hung run form one cohort.
        The worker reports each member as it finishes, so the watchdog
        names the hung member itself: one timeout, one pool respawn,
        the same as a hung run alone."""
        config = make_tiny_config()
        innocent = RunRequest(config, "tig_m", "dimm+chip", MICRO)
        hung = RunRequest(config, "tig_m", "ipm+mr3", MICRO)
        assert len(partition_cohorts([innocent, hung], 1)) == 1
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "hang", "hang_s": 120.0,
            "match": hung.fingerprint,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        telemetry = Telemetry()
        use_telemetry(telemetry)
        policy = RetryPolicy(max_attempts=1, run_timeout_s=3.0,
                             backoff_base_s=0.01)
        summary = execute_plan([innocent, hung], jobs=1, policy=policy)

        assert summary["computed"] == 1
        assert innocent.fingerprint in _SIM_CACHE
        assert summary["timeouts"] == 1
        assert summary["failed"] == 1
        assert summary["pool_respawns"] == 1
        [failure] = summary["failures"]
        assert failure["fingerprint"] == hung.fingerprint
        assert failure["error_type"] == "WorkerTimeoutError"
        actions = [r["action"] for r in telemetry.resilience_events
                   if r["type"] == "batch_cohort"]
        assert actions.count("dissolved") == 1
        assert wait_for_no_children() == []

    def test_hang_in_a_large_cohort_is_reaped_after_one_budget(
            self, tmp_path, monkeypatch):
        """A 4-run cohort whose second member hangs. The budget restarts
        as each member finishes, so the hang is reaped one budget after
        it began, not four; the member that finished before it is kept,
        and the two after it run once each in the fresh pool."""
        requests = budget_sweep()
        [cohort] = partition_cohorts(requests, 1)
        hung = cohort.members[1]
        truth = sweep_truth([r for r in requests if r is not hung])
        executions = tmp_path / "executions.log"
        count_worker_runs(monkeypatch, executions)
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "hang", "hang_s": 120.0,
            "match": hung.fingerprint,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        budget = 3.0
        policy = RetryPolicy(max_attempts=1, run_timeout_s=budget)
        start = time.monotonic()
        summary = execute_plan(requests, jobs=1, policy=policy)
        elapsed = time.monotonic() - start

        assert elapsed < 3 * budget   # a cohort-sized budget is 4 × 3 s
        assert summary["computed"] == 3
        assert summary["timeouts"] == summary["failed"] == 1
        assert summary["pool_respawns"] == 1
        [failure] = summary["failures"]
        assert failure["fingerprint"] == hung.fingerprint
        keys = executions.read_text().splitlines()
        for request in requests:
            assert sum(request.fingerprint in key for key in keys) == 1
        for fingerprint, (cycles, cpi, snapshot) in truth.items():
            got = _SIM_CACHE[fingerprint]
            assert (got.cycles, got.cpi) == (cycles, cpi)
            assert got.stats.snapshot() == snapshot
        assert wait_for_no_children() == []


def worker_of(telemetry, request):
    """The pid of the worker that computed ``request``."""
    [pid] = {event["worker"] for event in telemetry.sim_requests
             if event["fingerprint"] == request.fingerprint
             and event["source"] == "computed"}
    return pid


def cohort_actions(telemetry, cohort):
    return [(event["action"], event["delivered"])
            for event in telemetry.resilience_events
            if event["type"] == "batch_cohort"
            and event["size"] == cohort.size]


class TestSlotFailures:
    """A slot holds one worker, so a crash or a hang names the member
    that worker was running. The other slot's cohort runs on: its
    worker is never replaced and none of its members requeue."""

    def plan_on_two_slots(self, monkeypatch, n_runs):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        requests = budget_sweep(n_runs)
        cohorts = partition_cohorts(requests, 2)
        assert len(cohorts) == 2
        return requests, cohorts

    def test_crash_leaves_the_other_slot_running(self, tmp_path,
                                                 monkeypatch):
        requests, (innocent, doomed) = self.plan_on_two_slots(
            monkeypatch, 4)
        assert innocent.size == doomed.size == 2
        truth = sweep_truth(requests)
        telemetry = Telemetry()
        use_telemetry(telemetry)
        executions = tmp_path / "executions.log"
        count_worker_runs(monkeypatch, executions)
        monkeypatch.setenv(ENV_VAR, json.dumps([
            # Keeps the innocent cohort in flight when the crash lands.
            {"point": "worker_run", "mode": "hang", "hang_s": 1.5,
             "match": innocent.members[0].fingerprint},
            {"point": "worker_run", "mode": "crash",
             "match": doomed.members[0].fingerprint,
             "stamp": str(tmp_path / "crash.stamp")},
        ]))
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                             backoff_cap_s=0.05)
        with engine.WorkerPool(2) as pool:
            summary = execute_plan(requests, jobs=2, policy=policy,
                                   pool=pool)
            survivors = {slot.process.pid for slot in pool.slots
                         if slot.executor is not None}

        assert summary["computed"] == 4
        assert summary["retried"] == summary["pool_respawns"] == 1
        assert summary["failed"] == 0
        [pid] = {worker_of(telemetry, r) for r in innocent.members}
        assert pid in survivors
        assert ("executed", 2) in cohort_actions(telemetry, innocent)
        keys = executions.read_text().splitlines()
        for request in innocent.members:
            assert sum(request.fingerprint in key for key in keys) == 1
        for fingerprint, (cycles, cpi, snapshot) in truth.items():
            got = _SIM_CACHE[fingerprint]
            assert (got.cycles, got.cpi) == (cycles, cpi)
            assert got.stats.snapshot() == snapshot
        assert wait_for_no_children() == []

    def test_hang_kills_only_the_hung_slot(self, tmp_path, monkeypatch):
        requests, cohorts = self.plan_on_two_slots(monkeypatch, 3)
        telemetry = Telemetry()
        use_telemetry(telemetry)
        innocent = max(cohorts, key=lambda cohort: cohort.size)
        [hung] = min(cohorts, key=lambda cohort: cohort.size).members
        executions = tmp_path / "executions.log"
        count_worker_runs(monkeypatch, executions)
        # Each innocent member sleeps within its budget, so the innocent
        # cohort is still running when the hung member's budget ends.
        monkeypatch.setenv(ENV_VAR, json.dumps(
            [{"point": "worker_run", "mode": "hang", "hang_s": 120.0,
              "match": hung.fingerprint}]
            + [{"point": "worker_run", "mode": "hang", "hang_s": 2.5,
                "match": request.fingerprint}
               for request in innocent.members]))
        policy = RetryPolicy(max_attempts=1, run_timeout_s=4.0)
        with engine.WorkerPool(2) as pool:
            summary = execute_plan(requests, jobs=2, policy=policy,
                                   pool=pool)
            survivors = {slot.process.pid for slot in pool.slots
                         if slot.executor is not None}

        assert summary["computed"] == 2
        assert summary["timeouts"] == summary["failed"] == 1
        assert summary["pool_respawns"] == 1
        [failure] = summary["failures"]
        assert failure["fingerprint"] == hung.fingerprint
        assert failure["error_type"] == "WorkerTimeoutError"
        [pid] = {worker_of(telemetry, r) for r in innocent.members}
        assert survivors == {pid}
        assert cohort_actions(telemetry, innocent) == [("executed", 2)]
        keys = executions.read_text().splitlines()
        for request in requests:
            assert sum(request.fingerprint in key for key in keys) == 1
        assert wait_for_no_children() == []

    def test_worker_dead_between_plans_is_rebuilt_uncharged(self):
        """A slot whose worker died while idle is rebuilt before its
        next task, and that task's run is not charged for it."""
        config = make_tiny_config()
        first, second = (RunRequest(config, "tig_m", scheme, MICRO)
                         for scheme in ("fpb", "ideal"))
        with engine.WorkerPool(1) as pool:
            [slot] = pool.slots
            execute_plan([first], jobs=1, pool=pool)
            dead = slot.process.pid
            os.kill(dead, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while slot.alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            summary = execute_plan([second], jobs=1, pool=pool)
            assert slot.process.pid != dead

        assert summary["computed"] == 1
        assert summary["retried"] == summary["failed"] == 0
        assert summary["pool_respawns"] == 0
        assert wait_for_no_children() == []


class TestQueueTime:
    def test_deadline_starts_when_a_worker_takes_the_run(self, tmp_path,
                                                         monkeypatch):
        """Four runs of one second each on one worker under a 2.5 s
        per-run budget: each run's clock starts when the worker takes
        it, so none is charged for the time it spent queued."""
        requests = [RunRequest(make_tiny_config(seed=seed), "tig_m", "fpb",
                               MICRO)
                    for seed in (1, 2, 3, 4)]
        assert len(partition_cohorts(requests, 1)) == 4
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "hang", "hang_s": 1.0,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(max_attempts=1, run_timeout_s=2.5)
        summary = execute_plan(requests, jobs=1, policy=policy)
        assert summary["timeouts"] == 0
        assert summary["computed"] == 4

    def test_plans_sharing_a_pool_take_turns(self, monkeypatch):
        """Two threads each run a plan on one single-worker pool, as the
        gateway's dispatcher and an exploration do. The second plan
        waits for the first to finish, so neither run is charged for
        the time the other held the worker."""
        requests = [RunRequest(make_tiny_config(seed=seed), "tig_m", "fpb",
                               MICRO)
                    for seed in (1, 2)]
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "hang", "hang_s": 2.0,
        }]))
        policy = RetryPolicy(max_attempts=1, run_timeout_s=3.5)
        with engine.WorkerPool(1) as pool, \
                ThreadPoolExecutor(max_workers=2) as threads:
            futures = [threads.submit(execute_plan, [request], jobs=1,
                                      policy=policy, pool=pool)
                       for request in requests]
            summaries = [future.result(timeout=120) for future in futures]
        for summary in summaries:
            assert summary["computed"] == 1
            assert summary["timeouts"] == summary["pool_respawns"] == 0


class TestMemberFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_member_is_judged_once_per_execution(self, tmp_path,
                                                         monkeypatch, jobs):
        """One member of a budget sweep raises a deterministic
        RuntimeError. Its exception comes back from the cohort and the
        supervisor judges it directly: a confirmation retry, then
        quarantine — exactly two executions. The other runs of its
        cohort complete bit-identical to serial."""
        requests = budget_sweep()
        target = requests[1]
        survivors = [r for r in requests if r is not target]
        truth = sweep_truth(survivors)
        executions = tmp_path / "executions.log"
        count_worker_runs(monkeypatch, executions)
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "error", "error": "RuntimeError",
            "match": target.fingerprint,
        }]))
        use_disk_cache(SimCache(tmp_path / "cache"))
        policy = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05)
        summary = execute_plan(requests, jobs=jobs, policy=policy)

        assert summary["quarantined"] == 1
        assert summary["failed"] == 0
        assert summary["computed"] == 3
        [failure] = summary["failures"]
        assert failure["fingerprint"] == target.fingerprint
        assert failure["error_type"] == "RuntimeError"
        assert failure["verdict"] == "quarantine"
        keys = executions.read_text().splitlines()
        assert sum(target.fingerprint in key for key in keys) == 2
        for fingerprint, (cycles, cpi, snapshot) in truth.items():
            got = _SIM_CACHE[fingerprint]
            assert (got.cycles, got.cpi) == (cycles, cpi)
            assert got.stats.snapshot() == snapshot

    def test_member_exception_that_cannot_cross_processes(self, tmp_path,
                                                          monkeypatch):
        """A member's exception that will not pickle ends its cohort
        task at that member: the cohort dissolves, the member is charged
        the pickling error and quarantined, and the other runs complete
        bit-identical to serial."""
        requests = budget_sweep()
        target = requests[2]
        survivors = [r for r in requests if r is not target]
        truth = sweep_truth(survivors)
        execute_one = engine._execute_one

        def execute_or_fail(request, obs):
            if request.fingerprint == target.fingerprint:
                raise UnpicklableError("injected")
            return execute_one(request, obs)

        monkeypatch.setattr(engine, "_execute_one", execute_or_fail)
        use_disk_cache(SimCache(tmp_path / "cache"))
        telemetry = Telemetry()
        use_telemetry(telemetry)
        policy = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05)
        summary = execute_plan(requests, jobs=1, policy=policy)

        assert summary["computed"] == 3
        assert summary["quarantined"] == 1
        [failure] = summary["failures"]
        assert failure["fingerprint"] == target.fingerprint
        assert failure["error_type"] == "TypeError"
        actions = [r["action"] for r in telemetry.resilience_events
                   if r["type"] == "batch_cohort"]
        assert actions.count("dissolved") == 1
        # The run_failure record alone names the quarantine.
        [record] = [r for r in telemetry.resilience_events
                    if r["type"] == "run_failure"]
        assert record["verdict"] == "quarantine"
        assert not [r for r in telemetry.resilience_events
                    if r["type"] == "quarantine"]
        for fingerprint, (cycles, cpi, snapshot) in truth.items():
            got = _SIM_CACHE[fingerprint]
            assert (got.cycles, got.cpi) == (cycles, cpi)
            assert got.stats.snapshot() == snapshot


class TestCorruptedStoreDuringParallelRun:
    def test_detected_and_recomputed_identically(self, tmp_path):
        """Bytes corrupted on their way to disk during a parallel plan:
        the self-verifying entry is rejected on the next read and the
        run recomputes to the identical result."""
        config = make_tiny_config()
        requests = micro_plan(config)
        target = requests[0]
        cache = SimCache(tmp_path / "cache")
        use_disk_cache(cache)
        install_faults([FaultSpec(point="cache_corrupt", mode="corrupt",
                                  match=target.fingerprint, times=1)])
        summary = execute_plan(requests, jobs=2)
        clear_faults()
        assert summary["computed"] == 4
        assert summary["failed"] == 0
        original = _SIM_CACHE[target.fingerprint]

        # A fresh process (cold memory cache) probes the disk cache:
        # three valid entries hit, the corrupted one is detected.
        clear_sim_cache()
        use_disk_cache(cache)
        summary2 = execute_plan(requests, jobs=2)
        assert cache.corrupt == 1
        assert summary2["disk"] == 3
        assert summary2["computed"] == 1
        recomputed = _SIM_CACHE[target.fingerprint]
        assert recomputed.cycles == original.cycles
        assert recomputed.cpi == original.cpi
        assert recomputed.stats.snapshot() == original.stats.snapshot()


class TestCachePutErrors:
    def test_failing_disk_never_fails_the_plan(self, tmp_path):
        """Every store raises OSError (disk full): the plan and the
        experiment still complete entirely from the memory cache."""
        config = make_tiny_config()
        requests = micro_plan(config)
        cache = SimCache(tmp_path / "cache")
        use_disk_cache(cache)
        install_faults([FaultSpec(point="cache_put", error="OSError",
                                  message="no space left on device")])
        summary = execute_plan(requests, jobs=2)
        clear_faults()
        assert summary["computed"] == 4
        assert summary["failed"] == 0
        assert cache.store_errors == 4
        assert cache.stores == 0
        assert len(cache) == 0  # nothing persisted...
        result = Fig17MRSplit().run(config, MICRO)  # ...yet this renders
        assert result.rows


class TestFailedRunRegistry:
    def test_marked_run_raises_instead_of_executing(self):
        config = make_tiny_config()
        request = RunRequest(config, "tig_m", "fpb", MICRO)
        mark_run_failed(request.fingerprint,
                        "OSError: boom (fail after 3 attempt(s))")
        with pytest.raises(RunFailedError, match="boom") as info:
            fetch(request)
        assert info.value.fingerprint == request.fingerprint
        # Clearing the registry (what a re-plan does) restores the run.
        clear_failed_runs([request.fingerprint])
        execute_plan([request])
        assert fetch(request).cycles > 0


class TestCLIAcceptance:
    """The acceptance bar, driven through the real CLI: a fault injected
    into 1 of N planned runs, ``run --keep-going`` completes the other
    N-1 bit-identical to serial, marks the failure in the manifest and
    summary, and exits nonzero, at the default ``--jobs 1`` as at
    ``--jobs 2``."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_keep_going_run_with_injected_crash(self, tmp_path,
                                                monkeypatch, jobs):
        from repro.experiments import cli
        from repro.experiments.base import SCALES

        # Register the test scale and shrink the system so the four
        # fig17 runs stay sub-second; fingerprints then line up with the
        # serial ground truth below.
        monkeypatch.setitem(SCALES, "micro", MICRO)
        monkeypatch.setattr(cli, "baseline_config",
                            lambda seed=1: make_tiny_config(seed=seed))
        config = make_tiny_config(seed=1)
        requests = micro_plan(config)
        target = requests[2]
        truth = serial_truth(config,
                             [r for r in requests if r is not target])
        monkeypatch.setenv(ENV_VAR, json.dumps([{
            "point": "worker_run", "mode": "crash",
            "match": target.fingerprint,
        }]))

        manifest = tmp_path / "manifest.jsonl"
        out_dir = tmp_path / "out"
        exit_code = cli.main([
            "run", "fig17", "tab1", "--scale", "micro", "--jobs", jobs,
            "--keep-going", "--retries", "1", "--seed", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(manifest),
            "--out", str(out_dir), "-q",
        ])
        assert exit_code == 1  # a partial sweep is not success

        # The N-1 surviving runs completed, bit-identical to serial.
        for fingerprint, (cycles, cpi, snapshot) in truth.items():
            got = _SIM_CACHE[fingerprint]
            assert (got.cycles, got.cpi) == (cycles, cpi)
            assert got.stats.snapshot() == snapshot

        # --keep-going: the affected experiment is marked FAILED on
        # disk, the unaffected one still renders.
        assert "FAILED" in (out_dir / "fig17.txt").read_text()
        assert (out_dir / "tab1.txt").read_text().strip()

        # The manifest tells the whole story.
        records = [json.loads(line)
                   for line in manifest.read_text().splitlines()]
        types = [record.get("type") for record in records]
        assert "retry" in types
        assert "pool_respawn" in types
        [failure] = [r for r in records
                     if r.get("type") == "run_failure"]
        assert failure["fingerprint"] == target.fingerprint
        assert failure["verdict"] == "fail"
        assert failure["failure_class"] == "transient"
        [plan] = [r for r in records if r.get("type") == "plan_summary"]
        assert plan["failed"] == 1
        assert plan["computed"] == 3
        [header] = [r for r in records if r.get("type") == "run_header"]
        assert header["exit_code"] == 1
        assert header["interrupted"] is False

    def test_check_flag_promotes_shape_discrepancies(self, monkeypatch):
        from repro.experiments import checks, cli

        monkeypatch.setattr(checks, "check_result",
                            lambda result: ["forced discrepancy"])
        base = ["run", "tab1", "--no-cache", "-q"]
        assert cli.main(base) == 0               # report-only by default
        assert cli.main(base + ["--check"]) == 1

    def test_interrupt_exits_130_and_still_writes_manifest(self, tmp_path,
                                                           monkeypatch):
        from repro.experiments import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "plan_runs", interrupted)
        manifest = tmp_path / "manifest.jsonl"
        exit_code = cli.main([
            "run", "fig17", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(manifest), "-q",
        ])
        assert exit_code == 130  # the conventional 128+SIGINT
        records = [json.loads(line)
                   for line in manifest.read_text().splitlines()]
        [header] = [r for r in records if r.get("type") == "run_header"]
        assert header["exit_code"] == 130
        assert header["interrupted"] is True


class TestInterrupt:
    def test_engine_interrupt_tears_down_and_reraises(self, tmp_path,
                                                      monkeypatch):
        """KeyboardInterrupt mid-plan must propagate promptly — the pool
        (with possibly-running workers) is terminated, not joined."""
        import repro.experiments.engine as engine_mod

        config = make_tiny_config()
        requests = micro_plan(config)
        use_disk_cache(SimCache(tmp_path / "cache"))

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine_mod, "wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            execute_plan(requests, jobs=2)
