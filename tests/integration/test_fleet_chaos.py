"""Chaos tests for the supervised replica fleet.

These drive the ISSUE-8 acceptance criteria end to end, against a real
gateway on real sockets with real replica processes:

* **Failover**: a replica hard-crashing mid-coalesced-batch loses zero
  requests — its jobs re-route to the next live replica on the ring,
  every waiter gets a 200 byte-identical to the serial result, the
  breaker opens, and the supervisor respawns the slot within its
  restart budget.
* **Degraded serving**: with every replica dead and the budget
  exhausted, requests are served in-process (``source: "degraded"``)
  and ``/healthz`` reports ``"degraded"`` with per-replica breaker
  state instead of 500ing.
* **Poison containment**: a job that kills every replica it touches is
  contained as ``replica_failed`` after ``max_reroutes`` — it does not
  take down the fleet, and innocent fingerprints keep computing.
* **Health checks**: a replica whose heartbeats stop (wedged, not
  dead) is declared down by the heartbeat supervisor; a replica that
  hangs *inside* a job is caught by the parent-side job deadline.
* **In-process runs**: replicas compute their jobs in their own
  process, so a run that kills its process costs one replica and fails
  over (resuming from the shared capsule store when checkpointing is
  on), while a run that raises is retried and quarantined inside one
  replica under the engine's rules.
* **Fair deadlines and budgets**: a job's deadline counts from when its
  replica starts it, not from when it was queued; the restart budget
  caps a crash loop, not a slot's lifetime.

Faults reach replica processes through ``REPRO_FAULTS`` (fork start
method: children inherit the parent's environment); ``stamp`` files
make a crash fire exactly once across the whole fleet.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.experiments.base import clear_sim_cache
from repro.experiments.resilience import RetryPolicy
from repro.service.fleet import DEAD, FleetConfig
from repro.sim.checkpoint import CheckpointStore
from repro.service.schemas import SimRequest
from repro.service.testing import GatewayHarness
from repro.testing.faults import ENV_VAR

from .test_service_gateway import (
    raw_request,
    run_fields,
    serial_wire_payload,
)

#: Concurrent waiters sharing each doomed fingerprint.
WAITERS = 4


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def fingerprint_of(fields) -> str:
    return SimRequest.from_wire(fields).to_run_request().fingerprint


def fast_policy(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=1, deterministic_attempts=1,
                    backoff_base_s=0.01, backoff_cap_s=0.05,
                    max_pool_respawns=6)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def fast_fleet(**overrides) -> FleetConfig:
    """Replica supervision at test cadence: 0.1 s heartbeats, 0.05 s
    supervisor ticks, 0.2 s breaker cooldown."""
    defaults = dict(replicas=2, heartbeat_interval_s=0.1,
                    heartbeat_miss_limit=3, supervise_tick_s=0.05,
                    breaker_cooldown_s=0.2)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def counters_of(harness):
    return harness.gateway.registry.snapshot()["counters"]


async def _post_runs(host, port, jobs):
    """POST /run for every fields dict concurrently; returns the
    (status, headers, body) triples in order."""
    return await asyncio.gather(*[
        raw_request(host, port, "POST", "/run", body=fields)
        for fields in jobs
    ])


def test_replica_crash_mid_batch_fails_over_byte_identical(
        monkeypatch, tmp_path):
    """One replica is shot while holding a coalesced job: the job
    re-routes to a live replica, all waiters get 200s byte-identical to
    the serial result, the breaker opens, and the slot respawns within
    its budget."""
    doomed = run_fields("lbm_m", "fpb")
    innocent = run_fields("lbm_m", "ideal")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "replica_crash", "mode": "crash",
        "match": fingerprint_of(doomed),
        "stamp": str(tmp_path / "crash.stamp"),
    }]))
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=3,
                                         restart_budget=2)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        responses = harness.submit(_post_runs(
            host, port, [doomed] * WAITERS + [innocent])).result(180)

        assert [status for status, _, _ in responses] == [200] * (
            WAITERS + 1)
        doomed_expected = serial_wire_payload(doomed)
        for status, _, body in responses[:WAITERS]:
            body.pop("source")
            assert body == doomed_expected
        innocent_body = responses[-1][2]
        innocent_body.pop("source")
        assert innocent_body == serial_wire_payload(innocent)

        counters = counters_of(harness)
        assert counters["service_replica_deaths"] >= 1
        assert counters["service_replica_failovers"] >= 1
        assert counters["service_replica_breaker_opens"] >= 1
        assert counters["service_replica_restarts"] >= 1
        assert counters["service_fleet_stranded"] == 0

        # The respawned slot is back on the ring (probing or proven).
        status, _, health = harness.submit(
            raw_request(host, port, "GET", "/healthz")).result(30)
        assert status == 200
        fleet = health["fleet"]
        assert fleet["live"] >= 2
        restarted = [m for m in fleet["members"] if m["restarts"] >= 1]
        assert restarted and all(m["alive"] for m in restarted)


def test_all_replicas_down_serves_degraded(monkeypatch):
    """Every replica crashes and the restart budget is zero: the
    gateway serves in-process, labels the result ``degraded``, and
    ``/healthz`` says so instead of failing."""
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "replica_crash", "mode": "crash", "match": "",
    }]))
    fields = run_fields("mcf_m", "fpb")
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=2,
                                         restart_budget=0)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=fields)).result(180)
        assert status == 200
        assert body["source"] == "degraded"
        body.pop("source")
        assert body == serial_wire_payload(fields)

        status, _, health = harness.submit(
            raw_request(host, port, "GET", "/healthz")).result(30)
        assert status == 200
        assert health["status"] == "degraded"
        assert health["fleet"]["status"] == "degraded"
        assert health["fleet"]["live"] == 0
        assert all(m["state"] == DEAD
                   for m in health["fleet"]["members"])

        counters = counters_of(harness)
        assert counters["service_fleet_stranded"] >= 1
        assert counters["service_runs_served_degraded"] >= 1


def test_poison_job_is_contained_after_max_reroutes(monkeypatch):
    """A fingerprint that kills every replica it lands on is cut off
    after ``max_reroutes`` with a structured ``replica_failed`` error —
    while innocent fingerprints keep being served by the survivors."""
    poison = run_fields("tig_m", "fpb")
    innocent = run_fields("tig_m", "dimm+chip")
    # No stamp: the crash fires in every replica the job reaches.
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "replica_crash", "mode": "crash",
        "match": fingerprint_of(poison),
    }]))
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=2, restart_budget=4,
                                         max_reroutes=1)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=poison)).result(180)
        assert status == 500
        assert body["error"]["code"] == "replica_failed"
        assert body["error"]["retryable"] is True

        # The fleet survived the poison job and still computes.
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=innocent)).result(180)
        assert status == 200
        body.pop("source")
        assert body == serial_wire_payload(innocent)

        status, _, health = harness.submit(
            raw_request(host, port, "GET", "/healthz")).result(30)
        assert health["fleet"]["live"] >= 1
        assert counters_of(harness)["service_replica_failovers"] >= 1


def test_heartbeat_loss_declares_replica_down(monkeypatch):
    """A replica whose heartbeats stop (process alive, supervision
    signal gone) is declared down by the heartbeat watchdog; the other
    replica keeps serving."""
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "heartbeat_drop", "mode": "error", "match": "r0",
    }]))
    fields = run_fields("mix_1", "fpb")
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=2,
                                         restart_budget=1)) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if counters_of(harness).get(
                    "service_replica_heartbeat_timeouts", 0) >= 1:
                break
            time.sleep(0.05)
        counters = counters_of(harness)
        assert counters["service_replica_heartbeat_timeouts"] >= 1
        assert counters["service_replica_deaths"] >= 1

        # r1 beats on; the fleet still serves real computations.
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=fields)).result(180)
        assert status == 200
        assert body["source"] in ("computed", "disk", "degraded")
        body.pop("source")
        assert body == serial_wire_payload(fields)


def test_hung_job_is_reaped_by_the_parent_deadline(monkeypatch,
                                                   tmp_path):
    """A replica that wedges *inside* a job (heartbeats continue) is
    caught by the parent-side job deadline, the job fails over, and the
    waiter still gets the byte-identical result."""
    fields = run_fields("lbm_m", "dimm+chip")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "replica_hang", "mode": "hang", "hang_s": 60.0,
        "match": fingerprint_of(fields),
        "stamp": str(tmp_path / "hang.stamp"),
    }]))
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=2, restart_budget=1,
                                         job_timeout_s=5.0)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=fields)).result(180)
        assert status == 200
        body.pop("source")
        assert body == serial_wire_payload(fields)

        counters = counters_of(harness)
        assert counters["service_replica_deaths"] >= 1
        assert counters["service_replica_failovers"] >= 1


@pytest.mark.parametrize("point", ["worker_run", "sim_progress"])
def test_run_that_kills_its_process_costs_one_replica_and_fails_over(
        monkeypatch, tmp_path, point):
    """A run that kills its process takes its replica down: the job
    fails over and the waiter gets the byte-identical result. Killed
    at write 25 of 40 with a capsule every 10 writes, the failover
    replica resumes from the shared capsule store, and the completed
    run leaves no capsule behind."""
    fields = run_fields("lbm_m", "fpb")
    fingerprint = fingerprint_of(fields)
    expected = serial_wire_payload(fields)
    clear_sim_cache()  # the gateway must not serve it from memory
    match = fingerprint if point == "worker_run" else f"{fingerprint}:25"
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": point, "mode": "crash", "match": match,
        "stamp": str(tmp_path / "crash.stamp"),
    }]))
    ckpt_dir = tmp_path / "ckpt"
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=2, restart_budget=1,
                                         checkpoint_dir=str(ckpt_dir),
                                         checkpoint_every=10)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=fields)).result(180)
        assert status == 200
        assert body.pop("source") == "computed"
        assert body == expected

        counters = counters_of(harness)
        assert counters["service_replica_deaths"] >= 1
        assert counters["service_replica_failovers"] >= 1
    store = CheckpointStore(ckpt_dir)
    assert not list(store.dir_for(fingerprint).glob("*.ckpt"))


def test_deterministic_raise_is_quarantined_inside_one_replica(
        monkeypatch):
    """A run that raises the same error twice executes both attempts
    in its replica and is quarantined with the engine's message; no
    replica dies for it."""
    fields = run_fields("mix_1", "dimm+chip")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "error", "error": "ValueError",
        "match": fingerprint_of(fields),
    }]))
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(deterministic_attempts=2),
                        fleet=fast_fleet(replicas=2)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        status, _, body = harness.submit(
            raw_request(host, port, "POST", "/run",
                        body=fields)).result(180)
        assert status == 500
        assert body["error"]["code"] == "run_failed"
        assert body["error"]["message"].startswith("ValueError: ")
        assert body["error"]["message"].endswith(
            "(quarantine after 2 attempt(s))")
        assert counters_of(harness)["service_replica_deaths"] == 0


def test_run_deadline_counts_from_when_the_replica_starts_the_job(
        monkeypatch):
    """One replica runs a batch one job at a time, so jobs wait in its
    inbox. Each run takes about half the per-run ``--timeout``; all
    three still finish, because the deadline counts from when the
    replica starts each job, not from when the batch was queued."""
    jobs = [run_fields("tig_m", scheme)
            for scheme in ("fpb", "ideal", "dimm+chip")]
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "hang", "hang_s": 2.0, "match": "",
    }]))
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(run_timeout_s=4.0),
                        fleet=fast_fleet(replicas=1)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        responses = harness.submit(_post_runs(host, port, jobs)).result(180)

        assert [status for status, _, _ in responses] == [200] * len(jobs)
        for (_, _, body), fields in zip(responses, jobs):
            assert body.pop("source") == "computed"
            assert body == serial_wire_payload(fields)
        counters = counters_of(harness)
        assert counters["service_replica_deaths"] == 0
        assert counters["service_replica_failovers"] == 0


def test_restart_budget_counts_a_crash_loop_not_a_lifetime(monkeypatch,
                                                          tmp_path):
    """The restart budget caps respawns in a row without a completed
    job. A slot whose respawned replica completes a job between crashes
    outlives more crashes than its budget, and keeps computing."""
    budget = 1
    crashing = [run_fields("tig_m", "fpb"), run_fields("mcf_m", "fpb")]
    innocent = [run_fields("tig_m", "ideal"), run_fields("mcf_m", "ideal")]
    assert len(crashing) == budget + 1
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "replica_crash", "mode": "crash",
        "match": fingerprint_of(fields),
        "stamp": str(tmp_path / f"crash{i}.stamp"),
    } for i, fields in enumerate(crashing)]))
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        policy=fast_policy(),
                        fleet=fast_fleet(replicas=1,
                                         restart_budget=budget)) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        for doomed, fine in zip(crashing, innocent):
            # The lone replica dies, so the gateway serves the job on
            # its degraded in-process path...
            status, _, body = harness.submit(
                raw_request(host, port, "POST", "/run",
                            body=doomed)).result(180)
            assert status == 200
            assert body.pop("source") == "degraded"
            assert body == serial_wire_payload(doomed)
            # ...and the respawned replica computes the next one.
            status, _, body = harness.submit(
                raw_request(host, port, "POST", "/run",
                            body=fine)).result(180)
            assert status == 200
            assert body.pop("source") == "computed"
            assert body == serial_wire_payload(fine)

        counters = counters_of(harness)
        assert counters["service_replica_deaths"] == budget + 1
        assert counters["service_replica_restarts"] == budget + 1
        status, _, health = harness.submit(
            raw_request(host, port, "GET", "/healthz")).result(30)
        assert health["fleet"]["live"] == 1
        (member,) = health["fleet"]["members"]
        assert member["alive"] and member["state"] != DEAD
