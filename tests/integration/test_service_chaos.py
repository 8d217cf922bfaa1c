"""Chaos tests for the service path.

The gateway inherits the engine's failure supervision; these tests
prove the *service* half of the contract with injected faults
(:mod:`repro.testing.faults`, delivered to engine workers through the
``REPRO_FAULTS`` environment):

* a worker hard-crashing mid-coalesced-run fails **every** waiter with
  the **same** structured ``run_failed`` error — nobody hangs, nobody
  gets a different story, and innocent concurrent fingerprints still
  complete;
* a hung run is reaped by the engine watchdog and surfaces the same
  way — the connection never dangles;
* a failure is not sticky: once the fault is gone, re-requesting the
  fingerprint computes cleanly (the engine re-plans failed runs);
* a run that crashes or hangs its worker once is retried on a fresh
  worker and answered with the serial bytes, while the other slot's
  worker runs on; a deterministic raise executes twice and is
  quarantined; and the worker respawn budget is counted per plan, not
  over the gateway's lifetime;
* a run's deadline counts from when a worker takes it, so runs queued
  behind others in a batch are not charged for the wait.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.experiments.base import clear_sim_cache
from repro.experiments.resilience import RetryPolicy
from repro.service.schemas import SimRequest
from repro.service.testing import GatewayHarness
from repro.testing.faults import ENV_VAR, clear_faults

from ..conftest import count_worker_runs
from .test_service_gateway import (
    MICRO_FIELDS,
    raw_request,
    run_fields,
    serial_wire_payload,
)

#: How many concurrent waiters share the doomed run.
WAITERS = 5


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def fingerprint_of(fields) -> str:
    return SimRequest.from_wire(fields).to_run_request().fingerprint


def worker_pids(path, fields):
    """The pids of the workers that started ``fields``' run, in order."""
    fingerprint = fingerprint_of(fields)
    return [int(line.split()[0]) for line in path.read_text().splitlines()
            if fingerprint in line]


def expected_payloads(*runs):
    """The serial wire payload of each run, with the memory cache
    emptied afterwards so the gateway has to compute them."""
    payloads = {fingerprint_of(fields): serial_wire_payload(fields)
                for fields in runs}
    clear_sim_cache()
    return payloads


def fast_policy(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=1, deterministic_attempts=1,
                    backoff_base_s=0.01, backoff_cap_s=0.05,
                    max_pool_respawns=6)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def test_worker_crash_fails_all_coalesced_waiters(monkeypatch):
    """Five requests coalesce onto one run whose worker hard-crashes on
    every attempt: all five get the same structured error, the innocent
    concurrent fingerprint completes, and nothing is stranded."""
    doomed = run_fields("mcf_m", "fpb")
    innocent = run_fields("mcf_m", "ideal")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "crash",
        "match": fingerprint_of(doomed),
    }]))
    with GatewayHarness(jobs=2, queue_limit=16, batch_max=8,
                        policy=fast_policy()) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            return await asyncio.gather(
                *(raw_request(host, port, "POST", "/run", doomed)
                  for _ in range(WAITERS)),
                raw_request(host, port, "POST", "/run", innocent),
            )

        *failed, ok = asyncio.run(drive())
        health = harness.client().healthz()
        metrics = harness.client().metrics()["metrics"]

    # The innocent fingerprint is unharmed.
    status, _, payload = ok
    assert status == 200
    assert payload["scheme"] == "ideal"

    # Every waiter of the doomed run: same status, same structured body.
    bodies = set()
    for status, _, body in failed:
        assert status == 500
        error = body["error"]
        assert error["code"] == "run_failed"
        assert error["retryable"] is False
        assert error["fingerprint"] == fingerprint_of(doomed)
        assert "BrokenProcessPool" in error["message"] \
            or "crash" in error["message"].lower()
        bodies.add(json.dumps(body, sort_keys=True))
    assert len(bodies) == 1, "waiters got different error stories"

    # Nothing stranded: the coalescing map drained, one engine failure.
    assert health["coalescing"]["inflight"] == 0
    assert health["coalescing"]["followers"] >= WAITERS - 1
    assert metrics["counters"]["service_runs_failed"] == 1
    assert metrics["counters"]["service_runs_computed"] == 1


def test_hung_run_is_reaped_not_dangled(monkeypatch):
    """A run that hangs its worker forever: the engine watchdog reaps
    it within the policy budget and the gateway answers with the
    structured failure instead of holding the connection open."""
    doomed = run_fields("tig_m", "fpb")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "hang",
        "match": fingerprint_of(doomed), "hang_s": 600.0,
    }]))
    with GatewayHarness(jobs=1, queue_limit=8, batch_max=4,
                        policy=fast_policy(run_timeout_s=3.0)
                        ) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            return await asyncio.gather(
                raw_request(host, port, "POST", "/run", doomed),
                raw_request(host, port, "POST", "/run", doomed),
            )

        responses = asyncio.run(drive())
        health = harness.client().healthz()

    for status, _, body in responses:
        assert status == 500
        assert body["error"]["code"] == "run_failed"
    assert health["coalescing"]["inflight"] == 0


def test_failure_is_not_sticky_after_fault_clears(monkeypatch):
    """The crash was environmental, not semantic: once the fault plan
    is gone, the same fingerprint computes cleanly on the next request
    (the engine gives failed runs a fresh chance per plan)."""
    doomed = run_fields("lbm_m", "fpb")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "crash",
        "match": fingerprint_of(doomed),
    }]))
    with GatewayHarness(jobs=1, queue_limit=8, batch_max=4,
                        policy=fast_policy()) as harness:
        client = harness.client(timeout_s=120)
        host, port = harness.gateway.host, harness.gateway.port

        async def one():
            return await raw_request(host, port, "POST", "/run", doomed)

        status, _, body = asyncio.run(one())
        assert status == 500
        assert body["error"]["code"] == "run_failed"

        # Fault gone -> new worker pools are clean -> the retry heals.
        monkeypatch.delenv(ENV_VAR)
        clear_faults()
        payload = client.run(**doomed)
        assert payload["source"] == "computed"
        assert payload["fingerprint"] == fingerprint_of(doomed)


async def until_dispatched(host, port):
    """Wait until the dispatcher has taken the only admitted run."""
    for _ in range(600):
        _, _, health = await raw_request(host, port, "GET", "/healthz")
        if (health["coalescing"]["inflight"] == 1
                and health["queue"]["depth"] == 0):
            return
        await asyncio.sleep(0.02)
    pytest.fail("dispatcher never took the first run")


def test_crashed_run_is_retried_and_only_its_slot_is_rebuilt(
        monkeypatch, tmp_path):
    """A run whose worker crashes once shares a batch with an innocent
    run and has four waiters. The crash is charged to that run alone,
    which is retried on a new worker: all five requests get the serial
    bytes, no run fails, and the innocent run's worker, still running
    when the crash lands, is never replaced."""
    blocker = run_fields("lbm_m", "fpb")
    doomed = run_fields("tig_m", "fpb")
    innocent = run_fields("mcf_m", "ideal")
    expected = expected_payloads(blocker, doomed, innocent)
    log = tmp_path / "runs.log"
    count_worker_runs(monkeypatch, log)
    monkeypatch.setenv(ENV_VAR, json.dumps([
        # Holds the dispatcher, so the next five requests queue up and
        # dispatch as one batch.
        {"point": "worker_run", "mode": "hang", "hang_s": 1.0,
         "match": fingerprint_of(blocker)},
        # Keeps the innocent run in flight when the crash lands.
        {"point": "worker_run", "mode": "hang", "hang_s": 1.5,
         "match": fingerprint_of(innocent)},
        {"point": "worker_run", "mode": "crash",
         "match": fingerprint_of(doomed),
         "stamp": str(tmp_path / "crash.stamp")},
    ]))
    with GatewayHarness(jobs=2, queue_limit=16, batch_max=8,
                        policy=fast_policy(max_attempts=2)) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            first = asyncio.ensure_future(
                raw_request(host, port, "POST", "/run", blocker))
            await until_dispatched(host, port)
            batch = await asyncio.gather(
                *(raw_request(host, port, "POST", "/run", doomed)
                  for _ in range(4)),
                raw_request(host, port, "POST", "/run", innocent),
            )
            return [await first, *batch]

        responses = asyncio.run(drive())
        live = {slot.process.pid for slot in harness.gateway.pool.slots
                if slot.alive()}
        counters = harness.client().metrics()["metrics"]["counters"]

    assert [status for status, _, _ in responses] == [200] * 6
    for _, _, payload in responses:
        payload.pop("source")
        assert payload == expected[payload["fingerprint"]]
    assert counters["service_batches"] == 2
    assert counters["service_runs_failed"] == 0
    assert counters["service_runs_computed"] == 3
    crashed, retried = worker_pids(log, doomed)
    [survivor] = worker_pids(log, innocent)
    assert crashed != retried
    assert crashed not in live
    assert {survivor, retried} <= live


def test_hung_run_is_reaped_retried_and_answered(monkeypatch, tmp_path):
    """A run that hangs its worker once is reaped at the per-run
    deadline and retried on a new worker, and the waiter gets the
    serial bytes."""
    fields = run_fields("tig_m", "ideal")
    expected = expected_payloads(fields)
    log = tmp_path / "runs.log"
    count_worker_runs(monkeypatch, log)
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "hang", "hang_s": 600.0,
        "match": fingerprint_of(fields),
        "stamp": str(tmp_path / "hang.stamp"),
    }]))
    with GatewayHarness(jobs=1, queue_limit=8, batch_max=4,
                        policy=fast_policy(max_attempts=2,
                                           run_timeout_s=5.0)
                        ) as harness:
        payload = harness.client(timeout_s=120).run(**fields)
        counters = harness.client().metrics()["metrics"]["counters"]

    assert payload.pop("source") == "computed"
    assert payload == expected[fingerprint_of(fields)]
    assert counters["service_runs_failed"] == 0
    hung, retried = worker_pids(log, fields)
    assert hung != retried


def test_deterministic_raise_is_quarantined_after_two_executions(
        monkeypatch, tmp_path):
    """A run that raises the same error on every attempt executes twice
    and is quarantined with the engine's message, while a concurrent
    innocent request is answered."""
    doomed = run_fields("mix_1", "dimm+chip")
    innocent = run_fields("mcf_m", "fpb")
    expected = expected_payloads(innocent)
    log = tmp_path / "runs.log"
    count_worker_runs(monkeypatch, log)
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "error", "error": "ValueError",
        "match": fingerprint_of(doomed),
    }]))
    with GatewayHarness(jobs=2, queue_limit=8, batch_max=4,
                        policy=fast_policy(max_attempts=2,
                                           deterministic_attempts=2)
                        ) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            return await asyncio.gather(
                raw_request(host, port, "POST", "/run", doomed),
                raw_request(host, port, "POST", "/run", innocent),
            )

        (status, _, body), (ok, _, payload) = asyncio.run(drive())

    assert status == 500
    assert body["error"]["code"] == "run_failed"
    assert body["error"]["message"].startswith("ValueError: ")
    assert body["error"]["message"].endswith(
        "(quarantine after 2 attempt(s))")
    assert len(worker_pids(log, doomed)) == 2
    assert ok == 200
    assert payload.pop("source") == "computed"
    assert payload == expected[fingerprint_of(innocent)]


def test_respawn_budget_is_counted_per_plan(monkeypatch, tmp_path):
    """Under a respawn budget of one, three sequential cold runs each
    crash their worker once: every plan spends its own budget, so all
    three are retried and answered."""
    runs = [run_fields(workload, "fpb")
            for workload in ("tig_m", "mcf_m", "lbm_m")]
    expected = expected_payloads(*runs)
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "crash",
        "match": fingerprint_of(fields),
        "stamp": str(tmp_path / f"crash{i}.stamp"),
    } for i, fields in enumerate(runs)]))
    with GatewayHarness(jobs=1, queue_limit=8, batch_max=4,
                        policy=fast_policy(max_attempts=2,
                                           max_pool_respawns=1)
                        ) as harness:
        client = harness.client(timeout_s=120)
        payloads = [client.run(**fields) for fields in runs]
        counters = harness.client().metrics()["metrics"]["counters"]

    for fields, payload in zip(runs, payloads):
        assert payload.pop("source") == "computed"
        assert payload == expected[fingerprint_of(fields)]
    assert counters["service_runs_failed"] == 0
    for i in range(len(runs)):
        assert (tmp_path / f"crash{i}.stamp").exists()


def test_run_deadline_counts_from_when_a_worker_starts_the_run(
        monkeypatch):
    """One worker computes a batch of three runs one at a time, so two
    of them wait while the first runs. Each run takes about half the
    per-run deadline; all three are answered, because each run's clock
    starts when the worker takes it, not when the batch was
    dispatched."""
    blocker = run_fields("lbm_m", "fpb")
    runs = [run_fields("tig_m", scheme)
            for scheme in ("fpb", "ideal", "dimm+chip")]
    expected = expected_payloads(*runs)
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "hang", "hang_s": 2.0, "match": "",
    }]))
    with GatewayHarness(jobs=1, queue_limit=16, batch_max=8,
                        policy=fast_policy(run_timeout_s=4.0)) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            # The blocker holds the dispatcher, so the three runs queue
            # up and dispatch as one batch.
            first = asyncio.ensure_future(
                raw_request(host, port, "POST", "/run", blocker))
            await until_dispatched(host, port)
            batch = await asyncio.gather(
                *(raw_request(host, port, "POST", "/run", fields)
                  for fields in runs))
            return [await first, *batch]

        responses = asyncio.run(drive())
        counters = harness.client().metrics()["metrics"]["counters"]

    assert [status for status, _, _ in responses] == [200] * 4
    for _, _, payload in responses[1:]:
        assert payload.pop("source") == "computed"
        assert payload == expected[payload["fingerprint"]]
    assert counters["service_batches"] == 2
    assert counters["service_runs_failed"] == 0


def test_drain_reaps_a_hung_exploration_run(monkeypatch):
    """The gateway drains while an exploration's run hangs its worker.
    The drain does not wait for explorations, but the exploration's
    plan still reaps the hung run at its deadline, so shutdown ends
    within about one deadline, and the exploration is answered with
    the structured draining error."""
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "hang", "hang_s": 60.0,
    }]))
    body = {"space": {"name": "drain", "axes": [
                {"param": "dimm_tokens", "values": [490, 560]}]},
            "strategy": "grid", "budget_points": 2, "workload": "tig_m",
            **MICRO_FIELDS}
    harness = GatewayHarness(jobs=1, policy=fast_policy(run_timeout_s=3.0))
    harness.start()
    try:
        host, port = harness.gateway.host, harness.gateway.port
        explore = harness.submit(
            raw_request(host, port, "POST", "/explore", body))
        [slot] = harness.gateway.pool.slots
        deadline = time.monotonic() + 30
        while not slot.alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert slot.alive(), "the exploration never reached a worker"
    finally:
        started = time.monotonic()
        harness.stop()
    assert time.monotonic() - started < 20
    status, _, payload = explore.result(timeout=10)
    assert status == 503
    assert payload["error"]["code"] == "draining"
