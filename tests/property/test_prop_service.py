"""Property tests for the service gateway's concurrency core.

The claims under test (see ``repro/service/admission.py``): for *any*
interleaving of K concurrent requests over M distinct fingerprints,

* exactly M submissions reach the engine — never a double-run;
* all K requesters get the correct response for *their* fingerprint —
  never cross-wired;
* the coalescing map is empty once everything resolved — memory stays
  bounded by the number of in-flight fingerprints, not by K;
* a failure fans the same error out to every waiter — nobody hangs.

The scenario drives the real :class:`AdmissionTable` with a stand-in
dispatcher (no simulations — interleavings are the
subject here), with Hypothesis choosing the request → fingerprint
mapping and per-request start delays.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.admission import AdmissionTable
from repro.service.schemas import BusyError, RunExecutionError


@st.composite
def workloads(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=24))
    requests = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=m - 1),
                  st.integers(min_value=0, max_value=4)),
        min_size=k, max_size=k))
    return requests


async def _run_scenario(requests, *, dispatcher_yields=1):
    """The gateway's resolve path with a stand-in engine: returns
    (table, submissions, responses)."""
    table = AdmissionTable(limit=1_000)
    submissions = []
    cache = {}

    async def dispatcher():
        while True:
            key = await table.take()
            if key is None:
                return
            for _ in range(dispatcher_yields):  # interleave with clients
                await asyncio.sleep(0)
            submissions.append(key)
            # Engine contract: the cache holds the result before the
            # table entry resolves (no await between the two).
            cache[key] = f"value-for-{key}"
            table.resolve(key, cache[key])

    async def client(fingerprint, delay):
        for _ in range(delay):
            await asyncio.sleep(0)
        hit = cache.get(fingerprint)
        if hit is not None:
            return hit
        future, _leader = table.admit(fingerprint, fingerprint)
        return await table.wait(future)

    task = asyncio.get_running_loop().create_task(dispatcher())
    responses = await asyncio.gather(
        *(client(f"fp-{index}", delay) for index, delay in requests))
    table.close()
    await task
    return table, submissions, responses


@settings(max_examples=120, deadline=None)
@given(requests=workloads())
def test_any_interleaving_runs_each_fingerprint_once(requests):
    table, submissions, responses = asyncio.run(
        _run_scenario(requests))
    distinct = {f"fp-{index}" for index, _delay in requests}
    # Exactly M engine submissions, each fingerprint exactly once.
    assert sorted(submissions) == sorted(distinct)
    # Every requester got its own fingerprint's result.
    assert responses == [f"value-for-fp-{index}"
                         for index, _delay in requests]
    # The in-flight map drained completely (bounded memory).
    assert len(table) == 0
    assert table.peak_inflight <= len(distinct)
    assert table.depth == 0
    # Every submission had a leader; leaders and followers never
    # exceed requests.
    assert table.admitted == len(submissions)
    assert table.admitted + table.followers <= len(requests)


@settings(max_examples=60, deadline=None)
@given(requests=workloads(),
       yields=st.integers(min_value=1, max_value=5))
def test_slow_engine_coalesces_harder_never_wrong(requests, yields):
    """A slower dispatcher only increases sharing, never correctness
    risk: same single-submission and correct-response properties."""
    table, submissions, responses = asyncio.run(
        _run_scenario(requests, dispatcher_yields=yields))
    assert len(submissions) == len(set(submissions))
    assert responses == [f"value-for-fp-{index}"
                         for index, _delay in requests]
    assert len(table) == 0


@settings(max_examples=60, deadline=None)
@given(waiters=st.integers(min_value=1, max_value=12))
def test_failure_fans_out_to_every_waiter(waiters):
    """A failed coalesced run rejects every waiter with the *same*
    structured error — nobody is stranded, nobody gets a different
    story."""

    async def scenario():
        table = AdmissionTable(limit=1)
        joins = [table.admit("fp", "fp") for _ in range(waiters)]
        leaders = [leader for _future, leader in joins]
        assert leaders[0] and not any(leaders[1:])
        error = RunExecutionError("boom", fingerprint="fp")
        table.reject("fp", error)
        outcomes = await asyncio.gather(
            *(table.wait(future) for future, _leader in joins),
            return_exceptions=True)
        return outcomes, error, len(table)

    outcomes, error, remaining = asyncio.run(scenario())
    assert remaining == 0
    assert all(outcome is error for outcome in outcomes)


def test_full_queue_rejects_all_current_waiters_and_recovers():
    """Leader hits a full admission queue: the refused request leaves
    no entry a follower could join, the client gets a structured 429
    with a Retry-After, and the fingerprint is re-admittable
    afterwards."""

    async def scenario():
        table = AdmissionTable(limit=1)
        table.admit("occupies-the-only-slot", "occupies-the-only-slot")

        with pytest.raises(BusyError) as excinfo:
            table.admit("fp", "fp")
        assert excinfo.value.retry_after_s >= 1
        assert excinfo.value.to_wire()["error"]["code"] == "busy"
        assert "fp" not in table

        # Queue drains -> the same fingerprint admits cleanly.
        assert await table.take() == "occupies-the-only-slot"
        retry, leader = table.admit("fp", "fp")
        assert leader
        table.resolve("fp", "ok")
        assert await table.wait(retry) == "ok"

    asyncio.run(scenario())


def test_cancelled_waiter_does_not_cancel_the_run():
    """A dropped connection (cancelled waiter) must not cancel the
    shared future the other waiters are awaiting."""

    async def scenario():
        table = AdmissionTable(limit=1)
        leader, _ = table.admit("fp", "fp")
        follower, _ = table.admit("fp", "fp")
        waiter = asyncio.get_running_loop().create_task(
            table.wait(follower))
        await asyncio.sleep(0)
        waiter.cancel()
        await asyncio.sleep(0)
        table.resolve("fp", "survived")
        assert await table.wait(leader) == "survived"

    asyncio.run(scenario())
