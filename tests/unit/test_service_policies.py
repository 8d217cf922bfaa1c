"""Service-layer policy units: LRU result-cache trimming, one-step
admission (join, admit or refuse), the admission EWMA's sample
hygiene, the Retry-After clamp, cancelled-waiter accounting in the
admission table, and the ``/watch`` write-side dead-client guard. Pure in-process tests — the gateway's HTTP
behaviour lives in ``tests/integration/test_service_gateway``."""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.base import _SIM_CACHE, cache_get
from repro.service.admission import (
    DEFAULT_RUN_SECONDS,
    EWMA_ALPHA,
    RETRY_AFTER_CAP_S,
    AdmissionTable,
)
from repro.service.app import _WatchStreamGuard, Gateway
from repro.service.schemas import BusyError, DrainingError


@pytest.fixture(autouse=True)
def clean_state(isolated_run_state):
    yield


class TestCacheGetLRU:
    def test_hit_moves_entry_to_the_back(self):
        for key in ("a", "b", "c"):
            _SIM_CACHE[key] = f"result-{key}"
        assert cache_get("a") == "result-a"
        # Dict order is the eviction order: "a" is now the most recent.
        assert list(_SIM_CACHE) == ["b", "c", "a"]

    def test_miss_returns_none_without_reordering(self):
        _SIM_CACHE["a"] = "result-a"
        assert cache_get("nope") is None
        assert list(_SIM_CACHE) == ["a"]


class TestGatewayTrimIsLRU:
    def _gateway(self, limit):
        return Gateway(memory_cache_limit=limit)

    def test_recently_used_survives_the_trim(self):
        """The policy test the bugfix demands: a popular entry touched
        after colder ones must survive a trim that evicts by recency,
        and would *not* survive the old FIFO (insertion-order) trim."""
        gateway = self._gateway(limit=3)
        for key in ("old1", "old2", "hot", "new1", "new2"):
            _SIM_CACHE[key] = key
        assert cache_get("hot") == "hot"  # refresh: FIFO would ignore this
        gateway._trim_sim_cache()
        assert set(_SIM_CACHE) == {"new1", "new2", "hot"}

    def test_without_touches_trim_degrades_to_fifo(self):
        gateway = self._gateway(limit=2)
        for key in ("a", "b", "c", "d"):
            _SIM_CACHE[key] = key
        gateway._trim_sim_cache()
        assert set(_SIM_CACHE) == {"c", "d"}

    def test_under_limit_is_untouched(self):
        gateway = self._gateway(limit=10)
        _SIM_CACHE["a"] = "a"
        gateway._trim_sim_cache()
        assert list(_SIM_CACHE) == ["a"]


class TestOneStepAdmission:
    """``AdmissionTable.admit`` joins, admits or refuses in one call,
    and a refusal leaves no entry behind."""

    def test_first_request_leads_and_later_ones_share_its_future(self):
        async def scenario():
            table = AdmissionTable(limit=4)
            leader, leads = table.admit("k", "work-k")
            follower, follows = table.admit("k", "other-work")
            assert (leads, follows) == (True, False)
            assert follower is leader
            assert (len(table), table.depth) == (1, 1)
            assert await table.take() == "work-k"
            # Taken by the dispatcher, still in flight: still joinable.
            assert table.admit("k", "k")[0] is leader
            table.resolve("k", "result")
            assert "k" not in table
            assert await table.wait(leader) == "result"
            coalescing = table.snapshot()["coalescing"]
            assert (coalescing["leaders"], coalescing["followers"]) == (1, 2)

        asyncio.run(scenario())

    def test_busy_refusal_leaves_no_entry_and_no_leader(self):
        async def scenario():
            table = AdmissionTable(limit=1)
            table.admit("a", "a")
            with pytest.raises(BusyError) as excinfo:
                table.admit("b", "b")
            assert excinfo.value.detail["queue_depth"] == 1
            assert "b" not in table and table.depth == 1
            snapshot = table.snapshot()
            assert snapshot["queue"]["rejected"] == 1
            assert (snapshot["coalescing"]["leaders"]
                    == snapshot["queue"]["admitted"] == 1)
            # A full FIFO still lets a request join a run in flight.
            assert table.admit("a", "a")[1] is False

        asyncio.run(scenario())

    def test_closed_table_refuses_leaders_and_followers(self):
        async def scenario():
            table = AdmissionTable(limit=4)
            table.admit("a", "a")
            table.close()
            for key in ("a", "b"):
                with pytest.raises(DrainingError):
                    table.admit(key, key)
            assert "b" not in table
            assert table.snapshot()["coalescing"]["followers"] == 0
            assert await table.take() == "a"  # the backlog still drains
            assert await table.take() is None

        asyncio.run(scenario())

    def test_abort_all_rejects_every_inflight_waiter(self):
        async def scenario():
            table = AdmissionTable(limit=4)
            futures = [table.admit(key, key)[0] for key in ("a", "b")]
            aborted = table.abort_all(
                lambda key: DrainingError("shut down", fingerprint=key))
            assert aborted == 2 and len(table) == 0
            for future, key in zip(futures, ("a", "b")):
                with pytest.raises(DrainingError) as excinfo:
                    await table.wait(future)
                assert excinfo.value.detail["fingerprint"] == key

        asyncio.run(scenario())

    def test_snapshot_keeps_the_healthz_blocks(self):
        snapshot = AdmissionTable(limit=4).snapshot()
        assert set(snapshot["queue"]) == {
            "depth", "limit", "peak_depth", "admitted", "rejected",
            "ewma_run_s", "ewma_rejected_samples", "retry_after_cap_s",
            "retry_after_clamped", "closed"}
        assert set(snapshot["coalescing"]) == {
            "inflight", "peak_inflight", "leaders", "followers",
            "cancelled_waiters"}


class TestAdmissionSampleHygiene:
    def test_positive_sample_folds_into_ewma(self):
        queue = AdmissionTable(limit=4)
        queue.observe_run_seconds(10.0)
        expected = (DEFAULT_RUN_SECONDS
                    + EWMA_ALPHA * (10.0 - DEFAULT_RUN_SECONDS))
        assert queue.ewma_run_s == pytest.approx(expected)
        assert queue.ewma_rejected_samples == 0

    @pytest.mark.parametrize("bad", [0.0, -0.001, -5.0])
    def test_non_positive_sample_counted_not_folded(self, bad, caplog):
        queue = AdmissionTable(limit=4)
        with caplog.at_level("WARNING", logger="repro.service.admission"):
            queue.observe_run_seconds(bad)
        assert queue.ewma_run_s == DEFAULT_RUN_SECONDS
        assert queue.ewma_rejected_samples == 1
        assert any("non-positive service-time sample" in rec.message
                   for rec in caplog.records)
        assert queue.snapshot()["queue"]["ewma_rejected_samples"] == 1

    def test_rejected_sample_hook_fires(self):
        queue = AdmissionTable(limit=4)
        fired = []
        queue.on_rejected_sample = lambda: fired.append(1)
        queue.observe_run_seconds(-1.0)
        queue.observe_run_seconds(1.0)
        assert fired == [1]

    def test_gateway_wires_the_rejection_counter(self):
        gateway = Gateway()
        gateway.admission.observe_run_seconds(-1.0)
        counters = gateway.registry.snapshot()["counters"]
        assert counters["service_ewma_rejected_samples"] == 1


class TestRetryAfterClamp:
    def test_small_backlog_estimate_passes_through(self):
        queue = AdmissionTable(limit=8)
        # Empty queue, default EWMA prior: ceil(1 * 2.0 / 1) = 2 s.
        assert queue.retry_after_s() == 2
        assert queue.retry_after_clamped == 0

    def test_deep_backlog_is_clamped_to_the_cap(self):
        queue = AdmissionTable(limit=8)
        queue.ewma_run_s = 3600.0  # an hour per run: "come back never"
        assert queue.retry_after_s() == RETRY_AFTER_CAP_S
        assert queue.retry_after_clamped == 1
        snap = queue.snapshot()["queue"]
        assert snap["retry_after_cap_s"] == RETRY_AFTER_CAP_S
        assert snap["retry_after_clamped"] == 1


class TestCancelledWaiterAccounting:
    def test_cancelled_wait_abandons_without_unshielding(self):
        """Cancelling one waiter's task counts it but leaves the shared
        future running; the surviving waiter still gets the result."""
        async def scenario():
            table = AdmissionTable(limit=4)
            leader, _ = table.admit("k", "k")
            follower, _ = table.admit("k", "k")
            task = asyncio.ensure_future(table.wait(follower))
            await asyncio.sleep(0)  # let the waiter reach the shield
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert not leader.cancelled()
            assert table.cancelled_waiters == 1
            assert table.snapshot()["coalescing"]["cancelled_waiters"] == 1
            table.resolve("k", "result")
            assert await table.wait(leader) == "result"

        asyncio.run(scenario())


class StubWriter:
    """Just enough StreamWriter for the watch guard: records chunks,
    stalls on demand."""

    def __init__(self):
        self.stalled = False
        self.chunks = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    async def drain(self) -> None:
        if self.stalled:
            await asyncio.sleep(60)


class TestWatchStreamGuard:
    def test_healthy_writes_frame_chunks_and_keep_streak_zero(self):
        async def scenario():
            writer = StubWriter()
            guard = _WatchStreamGuard(writer, timeout_s=0.5, max_stalls=3)
            await guard.send({"event": "run"})
            assert guard.stalls == 0
            chunk = writer.chunks[0]
            size, _, rest = chunk.partition(b"\r\n")
            body = rest[: int(size, 16)]
            assert body.endswith(b"\n")
            assert b'"event": "run"' in body

        asyncio.run(scenario())

    def test_consecutive_stalls_drop_the_client(self):
        async def scenario():
            writer = StubWriter()
            writer.stalled = True
            drops = []
            guard = _WatchStreamGuard(
                writer, timeout_s=0.01, max_stalls=3,
                on_drop=lambda: drops.append(1))
            await guard.send({"n": 1})  # stall 1: tolerated
            await guard.send({"n": 2})  # stall 2: tolerated
            with pytest.raises(ConnectionError):
                await guard.send({"n": 3})  # stall 3: dropped
            assert drops == [1]

        asyncio.run(scenario())

    def test_one_successful_drain_resets_the_streak(self):
        async def scenario():
            writer = StubWriter()
            guard = _WatchStreamGuard(writer, timeout_s=0.01,
                                      max_stalls=2)
            writer.stalled = True
            await guard.send({"n": 1})
            assert guard.stalls == 1
            writer.stalled = False
            await guard.send({"n": 2})  # slow-but-alive client recovers
            assert guard.stalls == 0
            writer.stalled = True
            await guard.send({"n": 3})  # streak restarts from zero
            assert guard.stalls == 1

        asyncio.run(scenario())
