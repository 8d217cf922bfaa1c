"""Units for the fleet's pure parts: the consistent-hash ring, the
per-replica circuit breaker and the job deadline. Process supervision,
failover and degraded serving are integration-tested in
``tests/integration/test_fleet_chaos``."""

from __future__ import annotations

import pytest

from repro.experiments.resilience import RetryPolicy
from repro.service.fleet import (
    CLOSED,
    DEAD,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FleetConfig,
    HashRing,
)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker(**overrides) -> CircuitBreaker:
    defaults = dict(failure_threshold=3, cooldown_s=5.0)
    defaults.update(overrides)
    return CircuitBreaker(**defaults)


class TestCircuitBreaker:
    def test_starts_closed_and_routable(self):
        b = breaker()
        assert b.state == CLOSED
        assert b.routable()

    def test_opens_after_consecutive_failure_threshold(self):
        b = breaker(failure_threshold=3)
        assert b.record_failure() is False
        assert b.record_failure() is False
        assert b.state == CLOSED
        assert b.record_failure() is True  # third strike opens
        assert b.state == OPEN
        assert not b.routable()
        assert b.opens == 1

    def test_success_resets_the_failure_streak(self):
        b = breaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        assert b.consecutive_failures == 0
        assert b.record_failure() is False  # streak restarted
        assert b.state == CLOSED

    def test_cooldown_transitions_open_to_half_open_lazily(self):
        clock = FakeClock()
        b = breaker(cooldown_s=5.0, clock=clock)
        b.trip()
        assert b.state == OPEN
        clock.advance(4.9)
        assert b.state == OPEN
        clock.advance(0.2)
        assert b.state == HALF_OPEN
        assert b.routable()  # the next routed job is the probe

    def test_half_open_probe_failure_reopens_immediately(self):
        clock = FakeClock()
        b = breaker(failure_threshold=3, cooldown_s=1.0, clock=clock)
        b.trip()
        clock.advance(1.5)
        assert b.state == HALF_OPEN
        assert b.record_failure() is True  # one probe failure suffices
        assert b.state == OPEN
        assert b.opens == 2

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        b = breaker(cooldown_s=1.0, clock=clock)
        b.trip()
        clock.advance(2.0)
        assert b.state == HALF_OPEN
        b.record_success()
        assert b.state == CLOSED
        assert b.routable()

    def test_trip_is_idempotent_while_open(self):
        b = breaker()
        b.trip()
        b.trip()
        assert b.opens == 1

    def test_kill_is_terminal(self):
        clock = FakeClock()
        b = breaker(cooldown_s=0.1, clock=clock)
        b.kill()
        assert b.state == DEAD
        assert not b.routable()
        # No event revives a dead breaker — not cooldown, not success.
        clock.advance(100.0)
        b.record_success()
        b.half_open()
        assert b.state == DEAD

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_snapshot_reports_state_and_counters(self):
        b = breaker(failure_threshold=2, cooldown_s=3.0)
        b.record_failure()
        snap = b.snapshot()
        assert snap == {
            "state": CLOSED,
            "consecutive_failures": 1,
            "opens": 0,
            "failure_threshold": 2,
            "cooldown_s": 3.0,
        }


KEYS = [f"workload-{i}/scheme/{i:04x}" for i in range(200)]


class TestHashRing:
    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)

    def test_routing_is_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        for key in KEYS:
            assert a.preference(key) == b.preference(key)

    def test_preference_covers_every_slot_exactly_once(self):
        ring = HashRing(5)
        for key in KEYS[:50]:
            order = ring.preference(key)
            assert sorted(order) == [0, 1, 2, 3, 4]

    def test_load_spreads_across_slots(self):
        ring = HashRing(4)
        owners = [ring.preference(key)[0] for key in KEYS]
        counts = [owners.count(slot) for slot in range(4)]
        # Not perfectly uniform, but no slot starves or hogs the ring.
        assert all(count > 0 for count in counts)
        assert max(counts) < len(KEYS) * 0.6

    def test_route_returns_first_routable_in_preference_order(self):
        ring = HashRing(3)
        key = KEYS[0]
        order = ring.preference(key)
        assert ring.route(key, lambda s: True) == order[0]
        # Primary down: the walk continues to the next preference.
        assert ring.route(key, lambda s: s != order[0]) == order[1]

    def test_route_returns_none_when_ring_is_down(self):
        ring = HashRing(3)
        assert ring.route(KEYS[0], lambda s: False) is None

    def test_failover_moves_only_the_dead_slots_keys(self):
        """Consistent hashing's point: marking one slot unroutable
        relocates exactly the keys it owned — everyone else's placement
        is untouched."""
        ring = HashRing(4)
        before = {key: ring.route(key, lambda s: True) for key in KEYS}
        dead = 2
        after = {key: ring.route(key, lambda s: s != dead)
                 for key in KEYS}
        for key in KEYS:
            if before[key] == dead:
                assert after[key] != dead
            else:
                assert after[key] == before[key]


class TestJobDeadline:
    def test_smaller_budget_wins_when_both_are_set(self):
        tight_run = RetryPolicy(run_timeout_s=2.0)
        assert FleetConfig(job_timeout_s=5.0,
                           policy=tight_run).job_deadline_s == 2.0
        loose_run = RetryPolicy(run_timeout_s=9.0)
        assert FleetConfig(job_timeout_s=5.0,
                           policy=loose_run).job_deadline_s == 5.0

    def test_whichever_budget_is_set_applies(self):
        assert FleetConfig(job_timeout_s=5.0).job_deadline_s == 5.0
        assert FleetConfig(job_timeout_s=5.0,
                           policy=RetryPolicy()).job_deadline_s == 5.0
        assert FleetConfig(
            job_timeout_s=None,
            policy=RetryPolicy(run_timeout_s=2.0)).job_deadline_s == 2.0

    def test_no_budget_means_no_deadline(self):
        assert FleetConfig(job_timeout_s=None).job_deadline_s is None
        assert FleetConfig(job_timeout_s=None,
                           policy=RetryPolicy()).job_deadline_s is None
