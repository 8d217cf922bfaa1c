"""The fault-injection harness itself: plan parsing and firing rules.

If the harness misfires — wrong point, wrong call, burning another
spec's counters — every chaos test built on it is meaningless, so its
selection semantics are pinned here first.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import WatchdogError
from repro.testing.faults import (
    ENV_VAR,
    FaultSpec,
    clear_faults,
    corrupt_payload,
    install_faults,
    maybe_inject,
    parse_plan,
)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_faults()
    yield
    clear_faults()


class TestSpecValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(point="cache_put", mode="explode")

    def test_unknown_error_type_rejected(self):
        """The error set is closed — a plan can never name arbitrary
        code (no ``SystemExit``, no dotted paths)."""
        with pytest.raises(ValueError, match="unknown fault error type"):
            FaultSpec(point="cache_put", error="SystemExit")

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError):
            FaultSpec(point="cache_put", nth=0)

    def test_library_error_types_resolvable(self):
        spec = FaultSpec(point="worker_run", error="WatchdogError")
        assert spec.resolve_error() is WatchdogError


class TestParsePlan:
    def test_round_trip(self):
        raw = json.dumps([{"point": "worker_run", "mode": "crash",
                           "match": "tig_m/fpb", "exit_code": 7}])
        [spec] = parse_plan(raw)
        assert (spec.point, spec.mode, spec.match, spec.exit_code) == \
            ("worker_run", "crash", "tig_m/fpb", 7)

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_plan("{nope")

    def test_rejects_non_list(self):
        with pytest.raises(ValueError, match="JSON list"):
            parse_plan('{"point": "cache_put"}')

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            parse_plan('[{"point": "cache_put", "when": "always"}]')

    def test_rejects_non_object_entries(self):
        with pytest.raises(ValueError, match="must be an object"):
            parse_plan('["cache_put"]')

    @pytest.mark.parametrize("point", ["sim_progress", "serial_run"])
    def test_rejects_a_point_nothing_fires(self, point):
        """A spec naming an unwired point would never fire, and a chaos
        test built on it would pass without injecting anything."""
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_plan(json.dumps([{"point": point}]))


class TestFiring:
    def test_noop_without_plan(self):
        maybe_inject("worker_run", key="anything")  # must not raise

    def test_error_mode_raises_chosen_type_and_message(self):
        install_faults([FaultSpec(point="cache_put", error="OSError",
                                  message="disk gone")])
        with pytest.raises(OSError, match="disk gone"):
            maybe_inject("cache_put", key="k")

    def test_point_and_match_select_the_call(self):
        install_faults([FaultSpec(point="worker_run", match="tig_m/fpb")])
        maybe_inject("cache_put", key="tig_m/fpb/aaaa")     # wrong point
        maybe_inject("worker_run", key="tig_m/ideal/aaaa")  # wrong key
        with pytest.raises(OSError):
            maybe_inject("worker_run", key="tig_m/fpb/aaaa")

    def test_nth_skips_earlier_calls_then_keeps_firing(self):
        """``times=None`` from ``nth`` on — the shape of a
        deterministically-broken run."""
        install_faults([FaultSpec(point="cache_put", nth=3)])
        maybe_inject("cache_put")
        maybe_inject("cache_put")
        for _ in range(2):
            with pytest.raises(OSError):
                maybe_inject("cache_put")

    def test_times_bounds_total_firings(self):
        install_faults([FaultSpec(point="cache_put", times=1)])
        with pytest.raises(OSError):
            maybe_inject("cache_put")
        maybe_inject("cache_put")  # spent

    def test_stamp_makes_a_cross_process_one_shot(self, tmp_path):
        stamp = str(tmp_path / "fired.stamp")
        install_faults([FaultSpec(point="cache_put", stamp=stamp)])
        with pytest.raises(OSError):
            maybe_inject("cache_put")
        assert (tmp_path / "fired.stamp").exists()
        maybe_inject("cache_put")  # stamp claimed: never again
        # a fresh plan (standing in for a fresh process) honours it too
        install_faults([FaultSpec(point="cache_put", stamp=stamp)])
        maybe_inject("cache_put")

    def test_env_plan_drives_injection(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, json.dumps(
            [{"point": "cache_put", "error": "MemoryError"}]))
        with pytest.raises(MemoryError):
            maybe_inject("cache_put", key="k")

    def test_installed_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, json.dumps([{"point": "cache_put"}]))
        install_faults([])  # an explicit empty plan: nothing fires
        maybe_inject("cache_put", key="k")

    def test_clear_faults_resets_everything(self):
        install_faults([FaultSpec(point="cache_put")])
        clear_faults()
        maybe_inject("cache_put", key="k")


class TestCorruptMode:
    def test_flips_last_byte_exactly_when_due(self):
        install_faults([FaultSpec(point="cache_corrupt", mode="corrupt",
                                  times=1)])
        corrupted = corrupt_payload("cache_corrupt", "k", b"abc")
        assert corrupted == b"ab" + bytes([ord("c") ^ 0xFF])
        assert corrupt_payload("cache_corrupt", "k", b"abc") == b"abc"

    def test_empty_payload_passes_through(self):
        install_faults([FaultSpec(point="cache_corrupt", mode="corrupt")])
        assert corrupt_payload("cache_corrupt", "k", b"") == b""

    def test_modes_keep_separate_counters(self):
        """A ``corrupt_payload`` call must neither fire an error-mode
        spec nor advance its ``nth`` counter, and vice versa."""
        install_faults([
            FaultSpec(point="cache_corrupt", mode="error", nth=2),
            FaultSpec(point="cache_corrupt", mode="corrupt", times=1),
        ])
        assert corrupt_payload("cache_corrupt", "k", b"x") != b"x"
        maybe_inject("cache_corrupt", key="k")  # error call 1 of nth=2: silent
        with pytest.raises(OSError):
            maybe_inject("cache_corrupt", key="k")  # error call 2: fires
