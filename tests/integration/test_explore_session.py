"""Integration tests: exploration-session determinism and reruns.

The acceptance contract of :mod:`repro.explore`:

* the same ``(space, strategy, seed)`` yields a byte-identical point
  sequence and frontier report, across strategies and across ``--jobs``
  execution modes;
* an exploration killed mid-session (a deterministic ``explore_point``
  fault) and run again with the same settings converges to the
  identical frontier while **re-executing zero** fingerprints its run
  cache holds — asserted on the telemetry ``cache_event`` records;
* the v9 manifest records account for every evaluated point.

Runs use a micro scale and a tiny config so tier-1 stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.base import (
    RunScale,
    clear_sim_cache,
    use_disk_cache,
    use_telemetry,
)
from repro.explore import (
    Axis,
    ExploreSession,
    ExploreSettings,
    SearchSpace,
    frontier_report,
)
from repro.obs import Telemetry
from repro.sim.simcache import SimCache
from repro.testing.faults import FaultSpec, clear_faults, install_faults

from ..conftest import count_trace_generations, make_tiny_config

#: Micro scale: real simulations, fast enough for tier-1.
MICRO = RunScale("micro", 40, 8_000, ("mix_1",))

BASE = make_tiny_config()


def small_space() -> SearchSpace:
    return SearchSpace(name="itest", axes=(
        Axis("dimm_tokens", values=(490.0, 560.0)),
        Axis("gcp_efficiency", values=(0.5, 0.85)),
        Axis("mr_splits", values=(1, 2)),
    ))


def settings(**overrides) -> ExploreSettings:
    fields = dict(space=small_space(), strategy="grid", budget_points=8,
                  seed=3, workload="mix_1", scheme="fpb", scale=MICRO)
    fields.update(overrides)
    return ExploreSettings(**fields)


def run_session(sets: ExploreSettings, telemetry=None):
    session = ExploreSession(sets, BASE, telemetry=telemetry)
    return session, session.run()


def frontier_bytes(report) -> bytes:
    return json.dumps(frontier_report(report), sort_keys=True).encode()


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["grid", "random", "adaptive"])
    def test_same_settings_byte_identical_points_and_frontier(
            self, strategy, tmp_sim_cache):
        sets = settings(strategy=strategy)
        _, first = run_session(sets)
        clear_sim_cache()  # force the disk/compute path the second time
        _, second = run_session(sets)
        assert ([p["point"] for p in first["points"]]
                == [p["point"] for p in second["points"]])
        assert ([p["fingerprint"] for p in first["points"]]
                == [p["fingerprint"] for p in second["points"]])
        assert frontier_bytes(first) == frontier_bytes(second)

    def test_session_id_is_deterministic_and_sensitive(self):
        a = ExploreSession(settings(), BASE)
        b = ExploreSession(settings(), BASE)
        c = ExploreSession(settings(seed=4), BASE)
        assert a.session_id == b.session_id
        assert a.session_id != c.session_id

    def test_jobs_equivalent_to_serial(self, tmp_path, tmp_sim_cache):
        serial = run_session(settings())[1]
        clear_sim_cache()
        use_disk_cache(SimCache(tmp_path / "parallel-cache"))
        parallel = run_session(settings(jobs=2))[1]
        assert frontier_bytes(serial) == frontier_bytes(parallel)
        # Both sessions ran cold, and each says so.
        assert serial["counts"] == parallel["counts"]
        assert parallel["counts"]["computed"] == 8


class TestWorkers:
    def test_one_pool_serves_every_generation(self, tmp_path,
                                              monkeypatch):
        """An adaptive session over one trace structure at ``jobs=2``:
        every generation runs on the same two workers, which generate
        the trace at most once each, and the frontier is the serial
        one."""
        log = tmp_path / "traces.log"
        count_trace_generations(monkeypatch, log)
        pooled = run_session(settings(strategy="adaptive", jobs=2))[1]
        assert pooled["generations"] >= 2
        assert len(log.read_text().splitlines()) <= 2

        clear_sim_cache()
        use_disk_cache(None)
        serial = run_session(settings(strategy="adaptive"))[1]
        assert frontier_bytes(pooled) == frontier_bytes(serial)


class TestRerun:
    def test_kill_then_rerun(self, tmp_path, tmp_sim_cache):
        """A session killed at its sixth point and run again with the
        same settings reads every point from its run cache: the
        reference frontier, and nothing computed twice."""
        sets = settings()
        reference = run_session(sets)[1]

        clear_sim_cache()
        use_disk_cache(SimCache(tmp_path / "rerun-cache"))
        install_faults([FaultSpec(point="explore_point", mode="error",
                                  nth=6, error="RuntimeError")])
        with pytest.raises(RuntimeError):
            run_session(sets)
        clear_faults()

        clear_sim_cache()
        telemetry = Telemetry()
        use_telemetry(telemetry)  # capture the engine's cache_event records
        try:
            rerun = run_session(sets, telemetry=telemetry)[1]
        finally:
            use_telemetry(None)
        assert frontier_bytes(rerun) == frontier_bytes(reference)
        assert rerun["counts"] == {"evaluated": 8, "failed": 0,
                                   "cached": 8, "computed": 0}
        assert not [e for e in telemetry.sim_requests
                    if e["source"] == "computed"]


class TestTelemetry:
    def test_v9_records_emitted(self, tmp_sim_cache):
        telemetry = Telemetry()
        _, report = run_session(settings(), telemetry=telemetry)
        kinds = [r["type"] for r in telemetry.resilience_events]
        assert kinds.count("explore_point") == 8
        assert kinds.count("explore_frontier") == report["generations"]
        point = next(r for r in telemetry.resilience_events
                     if r["type"] == "explore_point")
        # /watch routing key is the session id.
        assert point["fingerprint"] == point["session"]
        assert point["run_fingerprint"] != point["session"]

    def test_manifest_roundtrip(self, tmp_path, tmp_sim_cache):
        from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, read_manifest

        assert MANIFEST_SCHEMA_VERSION == 16
        telemetry = Telemetry()
        run_session(settings(), telemetry=telemetry)
        path = tmp_path / "manifest.jsonl"
        telemetry.write_manifest(path, BASE, seed=3, scale="micro")
        records = read_manifest(path)
        types = {r["type"] for r in records}
        assert {"explore_point", "explore_frontier"} <= types
