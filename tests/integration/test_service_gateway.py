"""Integration tests for the simulation gateway.

Covers the tentpole acceptance criteria end to end, against a real
gateway on real sockets:

* **Soak**: ~200 concurrent requests (mixed hot / cold / invalid) over
  10 distinct fingerprints produce exactly 10 engine runs, every valid
  response byte-identical to the serial result for its fingerprint,
  with the coalescing map bounded and empty afterwards.
* **Backpressure**: a full admission queue answers 429 with a
  ``Retry-After`` header and a structured body, deterministically.
* **Drain**: in-flight work finishes, new connections are refused, and
  a daemonized ``serve`` process exits 0 on SIGTERM.
* **Streaming telemetry**: records reach the manifest as they happen,
  so a killed gateway keeps them, and a gateway without telemetry
  keeps no span.

Runs here use a micro run scale (wire-level ``n_pcm_writes`` /
``max_refs_per_core`` overrides) so tier-1 stays fast; set
``REPRO_SOAK=1`` (CI's service job) to re-run the soak at the full
quick scale of the acceptance criterion.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.base import (
    _SIM_CACHE,
    clear_sim_cache,
    execute_request,
    use_telemetry,
)
from repro.experiments.registry import get_experiment
from repro.explore import ExploreSession, frontier_report
from repro.obs import Telemetry
from repro.obs.manifest import config_to_dict, read_manifest
from repro.service.client import GatewayClient
from repro.service.schemas import (
    ExperimentRequest,
    ExploreRequest,
    InvalidRequestError,
    SimRequest,
    SimResponse,
)
from repro.service.testing import GatewayHarness
from repro.testing.faults import ENV_VAR, clear_faults

from ..conftest import count_trace_generations

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Wire-level micro scale: fast enough for tier-1, real simulations.
MICRO_FIELDS = {"scale": "quick", "n_pcm_writes": 40,
                "max_refs_per_core": 10_000}

#: The 10 distinct fingerprints of the acceptance criterion.
COMBOS = [
    ("lbm_m", "fpb"), ("lbm_m", "dimm+chip"), ("lbm_m", "ideal"),
    ("mcf_m", "fpb"), ("mcf_m", "dimm+chip"), ("mcf_m", "ideal"),
    ("tig_m", "fpb"), ("tig_m", "dimm+chip"),
    ("mix_1", "fpb"), ("mix_1", "dimm+chip"),
]


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def run_fields(workload: str, scheme: str, **scale_fields):
    return {"workload": workload, "scheme": scheme,
            **(scale_fields or MICRO_FIELDS)}


async def raw_request(host, port, method, path, body=None,
                      raw_body=None):
    """One HTTP exchange over a plain socket; returns
    (status, headers, parsed json)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = raw_body if raw_body is not None else (
            json.dumps(body).encode() if body is not None else b"")
        head = (f"{method} {path} HTTP/1.1\r\nHost: gateway\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + payload)
        await writer.drain()
        blob = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
    header_blob, _, body_blob = blob.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, (json.loads(body_blob) if body_blob else {})


def serial_wire_payload(fields):
    """What ``POST /run`` must return for ``fields``, computed serially
    in-process (source dropped — it is the only legitimately varying
    key)."""
    sim_request = SimRequest.from_wire(fields)
    request = sim_request.to_run_request()
    result = execute_request(request)
    payload = SimResponse(sim_request, request.fingerprint, "serial",
                          result).to_wire()
    payload.pop("source")
    return payload


def _soak(scale_fields, hot_repeats=30, cold_repeats=16,
          **gateway_kwargs):
    """Drive the mixed soak load; returns (harness stats, responses)."""
    with GatewayHarness(jobs=1, queue_limit=64, batch_max=16,
                        **gateway_kwargs) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            tasks = []
            # Cold + coalesced: every combo requested many times at once.
            for workload, scheme in COMBOS:
                for _ in range(cold_repeats):
                    tasks.append(raw_request(
                        host, port, "POST", "/run",
                        run_fields(workload, scheme, **scale_fields)))
            # Hot-path repeats of the first combo (arrive late enough
            # that many land after its run resolved -> memory hits).
            for _ in range(hot_repeats):
                tasks.append(raw_request(
                    host, port, "POST", "/run",
                    run_fields(*COMBOS[0], **scale_fields)))
            # Invalid traffic, interleaved with the load.
            invalid = [
                raw_request(host, port, "POST", "/run",
                            {"workload": "nope", "scheme": "fpb"}),
                raw_request(host, port, "POST", "/run",
                            raw_body=b"{not json"),
                raw_request(host, port, "POST", "/run",
                            {"workload": "mcf_m", "scheme": "fpb",
                             "surprise": 1}),
                raw_request(host, port, "GET", "/nope"),
                raw_request(host, port, "PUT", "/run",
                            {"workload": "mcf_m", "scheme": "fpb"}),
            ] * 2
            tasks.extend(invalid)
            assert len(tasks) >= 200
            return await asyncio.gather(*tasks)

        responses = asyncio.run(drive())
        # Everything resolved: the coalescing map must be empty.
        health = harness.client().healthz()
        metrics = harness.client().metrics()["metrics"]
        return health, metrics, responses


def check_soak(scale_fields, **gateway_kwargs):
    health, metrics, responses = _soak(scale_fields, **gateway_kwargs)

    statuses = [status for status, _, _ in responses]
    n_valid = sum(1 for s in statuses if s == 200)
    assert n_valid == len(COMBOS) * 16 + 30
    assert statuses.count(400) == 6    # bad workload/json/unknown field
    assert statuses.count(404) == 2
    assert statuses.count(405) == 2

    counters = metrics["counters"]
    # THE acceptance property: 10 distinct fingerprints, exactly 10
    # engine runs — every other valid response was coalesced or cached.
    assert counters["service_runs_computed"] == len(COMBOS)
    assert counters["service_runs_failed"] == 0
    assert health["coalescing"]["leaders"] == len(COMBOS)
    assert health["queue"]["admitted"] == len(COMBOS)
    # Bounded coalescing map: never more entries than distinct
    # fingerprints, and empty once everything resolved.
    assert health["coalescing"]["peak_inflight"] <= len(COMBOS)
    assert health["coalescing"]["inflight"] == 0
    assert health["queue"]["depth"] == 0

    # Byte-identity: group responses per fingerprint; all equal, and
    # equal to the serially computed wire payload.
    by_fingerprint = {}
    for status, _, payload in responses:
        if status != 200:
            continue
        assert payload["source"] in ("memory", "disk", "computed",
                                     "coalesced")
        stripped = dict(payload)
        stripped.pop("source")
        by_fingerprint.setdefault(payload["fingerprint"], []).append(
            json.dumps(stripped, sort_keys=True))
    assert len(by_fingerprint) == len(COMBOS)
    for fingerprint, blobs in by_fingerprint.items():
        assert len(set(blobs)) == 1, f"{fingerprint}: responses differ"

    # Serial ground truth, recomputed from scratch in this process.
    clear_sim_cache()
    for workload, scheme in COMBOS:
        expected = serial_wire_payload(
            run_fields(workload, scheme, **scale_fields))
        blob = json.dumps(expected, sort_keys=True)
        assert by_fingerprint[expected["fingerprint"]][0] == blob, (
            f"{workload}/{scheme}: gateway response differs from the "
            f"serial result")


def test_soak_200_concurrent_requests_micro():
    check_soak(MICRO_FIELDS)


@pytest.mark.skipif(not os.environ.get("REPRO_SOAK"),
                    reason="full quick-scale soak; set REPRO_SOAK=1 "
                           "(CI service job)")
def test_soak_200_concurrent_requests_quick_scale():
    check_soak({"scale": "quick"})


def test_backpressure_429_with_retry_after(monkeypatch):
    """Deterministic 429: occupy the single dispatcher slot (the first
    run's worker is held open by an injected hang, so the window cannot
    race), fill the 1-slot queue, and watch the next cold fingerprint
    bounce with a structured body and a Retry-After header."""
    occupant = run_fields("mcf_m", "fpb")
    monkeypatch.setenv(ENV_VAR, json.dumps([{
        "point": "worker_run", "mode": "hang", "hang_s": 6.0,
        "match": SimRequest.from_wire(occupant)
        .to_run_request().fingerprint,
    }]))
    with GatewayHarness(jobs=1, queue_limit=1, batch_max=1) as harness:
        host, port = harness.gateway.host, harness.gateway.port

        async def drive():
            first = asyncio.ensure_future(raw_request(
                host, port, "POST", "/run", occupant))
            # Wait until the dispatcher picked the run up (queue empty,
            # one in-flight fingerprint).
            for _ in range(600):
                _, _, health = await raw_request(host, port, "GET",
                                                 "/healthz")
                if (health["coalescing"]["inflight"] == 1
                        and health["queue"]["depth"] == 0):
                    break
                await asyncio.sleep(0.02)
            else:
                pytest.fail("dispatcher never took the first run")
            second = asyncio.ensure_future(raw_request(
                host, port, "POST", "/run",
                run_fields("mcf_m", "ideal")))
            for _ in range(600):
                _, _, health = await raw_request(host, port, "GET",
                                                 "/healthz")
                if health["queue"]["depth"] == 1:
                    break
                await asyncio.sleep(0.02)
            else:
                pytest.fail("second run never queued")
            # Queue is now full: a third cold fingerprint must bounce.
            status, headers, body = await raw_request(
                host, port, "POST", "/run",
                run_fields("tig_m", "fpb"))
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert body["error"]["code"] == "busy"
            assert body["error"]["retryable"] is True
            assert body["error"]["retry_after_s"] >= 1
            assert body["error"]["queue_limit"] == 1
            # The rejected fingerprint left no in-flight entry and
            # the admitted work still completes correctly.
            results = await asyncio.gather(first, second)
            for status, _, payload in results:
                assert status == 200
            _, _, health = await raw_request(host, port, "GET",
                                             "/healthz")
            assert health["coalescing"]["inflight"] == 0
            # A retry of the bounced fingerprint now succeeds.
            status, _, payload = await raw_request(
                host, port, "POST", "/run", run_fields("tig_m", "fpb"))
            assert status == 200
            return health

        health = asyncio.run(drive())
        assert health["queue"]["rejected"] >= 1


def test_graceful_drain_finishes_inflight_work():
    """stop() during an in-flight run: the run's waiters still get
    their 200, and afterwards the port stops accepting."""
    harness = GatewayHarness(jobs=1, queue_limit=8, batch_max=4)
    harness.start()
    try:
        host, port = harness.gateway.host, harness.gateway.port

        async def fire():
            return await raw_request(
                host, port, "POST", "/run", run_fields("lbm_m", "fpb"))

        inflight = harness.submit(fire())
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if len(harness.gateway.admission) == 1:
                break
            time.sleep(0.02)
        else:
            pytest.fail("request never became in-flight")
    finally:
        harness.stop()  # drain: must wait for the in-flight run

    status, _, payload = inflight.result(timeout=60)
    assert status == 200
    assert payload["workload"] == "lbm_m"
    assert harness.gateway.draining
    with pytest.raises(OSError):
        GatewayClient(host, port, timeout_s=2).healthz()


def test_cold_runs_share_the_gateway_worker_and_its_trace(tmp_path,
                                                          monkeypatch):
    """Two sequential cold runs over one trace structure: the gateway's
    one worker generates the trace for the first and keeps it for the
    second. Both are computed, byte-identical to serial."""
    log = tmp_path / "traces.log"
    count_trace_generations(monkeypatch, log)
    runs = [run_fields("tig_m", scheme) for scheme in ("fpb", "ideal")]
    with GatewayHarness(jobs=1) as harness:
        client = harness.client()
        payloads = [client.run(**fields) for fields in runs]
    assert len(log.read_text().splitlines()) == 1
    clear_sim_cache()
    for fields, payload in zip(runs, payloads):
        assert payload.pop("source") == "computed"
        assert payload == serial_wire_payload(fields)


def start_serve(*args):
    """Start ``python -m repro.experiments serve --port 0 ARGS``;
    returns the process and the port it reported."""
    env = dict(os.environ)
    env.update(PYTHONPATH="src", PYTHONUNBUFFERED="1")
    env.pop(ENV_VAR, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve",
         "--port", "0", *args],
        cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    port = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    return proc, port


def test_serve_subprocess_sigterm_exits_cleanly(tmp_path):
    """The daemon entry point: ``python -m repro.experiments serve``
    binds an ephemeral port, answers requests, writes its manifest and
    exits 0 on SIGTERM."""
    manifest = tmp_path / "service.manifest.jsonl"
    proc, port = start_serve("--no-cache", "--queue-limit", "4",
                             "--metrics-out", str(manifest))
    try:
        assert port, "gateway never reported its port"
        client = GatewayClient(port=port, timeout_s=120)
        assert client.healthz()["status"] == "serving"
        payload = client.run(**run_fields("mcf_m", "fpb"))
        assert payload["source"] == "computed"
        with pytest.raises(InvalidRequestError):
            client.run(workload="mcf_m", scheme="not-a-scheme")

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()

    # The v4 service records, and the drain's closing records last.
    records = [json.loads(line)
               for line in manifest.read_text().splitlines()]
    types = [record["type"] for record in records]
    assert "service_request" in types
    assert types[-2:] == ["service_state", "metrics_snapshot"]
    state = next(r for r in records if r["type"] == "service_state")
    assert state["status"] == "draining"
    requests = [r for r in records if r["type"] == "service_request"]
    assert {r["status"] for r in requests} == {200, 400}


def parent_of(pid):
    """The parent pid of a live process; ``None`` once it is gone or
    has exited (a zombie only waits to be reaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return None if state == "Z" else int(ppid)


def record_counts(path, wanted, timeout_s=10.0):
    """Record-type counts of the manifest at ``path`` once it holds at
    least ``wanted`` of each type, or at the deadline. A response can
    reach the client just before its ``service_request`` record is
    written."""
    deadline = time.monotonic() + timeout_s
    while True:
        counts = {}
        if path.exists():
            for record in read_manifest(path):
                counts[record["type"]] = counts.get(record["type"], 0) + 1
        if (all(counts.get(kind, 0) >= n for kind, n in wanted.items())
                or time.monotonic() > deadline):
            return counts
        time.sleep(0.05)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="finds processes through /proc")
def test_serve_subprocess_sigkill_reaps_its_worker(tmp_path):
    """A gateway killed with SIGKILL runs no drain, yet its manifest
    already holds the records of what it served. Its pool worker,
    which would otherwise wait for work forever, sees its parent gone
    and exits within seconds."""
    manifest = tmp_path / "service.manifest.jsonl"
    proc, port = start_serve("--jobs", "1", "--no-cache",
                             "--metrics-out", str(manifest))
    try:
        assert port, "gateway never reported its port"
        payload = GatewayClient(port=port, timeout_s=120).run(
            **run_fields("mcf_m", "fpb"))
        assert payload["source"] == "computed"
        [worker] = [int(path.parent.name)
                    for path in Path("/proc").glob("[0-9]*/stat")
                    if parent_of(path.parent.name) == proc.pid]
        record_counts(manifest, {"service_request": 1})
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    counts = record_counts(manifest, {}, timeout_s=0)
    assert counts.get("sim_run") == counts.get("service_request") == 1
    assert "metrics_snapshot" not in counts  # no drain ran
    deadline = time.monotonic() + 5
    while parent_of(worker) is not None and time.monotonic() < deadline:
        time.sleep(0.1)
    assert parent_of(worker) is None, "pool worker outlived its gateway"


def test_manifest_streams_records_before_the_drain(tmp_path):
    """Each record reaches the manifest when it happens: two cold /runs
    leave two ``sim_run`` and two ``service_request`` records on disk
    before ``stop()``, and no Perfetto event is collected without a
    trace output. The drain appends only the closing records."""
    path = tmp_path / "service.manifest.jsonl"
    telemetry = Telemetry(manifest=path)
    use_telemetry(telemetry)
    harness = GatewayHarness(jobs=1, telemetry=telemetry).start()
    try:
        client = harness.client(timeout_s=120)
        for scheme in ("fpb", "ideal"):
            payload = client.run(**run_fields("tig_m", scheme))
            assert payload["source"] == "computed"
        counts = record_counts(path, {"service_request": 2})
        assert counts.get("sim_run") == counts.get("service_request") == 2
        assert len(telemetry.trace) == 0
        assert telemetry.records is None
    finally:
        harness.stop()
    types = [record["type"] for record in read_manifest(path)]
    assert types[-2:] == ["service_state", "metrics_snapshot"]
    assert types.count("sim_run") == 2


def test_gateway_without_telemetry_retains_no_span():
    """The gateway's own tracer only propagates span context: after one
    cold and 1,000 warm /runs it holds no span record. Its
    per-(trace id, name) span counter, the one state it keeps, has the
    fingerprint's ``service.request`` and ``service.queued`` entries and
    the dispatcher's ``service.batch`` entry."""
    fields = run_fields("tig_m", "fpb")
    with GatewayHarness(jobs=1) as harness:
        client = harness.client(timeout_s=120)
        assert client.run(**fields)["source"] == "computed"
        for _ in range(1000):
            assert client.run(**fields)["source"] == "memory"
        tracer = harness.gateway.tracer
        held = [item for value in vars(tracer).values()
                if isinstance(value, (list, dict))
                for item in (value.values() if isinstance(value, dict)
                             else value)]
        assert not [item for item in held if isinstance(item, dict)
                    and item.get("type") == "span"]
        assert len(tracer._seq) == 3


def test_memory_cache_stays_bounded():
    """A long-lived gateway trims the global in-memory result cache to
    its configured bound after every dispatch batch."""
    with GatewayHarness(jobs=1, queue_limit=8, batch_max=1,
                        memory_cache_limit=2) as harness:
        client = harness.client()
        for workload, scheme in COMBOS[:4]:
            payload = client.run(**run_fields(workload, scheme))
            assert payload["source"] in ("computed", "memory")
            assert len(_SIM_CACHE) <= 2


@pytest.mark.parametrize("exp_id, gateway_kwargs, n_runs", [
    ("tab3", {}, 24),
    ("fig17", {"memory_cache_limit": 1}, 16),
    ("tab3", {"queue_limit": 8}, 24),
])
def test_experiment_renders_without_simulating_in_the_gateway(
        exp_id, gateway_kwargs, n_runs):
    """``POST /experiment`` computes every run through admission and the
    engine, then renders from exactly those results: a run missing from
    the plan (tab3 reads Figure 13's runs) or evicted from the memory
    cache meanwhile (fig17 under a 1-entry bound) is never simulated in
    the gateway process, and a plan larger than the admission queue
    (tab3's 24 runs against 8 slots) is not refused by its own runs."""
    fields = {"scale": "quick", "n_pcm_writes": 20,
              "max_refs_per_core": 4000}
    with GatewayHarness(jobs=1, **gateway_kwargs) as harness:
        payload = harness.client().experiment(exp_id, **fields)
        counters = harness.client().metrics()["metrics"]["counters"]
    assert payload["planned_runs"]["total"] == n_runs
    assert counters["service_runs_computed"] == n_runs

    request = ExperimentRequest.from_wire({"experiment": exp_id, **fields})
    expected = get_experiment(exp_id)(request.config(), request.scale)
    assert payload["rows"] == json.loads(
        json.dumps(config_to_dict(expected.rows)))


def test_explore_computes_on_the_pool_not_in_the_gateway(monkeypatch):
    """``POST /explore`` computes each generation's points on the
    gateway's worker pool, never in the gateway process. Its frontier is
    the one a session on a private pool computes, every point counts as
    computed, and a cold ``/run`` sent while the exploration's plan runs
    takes its turn on the pool."""
    body = {"space": {"name": "gw", "axes": [
                {"param": "dimm_tokens", "values": [490, 560]}]},
            "strategy": "grid", "budget_points": 2, "workload": "tig_m",
            **MICRO_FIELDS}
    cold = run_fields("mcf_m", "fpb")
    monkeypatch.setenv(ENV_VAR, json.dumps([
        # Keeps the exploration's plan running when the /run arrives.
        {"point": "worker_run", "mode": "hang", "hang_s": 1.0,
         "match": "tig_m/"},
    ]))
    with GatewayHarness(jobs=1) as harness:
        host, port = harness.gateway.host, harness.gateway.port
        explore = harness.submit(
            raw_request(host, port, "POST", "/explore", body))
        registry = harness.gateway.registry
        deadline = time.monotonic() + 30
        while (not registry.snapshot()["counters"].get(
                "explore_sessions_total")
               and time.monotonic() < deadline):
            time.sleep(0.02)
        run = harness.submit(raw_request(host, port, "POST", "/run", cold))
        status, _, payload = explore.result(timeout=120)
        run_status, _, run_payload = run.result(timeout=120)
    assert status == 200, payload
    counts = payload.pop("counts")
    assert counts["computed"] == counts["evaluated"] == 2
    assert run_status == 200, run_payload
    assert run_payload.pop("source") == "computed"

    monkeypatch.delenv(ENV_VAR)
    clear_faults()
    clear_sim_cache()
    assert run_payload == serial_wire_payload(cold)
    session = ExploreSession(ExploreRequest.from_wire(body).settings)
    expected = frontier_report(session.run())
    assert payload == json.loads(json.dumps(expected))


def test_watch_streams_an_exploration_without_telemetry():
    """``/watch?fingerprint=<session id>`` carries an exploration's
    progress when the gateway writes no manifest: each evaluated point
    (with its parameter values and objectives) and the frontier arrive
    once each, before ``explore_done``."""
    body = {"space": {"name": "gw", "axes": [
                {"param": "dimm_tokens", "values": [490, 560]}]},
            "strategy": "grid", "budget_points": 2, "workload": "tig_m",
            **MICRO_FIELDS}
    session_id = ExploreSession(
        ExploreRequest.from_wire(body).settings).session_id
    events = []
    with GatewayHarness(jobs=1) as harness:
        assert harness.gateway.telemetry is None
        client = harness.client(timeout_s=120)
        watcher = threading.Thread(
            target=lambda: events.extend(client.watch(session_id)),
            daemon=True)
        watcher.start()
        deadline = time.monotonic() + 30
        while harness.gateway.snapshot()["watchers"] < 1:
            if time.monotonic() > deadline:
                pytest.fail("watcher never registered")
            time.sleep(0.02)
        status, _, payload = harness.submit(raw_request(
            harness.gateway.host, harness.gateway.port, "POST",
            "/explore", body)).result(timeout=120)
        assert status == 200, payload
    # Leaving the harness drained the gateway, which ends the stream.
    watcher.join(timeout=30)
    assert not watcher.is_alive(), f"watch never ended: {events}"

    kinds = [event["event"] for event in events]
    assert kinds.count("explore_point") == 2, kinds
    assert kinds.count("explore_frontier") == 1, kinds
    assert kinds.count("explore_done") == 1, kinds
    done_at = kinds.index("explore_done")
    assert all(index < done_at for index, kind in enumerate(kinds)
               if kind in ("explore_point", "explore_frontier")), kinds
    points = [event for event in events if event["event"] == "explore_point"]
    assert sorted(event["point"]["dimm_tokens"] for event in points) == [
        490, 560]
    assert all(event["objectives"] for event in points)
    assert all(event["fingerprint"] == session_id for event in events)
