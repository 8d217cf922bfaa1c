"""The four end-to-end workloads, their metrics and the correctness gate.

Every workload runs at quick scale (400 writes, 80k refs per core) on
``baseline_config()`` with the simulated seed fixed at 1, so each
simulated result can be checked against the golden corpus
(``tests/paper/golden_fingerprints.json``). The benchmark seed only
reorders the ops of each round and picks the gateway's warm requests.

A run sets its workload up :data:`SETUP_REPEATS` times (``setup_s`` is
the import time plus the median set-up), then repeats whole *units* —
rounds, plan ops or gateway passes — until the next one would end past
``seconds``, and reports the median over units. A traced run first
measures one unit untraced, then installs :class:`~.layers.LayerTracer`
for the rest; its layer metrics are per traced unit.

Host times are reported in *reference seconds* (see :class:`HostClock`):
on a shared host other tenants slow the simulator by up to half within
minutes, and a calibration loop timed between ops slows with it.
"""

from __future__ import annotations

import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.presets import baseline_config
from repro.core import available_schemes
from repro.errors import ReproError
from repro.experiments import engine
from repro.experiments.base import (
    QUICK,
    cache_get,
    clear_sim_cache,
    use_disk_cache,
)
from repro.experiments.golden import (
    GOLDEN_PATH,
    check_schema_version,
    load_corpus,
)
from repro.experiments.registry import get_experiment, plan_runs
from repro.service.schemas import ServiceError
from repro.service.testing import GatewayHarness
from repro.sim import runner
from repro.sim.simcache import SimCache, run_fingerprint
from repro.trace import generator

from .layers import (
    KERNELS,
    PER_KERNEL_METRICS,
    SHARED_METRICS,
    LayerTracer,
    NullTracer,
    replay_op_metric,
)

#: How many times each run sets its workload up; ``setup_s`` takes the
#: median, so one slow set-up does not move it.
SETUP_REPEATS = 3

#: Longest a gateway pass may take before its clients count as hung.
PASS_TIMEOUT_S = 150.0

#: Iterations of the calibration loop, and its time on a quiet host of
#: the kind the baseline was measured on.
CALIBRATION_LOOPS = 150_000
CALIBRATION_REF_S = 0.0125

#: End-to-end metrics every workload reports: name -> (unit, better,
#: bound). ``bound`` is the share of the parent's median by which the
#: metric may worsen before a change counts as a regression. Host-time
#: metrics get 25%: co-tenant load on a shared 2-vCPU host moves the
#: median of ten 25 s runs by up to a fifth even in reference seconds.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "writes_per_s": ("writes/s", "higher", 0.25),
    "reads_per_s": ("reads/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: Metrics only some workloads report; they land in the ``bench_e2e``
#: record beside the end-to-end ones, where ``compare`` gates them.
WORKLOAD_METRICS = {
    "writes_per_s.reference": ("writes/s", "higher", 0.25),
    "writes_per_s.vectorized": ("writes/s", "higher", 0.25),
    "reads_per_s.reference": ("reads/s", "higher", 0.25),
    "reads_per_s.vectorized": ("reads/s", "higher", 0.25),
    "plan_s": ("s", "lower", 0.25),
    "cold_run_p50_ms": ("ms", "lower", 0.25),
    "warm_run_p50_ms": ("ms", "lower", 0.25),
    "warm_run_p90_ms": ("ms", "lower", 0.25),
    "error_rate": ("fraction", "lower", 0.0),
}


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}.{kernel}": unit
             for name, unit in PER_KERNEL_METRICS.items()
             for kernel in KERNELS}
    units.update(SHARED_METRICS)
    for scheme in available_schemes():
        for kernel in KERNELS:
            units[replay_op_metric(scheme, kernel)] = "ms"
    return units


def load_golden(root: Path) -> Dict[str, str]:
    """Run fingerprint (every kernel) -> golden result fingerprint.

    Raises :class:`repro.experiments.golden.GoldenMismatch` when the
    corpus is missing, stale, or recorded at another scale.
    """
    document = load_corpus(root / GOLDEN_PATH)
    check_schema_version(document)
    scale = document["scale"]
    if (scale["n_pcm_writes"], scale["max_refs_per_core"]) != (
            QUICK.n_pcm_writes, QUICK.max_refs_per_core):
        raise ValueError(f"golden corpus is not at quick scale: {scale}")
    return {
        run_key: str(entry["result_fingerprint"])
        for entry in document["runs"]
        for run_key in entry["run_fingerprints"].values()
    }


def quick_key(config, workload: str, scheme: str) -> str:
    return run_fingerprint(config, workload, scheme,
                           n_pcm_writes=QUICK.n_pcm_writes,
                           max_refs_per_core=QUICK.max_refs_per_core)


class Gate:
    """Counts attempted ops and records every failure: a refused or
    failed op, or a result whose fingerprint is not the golden one."""

    def __init__(self, golden: Dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, run_key: str, result_fingerprint: str,
              label: str) -> None:
        self.attempted += 1
        expected = self.golden.get(run_key)
        if expected is None:
            self.failures.append(
                f"{label}: run {run_key[:12]} is not in the golden corpus")
        elif expected != result_fingerprint:
            self.failures.append(
                f"{label}: result {result_fingerprint[:12]} != golden "
                f"{expected[:12]}")

    def check_result(self, config, workload: str, scheme: str,
                     result) -> None:
        self.check(quick_key(config, workload, scheme),
                   result.result_fingerprint(),
                   f"{workload}/{scheme}/{config.kernel}")

    def fail(self, label: str, why: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {why}")


class HostClock:
    """Times a fixed pure-Python loop between ops.

    Other tenants of a shared host slow the loop and the simulator
    alike (their per-op times correlate at about 0.8), so every host
    time the benchmark reports is scaled to a reference host: raw
    seconds times ``CALIBRATION_REF_S`` over the run's median loop
    time. Across 25 s windows this cut the spread of cold-run
    throughput from 14% to about 2%.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            acc = 0
            for i in range(CALIBRATION_LOOPS):
                acc = (acc + i * i) % 1_000_003
            self.samples.append(time.perf_counter() - start)

    def median(self) -> float:
        return statistics.median(self.samples)


def to_reference(value: float, unit: str, host_s: float) -> float:
    """Scale a host-time metric to reference seconds (rates up, times
    down when the host ran slow); other units pass through."""
    speed = host_s / CALIBRATION_REF_S
    if unit.endswith("/s"):
        return value * speed
    if unit in ("s", "ms", "us/event"):
        return value / speed
    return value


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class _Tally:
    """Simulated work and host seconds of one unit, per (trace, kernel)."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, str, object, float]] = []

    def add(self, trace: str, kernel: str, result, seconds: float) -> None:
        self.rows.append((trace, kernel, result, seconds))

    def rate(self, field: str, traces: Optional[Sequence[str]] = None,
             kernel: Optional[str] = None,
             seconds: Optional[float] = None) -> float:
        rows = [row for row in self.rows
                if (traces is None or row[0] in traces)
                and (kernel is None or row[1] == kernel)]
        done = sum(getattr(row[2].stats, field) for row in rows)
        host = seconds if seconds is not None else sum(r[3] for r in rows)
        return done / host if host > 0 else 0.0

    def counts(self) -> Dict[str, float]:
        """Deterministic per-kernel totals, named like the layer metrics."""
        out: Dict[str, float] = {}
        for kernel in KERNELS:
            rows = [row for row in self.rows if row[1] == kernel]
            out[f"sim.writes_done.{kernel}"] = sum(
                r[2].stats.writes_done for r in rows)
            out[f"sim.reads_done.{kernel}"] = sum(
                r[2].stats.reads_done for r in rows)
            out[f"sim.cycles.{kernel}"] = sum(r[2].cycles for r in rows)
        return out


Unit = Dict[str, object]


class Workload:
    """One workload: a repeatable set-up and a unit of measured work.

    Size attributes (trace lists, scheme lists, request counts) can be
    overridden by keyword for reduced-size runs.
    """

    name = ""

    def __init__(self, gate: Gate, clock: HostClock, rng: random.Random,
                 scratch: Path, **sizes) -> None:
        for key, value in sizes.items():
            if not hasattr(type(self), key):
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)
        self.gate = gate
        self.clock = clock
        self.rng = rng
        self.scratch = scratch

    def setup(self) -> None:
        """Everything a unit needs that is built once per run."""

    def unit(self, tracer) -> Unit:
        raise NotImplementedError

    def reference_unit(self) -> Unit:
        """The untraced unit a traced run measures first."""
        return self.unit(NullTracer())

    def summarize(self, units: List[Unit]) -> Dict[str, float]:
        """Workload metrics: the median over units of each sample."""
        names = [key for key in units[0] if key in END_TO_END
                 or key in WORKLOAD_METRICS]
        return {name: statistics.median(float(u[name]) for u in units)
                for name in names}

    def layer_extras(self, units: List[Unit], baseline: Unit,
                     tracer: LayerTracer) -> Dict[str, float]:
        """Layer metrics the workload measures itself."""
        return {}


def _throughput(tally: _Tally, wall: float,
                write_traces: Optional[Sequence[str]] = None,
                read_traces: Optional[Sequence[str]] = None) -> Unit:
    unit: Unit = {
        "wall": wall,
        "writes_per_s": tally.rate("writes_done", write_traces),
        "reads_per_s": tally.rate("reads_done", read_traces),
        "counts": tally.counts(),
    }
    for kernel in KERNELS:
        unit[f"writes_per_s.{kernel}"] = tally.rate(
            "writes_done", write_traces, kernel)
        unit[f"reads_per_s.{kernel}"] = tally.rate(
            "reads_done", read_traces, kernel)
    return unit


class ColdRun(Workload):
    """Rounds of cold runs: each (trace, kernel) pair generates its trace
    uncached, then simulates it under FPB. The trace layer (L3 prewarm,
    cache replay) does most of the work; engine and gateway idle."""

    name = "cold_run"
    traces: Tuple[str, ...] = ("lbm_m", "mcf_m", "mix_1")
    scheme = "fpb"

    def setup(self) -> None:
        self.configs = {k: baseline_config().with_kernel(k) for k in KERNELS}

    def unit(self, tracer) -> Unit:
        ops = [(trace, kernel) for trace in self.traces for kernel in KERNELS]
        self.rng.shuffle(ops)
        tally = _Tally()
        start = time.perf_counter()
        for trace, kernel in ops:
            config = self.configs[kernel]
            self.clock.sample()
            with tracer.op(f"cold_run {trace}/{kernel}", kernel):
                begin = time.perf_counter()
                generated = generator.generate_trace(
                    config, trace, n_pcm_writes=QUICK.n_pcm_writes,
                    max_refs_per_core=QUICK.max_refs_per_core,
                    use_cache=False)
                result = runner.run_simulation(config, trace, self.scheme,
                                               trace=generated)
                seconds = time.perf_counter() - begin
            self.gate.check_result(config, trace, self.scheme, result)
            tally.add(trace, kernel, result, seconds)
        return _throughput(tally, time.perf_counter() - start)


class Replay(Workload):
    """Rounds replaying a write-heavy and a read-heavy trace, built in
    set-up, under every scheme on both kernels. The event loop, the
    controller, power acquisition and the kernels do all the work; the
    ``sche*`` schemes exercise the failed-acquisition path."""

    name = "replay"
    write_traces: Tuple[str, ...] = ("mcf_m",)
    read_traces: Tuple[str, ...] = ("tig_m",)
    schemes: Tuple[str, ...] = available_schemes()

    def setup(self) -> None:
        self.configs = {k: baseline_config().with_kernel(k) for k in KERNELS}
        self.traces = {
            (trace, kernel): generator.generate_trace(
                self.configs[kernel], trace,
                n_pcm_writes=QUICK.n_pcm_writes,
                max_refs_per_core=QUICK.max_refs_per_core, use_cache=False)
            for trace in self.write_traces + self.read_traces
            for kernel in KERNELS
        }

    def unit(self, tracer) -> Unit:
        ops = [(trace, kernel, scheme) for (trace, kernel) in self.traces
               for scheme in self.schemes]
        self.rng.shuffle(ops)
        tally = _Tally()
        op_ms: Dict[str, List[float]] = {}
        start = time.perf_counter()
        for trace, kernel, scheme in ops:
            config = self.configs[kernel]
            self.clock.sample()
            with tracer.op(f"replay {trace}/{scheme}/{kernel}", kernel):
                begin = time.perf_counter()
                result = runner.run_simulation(
                    config, trace, scheme, trace=self.traces[trace, kernel])
                seconds = time.perf_counter() - begin
            self.gate.check_result(config, trace, scheme, result)
            tally.add(trace, kernel, result, seconds)
            op_ms.setdefault(replay_op_metric(scheme, kernel), []).append(
                1e3 * seconds)
        unit = _throughput(tally, time.perf_counter() - start,
                           self.write_traces, self.read_traces)
        unit["op_ms"] = {name: statistics.fmean(values)
                         for name, values in op_ms.items()}
        return unit

    def layer_extras(self, units, baseline, tracer) -> Dict[str, float]:
        return dict(baseline["op_ms"])


class Plan(Workload):
    """Cold multi-figure plans at the product defaults (reference
    kernel, no batching) on two pool workers, then rendering the
    figures from the warm cache: dispatch, pickling, IPC, dedupe and
    cache I/O around every run."""

    name = "plan"
    experiments: Tuple[str, ...] = ("fig16", "fig17", "fig18")
    jobs = 2

    def setup(self) -> None:
        self.config = baseline_config()
        self.requests = plan_runs(self.experiments, self.config, QUICK)

    def unit(self, tracer, jobs: Optional[int] = None) -> Unit:
        jobs = self.jobs if jobs is None else jobs
        self.clock.sample(5)
        requests = list(self.requests)
        self.rng.shuffle(requests)
        clear_sim_cache()
        generator.clear_trace_cache()
        cache_dir = Path(tempfile.mkdtemp(prefix="plan-", dir=self.scratch))
        use_disk_cache(SimCache(cache_dir))
        render_error = None
        try:
            with tracer.op(f"plan jobs={jobs}"):
                start = time.perf_counter()
                engine.execute_plan(requests, jobs=jobs)
                try:
                    for exp_id in self.experiments:
                        get_experiment(exp_id)(self.config, QUICK)
                except ReproError as exc:
                    render_error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
            cache_bytes = sum(path.stat().st_size
                              for path in cache_dir.rglob("*.pkl"))
        finally:
            use_disk_cache(None)
            shutil.rmtree(cache_dir, ignore_errors=True)
        if render_error is not None:
            self.gate.fail("plan render", render_error)
        tally = _Tally()
        for request in engine.dedupe_requests(requests):
            result = cache_get(request.fingerprint)
            label = f"{request.workload}/{request.scheme}"
            if result is None:
                self.gate.fail(label, "plan left no result (failed or "
                                      "quarantined)")
                continue
            self.gate.check(request.fingerprint,
                            result.result_fingerprint(), label)
            tally.add(request.workload, request.config.kernel, result, 0.0)
        return {
            "wall": wall,
            "plan_s": wall,
            "writes_per_s": tally.rate("writes_done", seconds=wall),
            "reads_per_s": tally.rate("reads_done", seconds=wall),
            "writes_per_s.reference": tally.rate(
                "writes_done", kernel="reference", seconds=wall),
            "reads_per_s.reference": tally.rate(
                "reads_done", kernel="reference", seconds=wall),
            "simcache.bytes": cache_bytes,
        }

    def reference_unit(self) -> Unit:
        unit = super().reference_unit()
        self.serial_wall = self.unit(NullTracer(), jobs=1)["wall"]
        return unit

    def layer_extras(self, units, baseline, tracer) -> Dict[str, float]:
        return {
            "experiments.parallel_speedup":
                self.serial_wall / baseline["wall"],
            "simcache.bytes": statistics.median(u["simcache.bytes"]
                                                for u in units),
        }


class Gateway(Workload):
    """Passes of a closed loop of client threads against a fresh
    in-process gateway: each cold ``/run`` (queue, dispatch, worker
    process) is followed by warm ``/run`` requests (HTTP, JSON, cache
    lookup) for fingerprints the client was already served."""

    name = "gateway"
    trace = "tig_m"
    schemes: Tuple[str, ...] = available_schemes()
    clients = 2
    warm_per_cold = 200

    def _start(self) -> Tuple[GatewayHarness, Path]:
        clear_sim_cache()
        generator.clear_trace_cache()
        cache_dir = Path(tempfile.mkdtemp(prefix="gateway-",
                                          dir=self.scratch))
        cache = SimCache(cache_dir)
        use_disk_cache(cache)
        return GatewayHarness(jobs=1, cache=cache).start(), cache_dir

    @staticmethod
    def _stop(harness: GatewayHarness, cache_dir: Path) -> None:
        try:
            harness.stop()
        finally:
            use_disk_cache(None)
            shutil.rmtree(cache_dir, ignore_errors=True)

    def setup(self) -> None:
        harness, cache_dir = self._start()
        try:
            harness.client().healthz()
        finally:
            self._stop(harness, cache_dir)

    def unit(self, tracer) -> Unit:
        self.clock.sample(5)
        combos = [(scheme, kernel) for scheme in self.schemes
                  for kernel in KERNELS]
        self.rng.shuffle(combos)
        logs: List[List[tuple]] = [[] for _ in range(self.clients)]
        harness, cache_dir = self._start()
        try:
            threads = [
                threading.Thread(
                    target=self._client, name=f"e2e-client-{i}",
                    args=(harness, combos[i::self.clients],
                          random.Random(self.rng.random()), logs[i]))
                for i in range(self.clients)
            ]
            with tracer.op("gateway pass"):
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=PASS_TIMEOUT_S)
                wall = time.perf_counter() - start
            counters = harness.client().metrics()["metrics"]["counters"]
        finally:
            self._stop(harness, cache_dir)
        for thread in threads:
            if thread.is_alive():
                self.gate.fail(thread.name, "client still running after "
                                            f"{PASS_TIMEOUT_S:.0f} s")
        return self._tally(logs, wall, counters, tracer)

    def _client(self, harness: GatewayHarness,
                mine: List[Tuple[str, str]], rng: random.Random,
                log: List[tuple]) -> None:
        """One closed-loop client: each cold /run, then ``warm_per_cold``
        warm /run picked from the fingerprints it was already served."""
        client = harness.client()
        served: List[Tuple[str, str]] = []
        for scheme, kernel in mine:
            if self._request(client, "cold", scheme, kernel, log):
                served.append((scheme, kernel))
            for _ in range(self.warm_per_cold if served else 0):
                self._request(client, "warm", *rng.choice(served), log)

    def _request(self, client, kind: str, scheme: str, kernel: str,
                 log: List[tuple]) -> bool:
        start = time.perf_counter()
        try:
            response = client.run(workload=self.trace, scheme=scheme,
                                  kernel=kernel, scale=QUICK.name)
        except (ServiceError, OSError) as exc:
            log.append((kind, time.perf_counter() - start, scheme, kernel,
                        None, f"{type(exc).__name__}: {exc}"))
            return False
        latency = time.perf_counter() - start
        stats = response["stats"]
        log.append((kind, latency, scheme, kernel,
                    (response["fingerprint"], response["result_fingerprint"],
                     response["source"], stats["writes_done"],
                     stats["reads_done"]), None))
        return True

    def _tally(self, logs, wall: float, counters: Dict[str, float],
               tracer) -> Unit:
        expected_source = {"cold": "computed", "warm": "memory"}
        cold_ms: List[float] = []
        warm_ms: List[float] = []
        queue_ms: List[float] = []
        cold_writes = cold_reads = cold_s = 0.0
        for kind, latency, scheme, kernel, reply, error in (
                entry for log in logs for entry in log):
            label = f"{kind} {self.trace}/{scheme}/{kernel}"
            if error is not None:
                self.gate.fail(label, error)
                continue
            fingerprint, result_fp, source, writes, reads = reply
            if source != expected_source[kind]:
                self.gate.fail(label, f"served from {source!r}")
                continue
            self.gate.check(fingerprint, result_fp, label)
            if kind == "warm":
                warm_ms.append(1e3 * latency)
                continue
            cold_ms.append(1e3 * latency)
            cold_writes += writes
            cold_reads += reads
            cold_s += latency
            if fingerprint in tracer.dispatch_s:
                queue_ms.append(
                    1e3 * (latency - tracer.dispatch_s[fingerprint]))
        return {
            "wall": wall,
            "writes_per_s": cold_writes / cold_s if cold_s else 0.0,
            "reads_per_s": cold_reads / cold_s if cold_s else 0.0,
            "cold_ms": cold_ms,
            "warm_ms": warm_ms,
            "queue_ms": queue_ms,
            "coalesced": float(counters.get("service_coalesced_total", 0)),
        }

    def summarize(self, units: List[Unit]) -> Dict[str, float]:
        metrics = super().summarize(units)
        cold = [ms for u in units for ms in u["cold_ms"]]
        warm = [ms for u in units for ms in u["warm_ms"]]
        if cold:
            metrics["cold_run_p50_ms"] = statistics.median(cold)
        if warm:
            metrics["warm_run_p50_ms"] = statistics.median(warm)
            metrics["warm_run_p90_ms"] = percentile(warm, 90)
        return metrics

    def layer_extras(self, units, baseline, tracer) -> Dict[str, float]:
        warm = [ms for u in units for ms in u["warm_ms"]]
        cold = sum(len(u["cold_ms"]) for u in units)
        queue = [ms for u in units for ms in u["queue_ms"]]
        return {
            "service.coalesced_frac": (
                sum(u["coalesced"] for u in units) / cold if cold else 0.0),
            "service.queue_wait_ms":
                statistics.median(queue) if queue else 0.0,
            "service.warm_run_p99_ms": percentile(warm, 99) if warm else 0.0,
        }


WORKLOADS = {cls.name: cls for cls in (ColdRun, Replay, Plan, Gateway)}


def _measure(step: Callable[[], Unit], seconds: float) -> List[Unit]:
    """Run whole units while the next one (as long as the mean so far)
    still ends within ``seconds``; at least one unit."""
    units: List[Unit] = []
    start = time.perf_counter()
    while True:
        units.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(units) + 1) / len(units) > seconds:
            return units


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 golden: Dict[str, str], scratch: Path,
                 import_s: float = 0.0,
                 trace_path: Optional[Path] = None,
                 **sizes) -> Dict[str, object]:
    """One benchmark run of workload ``name``; returns the record body
    (metrics in reference seconds, the same in raw host seconds, layer
    metrics when traced, correctness counts)."""
    gate = Gate(golden)
    clock = HostClock()
    workload = WORKLOADS[name](gate, clock, random.Random(seed), scratch,
                               **sizes)
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)

    baseline: Optional[Unit] = None
    layers: Dict[str, float] = {}
    if trace:
        start = time.perf_counter()
        baseline = workload.reference_unit()
        remaining = seconds - (time.perf_counter() - start)
        with LayerTracer(f"benchmarks.e2e {name}") as tracer:
            units = _measure(lambda: workload.unit(tracer), remaining)
        layers = {metric: 0.0 for metric in layer_metric_units()}
        layers.update(tracer.metrics(len(units)))
        layers.update(workload.layer_extras(units, baseline, tracer))
        layers["trace_overhead_frac"] = (
            statistics.median(u["wall"] for u in units) / baseline["wall"]
            - 1.0)
        for count, value in baseline.get("counts", {}).items():
            if layers[count] != value:
                gate.fail("tracing", f"{count} {layers[count]} traced != "
                                     f"{value} untraced")
        if trace_path is not None:
            tracer.builder.write(trace_path)
    else:
        units = _measure(lambda: workload.unit(NullTracer()), seconds)
    clock.sample(5)
    host_s = clock.median()

    raw = workload.summarize(units)
    raw["setup_s"] = import_s + statistics.median(setups)
    raw["peak_rss_mb"] = peak_rss_mb()
    raw["error_rate"] = (len(gate.failures) / gate.attempted
                         if gate.attempted else 1.0)
    table = {**END_TO_END, **WORKLOAD_METRICS}
    record: Dict[str, object] = {
        "workload": name,
        "seconds": seconds,
        "traced": trace,
        "units": len(units),
        "calibration_s": host_s,
        "calibration_samples": len(clock.samples),
        "import_s": import_s,
        "setup_runs_s": setups,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "failures": gate.failures[:20],
        "metrics": {
            metric: {"value": to_reference(value, table[metric][0], host_s),
                     "unit": table[metric][0], "better": table[metric][1],
                     "bound": table[metric][2]}
            for metric, value in raw.items()
        },
        "raw_metrics": raw,
        "counts": (baseline or units[0]).get("counts", {}),
    }
    if trace:
        record["layers"] = {
            metric: {"value": to_reference(layers[metric], unit, host_s),
                     "unit": unit}
            for metric, unit in layer_metric_units().items()
        }
    return record
