"""Shared fixtures for the test suite.

Beyond the tiny configs, this hosts the process-state isolation
machinery every integration suite (and ``benchmarks/conftest.py``)
used to hand-roll: the experiment layer keeps process-wide state —
in-memory run cache, trace memo, disk-cache/telemetry installations,
failed-run registry, fault plan — and a test that leaks any of it
poisons its neighbours. Suites request :func:`isolated_run_state`
(usually via a module-local ``autouse`` wrapper) and, when they need a
real on-disk cache, :func:`tmp_sim_cache`.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.config.system import (
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    PCMConfig,
    PowerConfig,
    SystemConfig,
)
from repro.experiments import engine
from repro.experiments.base import (
    RunRequest,
    clear_failed_runs,
    clear_sim_cache,
    fetch,
    use_disk_cache,
    use_telemetry,
)
from repro.sim.simcache import SimCache
from repro.testing.faults import ENV_VAR as FAULTS_ENV_VAR
from repro.testing.faults import clear_faults
from repro.trace import generator


def reset_run_state() -> None:
    """Return every piece of process-wide experiment-layer state to its
    pristine default: no fault plan, empty in-memory run cache and
    trace memo, no failed-run verdicts, and no disk cache or telemetry
    installation. Call on both sides of anything that mutates them.
    Forked engine workers inherit the trace memo, so a test that counts
    generations must not start from a neighbour's."""
    clear_faults()
    clear_sim_cache()
    generator.clear_trace_cache()
    clear_failed_runs()
    use_disk_cache(None)
    use_telemetry(None)


@pytest.fixture
def isolated_run_state(monkeypatch):
    """Pristine process-wide run state before *and* after the test,
    with any inherited ``REPRO_FAULTS`` plan scrubbed from the
    environment (it would otherwise reach forked engine workers)."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    reset_run_state()
    yield
    reset_run_state()


def count_trace_generations(monkeypatch, path) -> None:
    """Append ``<pid> <workload>/<kernel>`` to ``path`` for every trace
    generated from now on, by any process.

    Wraps the generator's uncached body; patched before an engine pool
    forks, so every worker inherits the wrapper and the count spans
    processes. Call it first thing in a test under
    :func:`isolated_run_state`, whose empty trace memo the workers
    inherit too."""
    generate = generator._generate

    def counting(config, spec, *args):
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {spec.name}/{config.kernel}\n")
        return generate(config, spec, *args)

    monkeypatch.setattr(generator, "_generate", counting)


def count_worker_runs(monkeypatch, path) -> None:
    """Append ``<pid> <key>`` to ``path`` for every run an engine worker
    starts from now on.

    Wraps the worker's fault-injection hook, which fires once per run
    execution; patched before an engine pool forks, so every worker
    inherits it and the count spans processes."""
    inject = engine.maybe_inject

    def counting(point, key=""):
        if point == "worker_run":
            with open(path, "a") as log:
                log.write(f"{os.getpid()} {key}\n")
        inject(point, key=key)

    monkeypatch.setattr(engine, "maybe_inject", counting)


def planned(config: SystemConfig, workload: str, scheme: str, scale):
    """One run's result the way the product obtains it: computed by the
    engine, then read from the caches."""
    request = RunRequest(config, workload, scheme, scale)
    engine.execute_plan([request])
    return fetch(request)


@pytest.fixture
def tmp_sim_cache(tmp_path) -> SimCache:
    """A fresh on-disk :class:`SimCache` under this test's tmp dir,
    installed process-wide for the duration of the test."""
    cache = SimCache(tmp_path / "cache")
    use_disk_cache(cache)
    yield cache
    use_disk_cache(None)


def make_tiny_config(seed: int = 1, **overrides) -> SystemConfig:
    """A scaled-down system that keeps simulations fast in tests:
    2 cores, 2 MB per-core L3 — the PCM side stays at Table 1 values."""
    caches = CacheConfig(
        l1=CacheLevelConfig(16 * 1024, 4, 64, 2),
        l2=CacheLevelConfig(256 * 1024, 4, 64, 7),
        l3=CacheLevelConfig(2 * 1024 * 1024, 8, 256, 200),
    )
    config = SystemConfig(
        cpu=CPUConfig(cores=2),
        caches=caches,
        seed=seed,
    )
    if overrides:
        config = replace(config, **overrides)
    return config


@pytest.fixture
def tiny_config() -> SystemConfig:
    return make_tiny_config()


def make_figure5_config() -> SystemConfig:
    """The idealized setting of the Figure 5/6 worked examples:
    SET power is half of RESET power (C = 2), an 80-token budget, and
    perfect pump efficiencies so tokens equal input power."""
    pcm = PCMConfig(reset_power_uw=100.0, set_power_uw=50.0)
    power = PowerConfig(dimm_tokens=80.0, lcp_efficiency=1.0)
    return replace(make_tiny_config(), pcm=pcm, power=power)


@pytest.fixture
def figure5_config() -> SystemConfig:
    return make_figure5_config()
