"""Top-level simulation driver.

:func:`run_simulation` wires trace + scheme + config into one run and
returns a :class:`SimResult`; every run an experiment reads is computed
through it (:func:`repro.experiments.engine.execute_plan` →
:func:`repro.experiments.base.execute_request` → :func:`run_simulation`).
:func:`run_schemes` is a library convenience that replays one trace
under several schemes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..config.system import SystemConfig, canonical_value
from ..core.policies.registry import SchemeSpec, get_scheme
from ..errors import SimulationError, WatchdogError
from ..pcm.dimm import DIMM
from ..trace.generator import generate_trace
from ..trace.records import Trace
from .cpu import Core
from .events import SimEngine
from .memory_system import MemorySystem
from .stats import SimStats


@dataclass
class SimResult:
    """Everything an experiment needs from one simulation run."""

    scheme: str
    workload: str
    cycles: int
    cpi: float
    stats: SimStats
    config: SystemConfig = field(repr=False)

    def speedup_over(self, baseline: "SimResult") -> float:
        """The paper's Eq. 7: CPI_baseline / CPI_tech."""
        if self.cpi <= 0:
            raise SimulationError(f"non-positive CPI in {self.scheme}")
        return baseline.cpi / self.cpi

    def throughput_ratio(self, baseline: "SimResult") -> float:
        base = baseline.stats.write_throughput
        if base <= 0:
            raise SimulationError(
                f"non-positive write throughput in baseline {baseline.scheme}"
            )
        return self.stats.write_throughput / base

    def result_fingerprint(self) -> str:
        """Canonical digest of everything the run *produced*.

        Covers scheme, workload, cycle count, every statistics counter
        (raw and derived) and the per-core instruction/finish vectors —
        but deliberately **excludes the config**, so two runs of the
        same experiment under different kernels hash equal exactly when
        they simulated identically. Floats are canonicalized with the
        same ``%.17g`` round-trip as :func:`repro.config.
        config_fingerprint`, so equality means bit-equality.
        """
        payload = canonical_value((
            "repro.sim.result",
            self.scheme,
            self.workload,
            int(self.cycles),
            sorted(self.stats.snapshot().items()),
            list(self.stats.core_instructions),
            list(self.stats.core_finish_cycles),
        ))
        return hashlib.sha256(repr(payload).encode()).hexdigest()


def run_simulation(
    config: SystemConfig,
    workload: str,
    scheme: str,
    *,
    trace: Optional[Trace] = None,
    n_pcm_writes: int = 2400,
    max_refs_per_core: int = 400_000,
    telemetry=None,
) -> SimResult:
    """Simulate one workload under one power-budgeting scheme.

    Pass a :class:`repro.obs.Telemetry` as ``telemetry`` to collect
    metrics, time series and trace events from the run; attaching it
    never changes simulation results (the sampler piggybacks on event
    dispatch and every hook only reads state).
    """
    spec: SchemeSpec = get_scheme(scheme)
    cfg = spec.apply_to_config(config)
    if trace is None:
        trace = generate_trace(
            cfg, workload,
            n_pcm_writes=n_pcm_writes,
            max_refs_per_core=max_refs_per_core,
        )
    return _run(cfg, spec, trace, telemetry=telemetry)


def run_schemes(
    config: SystemConfig,
    workload: str,
    schemes: Iterable[str],
    *,
    n_pcm_writes: int = 2400,
    max_refs_per_core: int = 400_000,
) -> Dict[str, SimResult]:
    """Replay one workload's trace under several schemes.

    The trace is generated once (scheme knobs never change cache
    behaviour, so it is shared), exactly like the paper's fixed traces.
    """
    results: Dict[str, SimResult] = {}
    trace = generate_trace(
        config, workload,
        n_pcm_writes=n_pcm_writes,
        max_refs_per_core=max_refs_per_core,
    )
    for scheme in schemes:
        results[scheme] = run_simulation(
            config, workload, scheme, trace=trace,
        )
    return results


def _run(cfg: SystemConfig, spec: SchemeSpec, trace: Trace,
         telemetry=None) -> SimResult:
    engine = SimEngine()
    stats = SimStats()
    dimm = DIMM(cfg)
    manager = spec.build_manager(cfg, dimm)
    mem = MemorySystem(cfg, dimm, manager, engine, stats)
    if telemetry is not None:
        telemetry.attach(cfg, spec.name, trace.workload, engine, mem, manager)

    cores = [
        Core(core_id, stream, engine, mem)
        for core_id, stream in enumerate(trace.per_core)
    ]
    for core in cores:
        core.start()

    try:
        try:
            end = engine.run()
        except WatchdogError as exc:
            # Re-raise with run identity so a supervised parallel sweep
            # can report *which* run livelocked, not just that one did.
            raise WatchdogError(
                f"{trace.workload}/{spec.name}: {exc}"
            ) from exc
        if mem.work_outstanding:
            raise SimulationError(
                f"simulation of {trace.workload} under {spec.name} ended with "
                f"work outstanding (rdq={len(mem.rdq)}, wrq={len(mem.wrq)}, "
                f"stalled={len(mem.stalled)}, paused={len(mem.paused)}, "
                f"inflight={mem._inflight_writes})"
            )
        unfinished = [c.core_id for c in cores if not c.finished]
        if unfinished:
            raise SimulationError(f"cores never finished: {unfinished}")

        mem.finalize(end)
        stats.core_instructions = [core.instructions for core in cores]
        stats.core_finish_cycles = [
            end if core.finish_time is None else core.finish_time
            for core in cores
        ]
    except Exception:
        if telemetry is not None:
            telemetry.discard_run()
        raise
    if telemetry is not None:
        telemetry.finish_run(stats, end)
    return SimResult(
        scheme=spec.name,
        workload=trace.workload,
        cycles=end,
        cpi=stats.cpi,
        stats=stats,
        config=cfg,
    )
