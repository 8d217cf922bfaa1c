"""Property: observation must not perturb the simulation.

Attaching a :class:`repro.obs.Telemetry` (probe sampling + hot-path
hooks) to a run must leave every deterministic statistic bit-identical
to the bare run, for any workload shape and scheme, under a fixed seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.registry import get_scheme
from repro.obs import Telemetry
from repro.pcm.dimm import DIMM
from repro.sim.cpu import Core
from repro.sim.events import SimEngine
from repro.sim.memory_system import MemorySystem
from repro.sim.stats import SimStats
from repro.trace.records import PCMAccess, READ, WRITE

from ..conftest import make_tiny_config


@st.composite
def access_streams(draw):
    """Two per-core access streams: writes on core 0, reads on core 1
    (reads against written lines can trigger cancellations/pauses)."""
    writes = []
    for _ in range(draw(st.integers(1, 6))):
        addr = draw(st.integers(0, 7))
        n = draw(st.integers(1, 200))
        idx = np.array(sorted(draw(st.sets(
            st.integers(0, 1023), min_size=n, max_size=n))),
            dtype=np.int64)
        iters = np.array(draw(st.lists(
            st.integers(1, 6), min_size=idx.size, max_size=idx.size)),
            dtype=np.uint8)
        gap = draw(st.integers(1, 400))
        writes.append(PCMAccess(core=0, kind=WRITE, line_addr=addr,
                                gap_instr=gap, gap_hit_cycles=0,
                                changed_idx=idx, iter_counts=iters))
    reads = [
        PCMAccess(core=1, kind=READ,
                  line_addr=draw(st.integers(0, 7)),
                  gap_instr=draw(st.integers(1, 400)),
                  gap_hit_cycles=0)
        for _ in range(draw(st.integers(0, 4)))
    ]
    return [writes, reads]


def run_once(streams, scheme, observe):
    config = make_tiny_config()
    spec = get_scheme(scheme)
    cfg = spec.apply_to_config(config)
    engine = SimEngine()
    stats = SimStats()
    dimm = DIMM(cfg)
    manager = spec.build_manager(cfg, dimm)
    mem = MemorySystem(cfg, dimm, manager, engine, stats)
    telemetry = None
    if observe:
        telemetry = Telemetry(sample_interval=500)
        telemetry.attach(cfg, scheme, "prop", engine, mem, manager)
    for i, stream in enumerate(streams):
        Core(i, stream, engine, mem).start()
    end = engine.run()
    mem.finalize(end)
    if observe:
        telemetry.finish_run(stats, end)
    return end, stats, telemetry


@settings(max_examples=20, deadline=None)
@given(streams=access_streams(),
       scheme=st.sampled_from(["dimm+chip", "fpb", "ideal", "2xlocal"]))
def test_observation_does_not_perturb_results(streams, scheme):
    bare_end, bare_stats, _ = run_once(streams, scheme, observe=False)
    obs_end, obs_stats, telemetry = run_once(streams, scheme, observe=True)

    assert obs_end == bare_end
    assert obs_stats.snapshot() == bare_stats.snapshot()

    # The observer really saw the run it claims not to have changed.
    assert telemetry.registry.get("writes_done").value == \
        obs_stats.writes_done
    assert len(telemetry.trace.events_named("write_round")) + \
        len(telemetry.trace.events_named("write_round (cancelled)")) >= 1


@settings(max_examples=10, deadline=None)
@given(streams=access_streams())
def test_observed_run_is_self_consistent(streams):
    """Trace scope counts agree with the stats of the same run."""
    _, stats, telemetry = run_once(streams, "fpb", observe=True)
    assert len(telemetry.trace.events_named("write_round")) == \
        stats.write_rounds_done
    assert telemetry.registry.get("write_cancellations").value == \
        stats.write_cancellations
    bursts = telemetry.trace.events_named("write_burst")
    assert sum(e["dur"] for e in bursts) == stats.burst_cycles
