"""Differential equivalence of the reference and vectorized kernels.

The vectorized kernel's contract is byte-identity, not closeness: for
every experiment the paper evaluates, both kernels must produce the
same ``SimResult`` fingerprint, and the Figure 5(b) worked example must
reproduce the paper's APT token trace token for token under either.

The experiment sweep covers every registered figN experiment's planned
runs (deduplicated), scaled down from the CLI's quick scale so the
whole differential sweep fits in a test run; CI's smoke job repeats the
fig16 comparison at true quick scale through the CLI.
"""

import numpy as np
import pytest

from repro.config.system import config_fingerprint
from repro.core.policies.base import PowerManager
from repro.core.write_op import WriteOperation
from repro.experiments.base import RunScale
from repro.experiments.registry import available_experiments, get_experiment
from repro.kernel import available_kernels
from repro.pcm.dimm import DIMM
from repro.sim.runner import run_simulation

from ..conftest import make_figure5_config, make_tiny_config, reset_run_state

MICRO = RunScale("micro", 40, 10_000, ("mcf_m", "tig_m"))

#: The paper's Figure 5(b) APT trace: 80 available tokens initially,
#: then the step-downs/reclaims as WR-A and WR-B run their iterations.
FIG5_APT_TRACE = [30, 15, 35, 36, 38, 49, 57, 70, 74, 80]


@pytest.fixture(scope="module", autouse=True)
def fresh_caches():
    # Module-scoped on purpose: the differential sweep reuses sim
    # results across tests.
    reset_run_state()
    yield
    reset_run_state()


def _fig5_write(write_id, dimm, iteration_counts, kernel):
    idx = np.arange(len(iteration_counts)) * 7 % dimm.cells_per_line
    return WriteOperation(
        write_id, 0, 0,
        np.sort(np.unique(idx))[: len(iteration_counts)],
        np.asarray(iteration_counts), dimm.mapping, kernel=kernel,
    )


@pytest.mark.parametrize("kernel", available_kernels())
def test_figure5b_apt_trace_per_kernel(kernel):
    """Both kernels reproduce Figure 5(b)'s APT sequence exactly."""
    config = make_figure5_config().with_kernel(kernel)
    dimm = DIMM(config)
    manager = PowerManager(
        config, dimm, enforce_dimm=True, enforce_chip=False, ipm=True,
    )
    wr_a = _fig5_write(
        1, dimm, [1] * 2 + [2] * 22 + [3] * 14 + [4] * 12, manager.kernel
    )
    wr_b = _fig5_write(
        2, dimm, [1] * 4 + [2] * 16 + [3] * 8 + [4] * 8 + [5] * 4,
        manager.kernel,
    )
    assert wr_a.active.tolist() == [50, 48, 26, 12]
    assert wr_b.active.tolist() == [40, 36, 20, 12, 4]

    pool = manager.dimm_pool
    assert pool.available == 80
    apt = []
    assert manager.try_issue(wr_a, 0)
    apt.append(pool.available)
    assert manager.on_iteration_end(wr_a, 0, 1) == "advance"
    assert manager.try_issue(wr_b, 1)
    apt.append(pool.available)
    # Interleave the remaining iterations exactly as the figure does.
    timeline = [(wr_b, 0), (wr_a, 1), (wr_b, 1), (wr_a, 2), (wr_b, 2),
                (wr_a, 3), (wr_b, 3), (wr_b, 4)]
    for t, (write, i) in enumerate(timeline, start=2):
        outcome = manager.on_iteration_end(write, i, t)
        assert outcome == (
            "done" if i + 1 >= write.total_iterations else "advance"
        )
        apt.append(pool.available)
    assert apt == FIG5_APT_TRACE
    manager.assert_conserved()


def _planned_runs():
    """Unique (config, workload, scheme) triples over all figN
    experiments (experiments sweep configs too, so the config is part
    of the key)."""
    base = make_tiny_config()
    runs = {}
    for exp_id in available_experiments():
        if not exp_id.startswith("fig"):
            continue
        for req in get_experiment(exp_id).plan(base, MICRO):
            key = (config_fingerprint(req.config), req.workload, req.scheme)
            runs.setdefault(key, (req.config, req.workload, req.scheme))
    return list(runs.values())


def test_every_fig_experiment_fingerprint_identical():
    """Every planned run of every figN experiment simulates identically
    under both kernels (SimResult fingerprints are byte-identical)."""
    mismatches = []
    for config, workload, scheme in _planned_runs():
        fps = {}
        for kernel in available_kernels():
            result = run_simulation(
                config.with_kernel(kernel), workload, scheme,
                n_pcm_writes=MICRO.n_pcm_writes,
                max_refs_per_core=MICRO.max_refs_per_core,
            )
            fps[kernel] = result.result_fingerprint()
        if len(set(fps.values())) != 1:
            mismatches.append((workload, scheme, fps))
    assert not mismatches, f"kernel-dependent results: {mismatches}"


def test_kernels_never_share_cache_keys():
    """The kernel choice is part of the config fingerprint, so the
    SimCache can never serve one kernel's result to the other."""
    config = make_tiny_config()
    fingerprints = {
        config_fingerprint(config.with_kernel(kernel))
        for kernel in available_kernels()
    }
    assert len(fingerprints) == len(available_kernels())
