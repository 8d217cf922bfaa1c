"""Figure 10: fraction of execution cycles spent in write bursts.

The paper's motivating measurement: under the baseline DIMM+chip power
budgeting, write bursts — stretches where the write queue has filled
and the memory system is draining it — cover about half of execution
(52.2% average in the paper). A write burst opens when the WRQ reaches
its capacity and closes only when the queue and all in-flight writes
have drained.

This is a worked-example test at micro scale on the tiny test config:
small enough for tier-1, large enough that the baseline actually
saturates its write queue. It checks the mechanism end to end — the
burst accounting itself, the ordering the paper's argument rests on
(budget-constrained baseline bursts; the unconstrained ideal does
not), the Fig. 10 experiment rows against direct simulation, and the
telemetry counter against the simulator's own statistics.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import RunScale
from repro.experiments.registry import get_experiment
from repro.obs.telemetry import Telemetry
from repro.sim.runner import run_simulation

from ..conftest import make_tiny_config, planned

#: Micro scale: enough PCM writes to fill the WRQ and open a burst.
MICRO = RunScale("micro", 40, 10_000, ("mcf_m",))


@pytest.fixture(scope="module")
def baseline_result():
    return planned(make_tiny_config(), "mcf_m", "dimm+chip", MICRO)


def test_burst_accounting_is_coherent(baseline_result):
    stats = baseline_result.stats
    assert stats.burst_entries >= 1
    assert 0 < stats.burst_cycles <= baseline_result.cycles
    assert stats.burst_fraction == pytest.approx(
        stats.burst_cycles / baseline_result.cycles)
    assert 0.0 < stats.burst_fraction <= 1.0


def test_baseline_bursts_ideal_does_not(baseline_result):
    """The paper's motivation: the power-budget-constrained baseline
    spends a large share of execution in write bursts; with unlimited
    power (ideal) the same workload at the same scale never saturates
    the write queue."""
    ideal = planned(make_tiny_config(), "mcf_m", "ideal", MICRO)
    assert baseline_result.stats.burst_fraction \
        > ideal.stats.burst_fraction
    # ~52% of cycles in burst, the paper's Figure 10 ballpark.
    assert 0.25 < baseline_result.stats.burst_fraction < 0.85


def test_fig10_rows_match_direct_simulation(baseline_result):
    """The Fig. 10 experiment reports exactly what direct simulation
    measures, plus a correct mean row."""
    experiment = get_experiment("fig10")
    result = experiment(make_tiny_config(), MICRO)
    assert result.columns == ["workload", "burst_fraction",
                              "burst_entries"]
    rows = {row["workload"]: row for row in result.rows}
    assert set(rows) == {"mcf_m", "mean"}
    assert rows["mcf_m"]["burst_fraction"] == pytest.approx(
        baseline_result.stats.burst_fraction)
    assert rows["mcf_m"]["burst_entries"] \
        == baseline_result.stats.burst_entries
    assert rows["mean"]["burst_fraction"] == pytest.approx(
        baseline_result.stats.burst_fraction)  # single-workload mean


def test_telemetry_burst_counter_matches_stats(baseline_result):
    """The observability plane and the simulator must agree on how
    many bursts happened (and observing must not change the result)."""
    telemetry = Telemetry()
    observed = run_simulation(
        make_tiny_config(), "mcf_m", "dimm+chip",
        n_pcm_writes=MICRO.n_pcm_writes,
        max_refs_per_core=MICRO.max_refs_per_core,
        telemetry=telemetry)
    counter = telemetry.registry.get("burst_entries")
    assert counter is not None
    assert counter.snapshot() == float(observed.stats.burst_entries)
    assert observed.stats.burst_entries \
        == baseline_result.stats.burst_entries
    assert observed.result_fingerprint() \
        == baseline_result.result_fingerprint()
