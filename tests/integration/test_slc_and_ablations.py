"""SLC-mode simulation and the ablation experiments."""

from dataclasses import replace

from repro.config.presets import slc_config
from repro.experiments.base import RunScale
from repro.experiments.registry import get_experiment
from repro.sim.runner import run_simulation
from repro.trace.generator import generate_trace

from ..conftest import make_tiny_config

MICRO = RunScale("micro", 40, 10_000, ("mcf_m", "lbm_m"))


def tiny_slc_config():
    base = make_tiny_config()
    slc = slc_config()
    return replace(base, pcm=slc.pcm)


class TestSLCMode:
    def test_slc_trace_generates(self):
        trace = generate_trace(
            tiny_slc_config(), "mcf_m",
            n_pcm_writes=30, max_refs_per_core=8_000,
        )
        assert trace.stats.writes > 0
        # SLC cells are one per bit: 2048 per 256B line.
        for stream in trace.per_core:
            for acc in stream:
                if acc.kind == "W" and acc.changed_idx.size:
                    assert acc.changed_idx.max() < 2048
                    # Every SLC write finishes in one iteration.
                    assert acc.iter_counts.max() == 1

    def test_slc_simulation_runs(self):
        result = run_simulation(
            tiny_slc_config(), "mcf_m", "dimm+chip",
            n_pcm_writes=30, max_refs_per_core=8_000,
        )
        assert result.stats.writes_done > 0

    def test_slc_writes_are_fast(self):
        """Single-iteration SLC writes are much shorter than MLC's
        multi-iteration ones (the paper's 'x8 long write latency')."""
        slc = run_simulation(
            tiny_slc_config(), "mcf_m", "ideal",
            n_pcm_writes=30, max_refs_per_core=8_000,
        )
        mlc = run_simulation(
            make_tiny_config(), "mcf_m", "ideal",
            n_pcm_writes=30, max_refs_per_core=8_000,
        )
        assert slc.stats.mean_write_latency < mlc.stats.mean_write_latency


class TestAblations:
    def test_abl_mr_runs(self):
        result = get_experiment("abl_mr")(make_tiny_config(), MICRO)
        row = result.row_by("workload", "gmean")
        assert all(
            float(row[s]) > 0 for s in ("ipm", "fpb", "fpb-mrchanged")
        )

    def test_abl_preread_overhead_sign(self):
        result = get_experiment("abl_preread")(make_tiny_config(), MICRO)
        mean_row = result.row_by("workload", "mean")
        # A free pre-read can only help (or tie).
        assert float(mean_row["overhead_%"]) >= -8.0

    def test_abl_fnw_confirms_limited_mlc_benefit(self):
        result = get_experiment("abl_fnw")(make_tiny_config(), MICRO)
        for row in result.rows:
            assert 0.0 <= float(row["mlc_saving_%"]) < 30.0

    def test_mrchanged_scheme_registered(self):
        from repro.core import get_scheme
        scheme = get_scheme("fpb-mrchanged")
        assert scheme.mr_grouping == "changed"


class TestPreSETAblation:
    def test_preset_speeds_up_unbudgeted_writes(self):
        """Single-RESET foreground writes are far faster than iterative
        MLC writes when power is unlimited."""
        result = get_experiment("abl_preset")(make_tiny_config(), MICRO)
        row = result.row_by("workload", "gmean")
        assert float(row["ideal+preset"]) > float(row["ideal"])

    def test_preset_token_demand_widens_budget_gap(self):
        """Section 7's claim, quantified: under power budgets PreSET
        keeps less of its unbudgeted gain than normal writes keep of
        theirs (the RESET-everything demand eats tokens)."""
        result = get_experiment("abl_preset")(make_tiny_config(), MICRO)
        row = result.row_by("workload", "gmean")
        plain_ratio = float(row["fpb"]) / float(row["ideal"])
        preset_ratio = float(row["fpb+preset"]) / float(row["ideal+preset"])
        assert preset_ratio < plain_ratio + 0.05

    def test_preset_flag_changes_write_shape(self):
        """With preset enabled, writes are single-iteration and heavy."""
        from dataclasses import replace
        config = make_tiny_config()
        preset = replace(config, scheduler=replace(
            config.scheduler, preset_writes=True))
        base = run_simulation(config, "mcf_m", "ideal",
                              n_pcm_writes=30, max_refs_per_core=8_000)
        fast = run_simulation(preset, "mcf_m", "ideal",
                              n_pcm_writes=30, max_refs_per_core=8_000)
        assert fast.stats.mean_write_latency < base.stats.mean_write_latency
        assert fast.stats.cells_written > base.stats.cells_written
