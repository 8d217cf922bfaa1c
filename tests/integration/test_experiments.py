"""Experiment harness integration: every experiment runs at a micro
scale on the tiny system and produces well-formed results."""

import pytest

from repro.experiments.base import RunScale, clear_sim_cache
from repro.experiments.engine import execute_plan
from repro.experiments.registry import available_experiments, get_experiment

from ..conftest import make_tiny_config, reset_run_state

MICRO = RunScale("micro", 40, 10_000, ("mcf_m", "tig_m"))


@pytest.fixture(scope="module", autouse=True)
def fresh_caches():
    # Module-scoped on purpose: the micro-scale sim results are shared
    # across this module's tests. reset_run_state() covers the whole
    # process-wide surface (faults, failed runs, installations, trace
    # memo), not just the sim cache.
    reset_run_state()
    yield
    reset_run_state()


class TestRegistry:
    def test_all_ids_present(self):
        ids = available_experiments()
        expected = {
            "fig2", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
            "fig22", "fig23", "tab1", "tab2", "tab3",
        }
        assert expected <= set(ids)

    def test_unknown_id(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            get_experiment("fig99")


@pytest.mark.parametrize("exp_id", [
    "fig2", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig16", "fig17", "fig18", "fig23", "tab1", "tab2", "tab3",
])
def test_experiment_runs_and_renders(exp_id):
    experiment = get_experiment(exp_id)
    result = experiment(make_tiny_config(), MICRO)
    assert result.exp_id == exp_id
    assert result.rows, exp_id
    assert result.columns
    text = result.to_table()
    assert exp_id in text
    # Every row provides every column's key or renders blank cleanly.
    for row in result.rows:
        assert isinstance(row, dict)


@pytest.mark.parametrize("exp_id", available_experiments())
def test_render_reads_only_planned_runs(exp_id):
    """Once its plan is executed, the experiment renders from the
    caches: ``run()`` raises on any read of a run its plan did not
    name."""
    experiment = get_experiment(exp_id)
    config = make_tiny_config()
    clear_sim_cache()
    execute_plan(experiment.plan(config, MICRO))
    result = experiment.run(config, MICRO)
    assert result.rows


def test_speedup_figures_have_gmean_row():
    result = get_experiment("fig4")(make_tiny_config(), MICRO)
    labels = [row["workload"] for row in result.rows]
    assert "gmean" in labels


def test_fig15_sweep_runs():
    scale = RunScale("micro", 40, 10_000, ("mcf_m",))
    result = get_experiment("fig15")(make_tiny_config(), scale)
    assert len(result.rows) == 7  # efficiencies 0.7 .. 0.1


def test_fig19_line_sizes():
    scale = RunScale("micro", 30, 8_000, ("mcf_m",))
    result = get_experiment("fig19")(make_tiny_config(), scale)
    assert result.columns[1:] == ["64B", "128B", "256B"]


def test_tab3_area_rows():
    result = get_experiment("tab3")(make_tiny_config(), MICRO)
    schemes = [row["scheme"] for row in result.rows]
    assert any("2xLocal" in s for s in schemes)
    two_x = result.row_by("scheme", schemes[1])
    assert two_x["overhead_%"] == 100.0


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out

    def test_run_writes_report(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import cli
        # Patch the scales so the CLI runs at micro size.
        monkeypatch.setitem(cli.SCALES, "quick", MICRO)
        monkeypatch.setattr(
            cli, "baseline_config", lambda seed=1: make_tiny_config(seed)
        )
        assert main_run(cli, tmp_path) == 0
        assert (tmp_path / "tab1.txt").exists()


def main_run(cli, tmp_path):
    return cli.main(["run", "tab1", "--scale", "quick",
                     "--out", str(tmp_path)])


@pytest.mark.parametrize("exp_id", ["fig3", "fig5", "fig6", "fig8"])
def test_worked_example_experiments(exp_id):
    """Figures 3/5/6/8 are mechanism illustrations; their experiments
    drive the real power manager through the paper's scenarios."""
    result = get_experiment(exp_id)(make_tiny_config(), MICRO)
    assert result.rows
    text = result.to_table()
    assert exp_id in text


def test_fig5_apt_trace_matches_paper():
    result = get_experiment("fig5")(make_tiny_config(), MICRO)
    apt = [float(row["APT"]) for row in result.rows]
    assert apt == [80, 30, 15, 35, 36, 38, 49, 57, 70, 74, 80]


def test_cli_csv_output(tmp_path, monkeypatch):
    from repro.experiments import cli
    monkeypatch.setitem(cli.SCALES, "quick", MICRO)
    monkeypatch.setattr(
        cli, "baseline_config", lambda seed=1: make_tiny_config(seed)
    )
    assert cli.main(["run", "tab1", "--scale", "quick",
                     "--out", str(tmp_path), "--csv"]) == 0
    assert (tmp_path / "tab1.csv").exists()
    header = (tmp_path / "tab1.csv").read_text().splitlines()[0]
    assert header == "parameter,value"


def test_fig6_multireset_rows():
    result = get_experiment("fig6")(make_tiny_config(), MICRO)
    plain = result.row_by("scheme", "IPM")
    with_mr = result.row_by("scheme", "IPM+MR(2)")
    assert plain["WR-B issues at t=0"] is False
    assert with_mr["WR-B issues at t=0"] is True
    assert float(with_mr["peak group tokens"]) == 30.0
    assert float(plain["peak group tokens"]) == 60.0


def test_fig8_gcp_rows():
    result = get_experiment("fig8")(make_tiny_config(), MICRO)
    wr_b = result.row_by("write", "WR-B")
    wr_c = result.row_by("write", "WR-C")
    assert wr_b["issues"] is True
    assert "chip1:GCP" in wr_b["segment sources"]
    assert wr_c["issues"] is False


def test_fig3_chip_blocking_rows():
    result = get_experiment("fig3")(make_tiny_config(), MICRO)
    assert result.rows[0]["issues"] is True
    assert result.rows[1]["issues"] is False
