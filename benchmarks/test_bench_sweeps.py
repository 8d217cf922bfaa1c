"""Benchmarks for the design-space sweeps: Figures 19-23 and Tables 1-2."""

from .conftest import gmean_row, run_experiment


def test_fig19_line_size(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("fig19", config), rounds=1, iterations=1,
    )
    row = gmean_row(result)
    # FPB helps at every line size; gains grow with line size.
    assert row["256B"] > 1.0
    assert row["256B"] >= row["64B"] - 0.15


def test_fig20_llc(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("fig20", config), rounds=1, iterations=1,
    )
    row = gmean_row(result)
    assert all(row[col] > 0.5 for col in result.columns[1:])


def test_fig21_write_queue(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("fig21", config), rounds=1, iterations=1,
    )
    row = gmean_row(result)
    # Deep queues defer bursts entirely at this scale; FPB must still
    # clearly win at the paper's 24-entry depth and stay sane elsewhere.
    assert row["24"] > 1.0
    assert all(row[col] > 0.5 for col in result.columns[1:])


def test_fig22_tokens(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("fig22", config), rounds=1, iterations=1,
    )
    row = gmean_row(result)
    # FPB does at least as well when the budget is tighter (Figure 22).
    assert row["466"] >= row["598"] - 0.25


def test_fig23_rdopt(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("fig23", config), rounds=1, iterations=1,
    )
    row = gmean_row(result)
    # The combined stack is at worst a small regression on FPB alone
    # at micro scale, and everything beats the baseline.
    assert row["FPB"] > 1.0
    assert row["FPB+WC+WP+WT"] >= row["FPB"] * 0.8


def test_tab1_config(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("tab1", config), rounds=1, iterations=1,
    )
    params = {row["parameter"] for row in result.rows}
    assert {"CPU", "PCM", "RESET", "SET"} <= params


def test_tab2_workloads(benchmark, config):
    result = benchmark.pedantic(
        run_experiment, args=("tab2", config), rounds=1, iterations=1,
    )
    for row in result.rows:
        assert row["pcm_rpki"] >= 0.0
        assert row["cells_per_write"] > 0.0
