"""Experiment framework plumbing."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import (
    DEFAULT,
    FULL,
    QUICK,
    Experiment,
    ExperimentResult,
    RunRequest,
    RunScale,
    SCALES,
    fetch,
    speedup_rows,
    speedup_runs,
)
from repro.experiments.engine import execute_plan

from ..conftest import make_tiny_config, planned

MICRO = RunScale("micro", 30, 8_000, ("tig_m",))


@pytest.fixture(autouse=True)
def clean_state(isolated_run_state):
    yield


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_ordering(self):
        assert QUICK.n_pcm_writes < DEFAULT.n_pcm_writes < FULL.n_pcm_writes

    def test_quick_is_subset(self):
        assert set(QUICK.workloads) <= set(DEFAULT.workloads)


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            "figx", "title", ["workload", "a"],
            [{"workload": "w1", "a": 1.5}, {"workload": "gmean", "a": 2.0}],
            paper_claim="claim", notes="note",
        )

    def test_to_table_contains_everything(self):
        text = self.make().to_table()
        assert "figx" in text and "claim" in text and "note" in text
        assert "1.500" in text

    def test_column(self):
        assert self.make().column("a") == [1.5, 2.0]

    def test_row_by(self):
        assert self.make().row_by("workload", "gmean")["a"] == 2.0

    def test_row_by_missing(self):
        with pytest.raises(ExperimentError):
            self.make().row_by("workload", "nope")


class TestSimCache:
    def test_memoized(self):
        config = make_tiny_config()
        a = planned(config, "tig_m", "ideal", MICRO)
        b = planned(config, "tig_m", "ideal", MICRO)
        assert a is b

    def test_distinct_schemes_not_shared(self):
        config = make_tiny_config()
        a = planned(config, "tig_m", "ideal", MICRO)
        b = planned(config, "tig_m", "dimm+chip", MICRO)
        assert a is not b

    def test_config_knobs_in_key(self):
        config = make_tiny_config()
        a = planned(config, "tig_m", "fpb", MICRO)
        b = planned(config.with_dimm_tokens(466), "tig_m", "fpb", MICRO)
        assert a is not b

    def test_previously_unkeyed_field_not_shared(self):
        """Regression: the old hand-written key omitted
        ``power.lcp_efficiency`` (among others), so an efficiency sweep
        silently reused the first run's result."""
        from dataclasses import replace

        config = make_tiny_config()
        lowered = replace(
            config, power=replace(config.power, lcp_efficiency=0.80),
        )
        a = planned(config, "tig_m", "fpb", MICRO)
        b = planned(lowered, "tig_m", "fpb", MICRO)
        assert a is not b


class TestCall:
    def test_builds_its_requests_once(self):
        """Calling an experiment executes and renders the same requests:
        its ``runs()`` is built once per call."""
        class Counted(Experiment):
            exp_id = "counted"
            calls = 0

            def runs(self, config, scale):
                Counted.calls += 1
                return {"fpb": RunRequest(config, "tig_m", "fpb", scale)}

            def render(self, config, scale, results):
                return ExperimentResult(self.exp_id, "", ["cpi"],
                                        [{"cpi": results["fpb"].cpi}])

        config = make_tiny_config()
        result = Counted()(config, MICRO)
        assert Counted.calls == 1
        assert result.rows == [
            {"cpi": fetch(RunRequest(config, "tig_m", "fpb", MICRO)).cpi}]


def fetch_all(runs):
    execute_plan(runs.values())
    return {key: fetch(request) for key, request in runs.items()}


class TestSpeedupRows:
    def test_shape_and_gmean(self):
        config = make_tiny_config()
        results = fetch_all(speedup_runs(
            config, MICRO, ["ideal", "dimm+chip"], baseline="dimm+chip"))
        rows = speedup_rows(
            results, MICRO.workloads, ["ideal", "dimm+chip"],
            baseline="dimm+chip",
        )
        assert rows[-1]["workload"] == "gmean"
        assert rows[0]["dimm+chip"] == pytest.approx(1.0)
        assert len(rows) == len(MICRO.workloads) + 1

    def test_throughput_metric(self):
        config = make_tiny_config()
        results = fetch_all(speedup_runs(
            config, MICRO, ["ideal"], baseline="dimm+chip"))
        rows = speedup_rows(
            results, MICRO.workloads, ["ideal"], baseline="dimm+chip",
            metric="throughput",
        )
        assert rows[0]["ideal"] > 0

    def test_unknown_metric(self):
        results = fetch_all(speedup_runs(
            make_tiny_config(), MICRO, ["ideal"], baseline="ideal"))
        with pytest.raises(ExperimentError):
            speedup_rows(
                results, MICRO.workloads, ["ideal"], baseline="ideal",
                metric="vibes",
            )


class TestCLIParser:
    def test_run_args(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(
            ["run", "fig4", "--scale", "quick", "--seed", "7", "--bars"]
        )
        assert args.experiment == ["fig4"]
        assert args.scale == "quick"
        assert args.seed == 7
        assert args.bars

    def test_run_many_experiments(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(
            ["run", "fig11", "fig12", "fig13", "fig14", "--jobs", "4"]
        )
        assert args.experiment == ["fig11", "fig12", "fig13", "fig14"]
        assert args.jobs == 4

    def test_cache_flags(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(
            ["run", "fig16", "--cache-dir", "/tmp/sc", "--no-cache"]
        )
        assert str(args.cache_dir) == "/tmp/sc"
        assert args.no_cache
        assert args.jobs == 1  # serial by default

    def test_jobs_zero_means_cpu_count(self):
        import os
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(["run", "fig16", "--jobs", "0"])
        assert args.jobs == (os.cpu_count() or 1)

    def test_negative_jobs_rejected(self):
        from repro.experiments.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig16", "--jobs", "-2"])

    def test_list_command(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_serve_has_a_per_run_deadline_by_default(self):
        from repro.experiments.cli import build_parser
        from repro.service.schemas import RUN_TIMEOUT_S
        args = build_parser().parse_args(["serve"])
        assert args.timeout == RUN_TIMEOUT_S

    def test_serve_rejects_the_retired_replicas_flag(self):
        from repro.experiments.cli import build_parser
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--replicas", "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "fig16", "--checkpoint-every", "50"],
        ["serve", "--checkpoint-every", "50"],
        ["checkpoints", "list"],
    ])
    def test_the_retired_checkpoint_surface_is_rejected(self, argv):
        from repro.experiments.cli import build_parser
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_explore_rejects_the_retired_resume_flag(self):
        """An interrupted exploration continues by rerunning the same
        command; there is no ``--resume``."""
        from repro.experiments.cli import build_parser
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["explore", "--resume"])
        assert exit_info.value.code == 2


class TestCSVExport:
    def test_to_csv(self):
        result = ExperimentResult(
            "figx", "t", ["workload", "a"],
            [{"workload": "w1", "a": 1.5}],
        )
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0] == "workload,a"
        assert "w1,1.5" in csv_text

    def test_to_csv_ignores_extras(self):
        result = ExperimentResult(
            "figx", "t", ["workload"],
            [{"workload": "w1", "hidden": 9}],
        )
        assert "hidden" not in result.to_csv()
