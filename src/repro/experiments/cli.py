"""Command-line entry point: ``python -m repro.experiments``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig16 --scale quick
    python -m repro.experiments run all --scale default --out results/
    python -m repro.experiments run fig11 fig12 fig13 fig14 --jobs 4
    python -m repro.experiments run fig16 --scale quick \\
        --trace run.json --metrics-out run.jsonl

Simulation runs are cached on disk under ``.simcache/`` (override with
``--cache-dir``, disable with ``--no-cache``) and computed on ``--jobs``
worker processes (default 1); results are bit-identical at every
``--jobs``.

Every run is *supervised* (docs/robustness.md), at every ``--jobs``:
failures are classified and retried (``--retries``), hung workers are
killed after ``--timeout`` seconds, a crashed worker is replaced, and
``--keep-going`` renders the unaffected experiments when some runs
failed permanently. The exit code is honest: 0 only when everything
ran (and, under ``--check``, matched the paper's claimed shapes);
nonzero on failed or quarantined runs; 130 on Ctrl-C — after writing
any requested manifest, so partial sweeps stay accounted for.

All harness output goes through :mod:`repro.obs.logging` (the ``repro``
logger namespace): ``-q`` silences reports, ``-v`` adds per-run
diagnostics, and library users embedding the harness can filter or
redirect it with standard :mod:`logging` configuration.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from typing import List, Optional, Tuple

from ..config.presets import baseline_config
from ..config.system import DEFAULT_KERNEL, SystemConfig
from ..errors import RunFailedError
from ..kernel import available_kernels
from ..obs.logging import get_logger, setup_logging
from ..service.schemas import RUN_TIMEOUT_S
from ..sim.simcache import DEFAULT_CACHE_DIR, SimCache
from .base import (
    DEFAULT,
    QUICK,
    SCALES,
    RunScale,
    use_disk_cache,
    use_telemetry,
)
from .engine import execute_plan
from .registry import available_experiments, get_experiment, plan_runs
from .resilience import RetryPolicy

log = get_logger("experiments")

#: Exit codes: 0 success, 1 failed runs / shape discrepancies under
#: ``--check``, 130 interrupted (the conventional 128+SIGINT).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INTERRUPTED = 130


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive cycle count, got {value}"
        )
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one per CPU), got {value}"
        )
    return value if value else (os.cpu_count() or 1)


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {value}"
        )
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # Verbosity flags ride a parent parser so they work both before and
    # after the subcommand (`-q run ...` and `run ... -q`).
    # SUPPRESS (not 0) so the subcommand's parse doesn't clobber counts
    # taken before it; read back with getattr(args, ..., 0).
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="increase harness verbosity (per-run diagnostics)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="count", default=argparse.SUPPRESS,
        help="silence reports (warnings and errors still shown)",
    )
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the FPB (MICRO 2012) evaluation tables/figures.",
        parents=[verbosity],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments",
                   parents=[verbosity])
    run = sub.add_parser("run", help="run one experiment (or 'all')",
                         parents=[verbosity])
    run.add_argument(
        "experiment", nargs="+",
        help="experiment id(s) (fig2..fig23, tab1..tab3, all)",
    )
    run.add_argument(
        "--scale", choices=sorted(SCALES), default=DEFAULT.name,
        help="simulation size (quick/default/full)",
    )
    run.add_argument("--seed", type=int, default=1, help="root RNG seed")
    run.add_argument(
        "--kernel", choices=available_kernels(), default=None,
        help="simulation kernel (reference/vectorized; results are "
             f"identical, only speed differs; default: {DEFAULT_KERNEL})",
    )
    run.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="worker processes for the planned simulation runs "
             "(default 1; 0 = one per CPU)",
    )
    run.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(DEFAULT_CACHE_DIR),
        metavar="DIR",
        help="on-disk run cache directory (default .simcache/)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk run cache (in-memory caching remains)",
    )
    run.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to also write <exp_id>.txt reports into",
    )
    run.add_argument(
        "--bars", action="store_true",
        help="append an ASCII bar chart of the gmean row",
    )
    run.add_argument(
        "--csv", action="store_true",
        help="with --out, also write <exp_id>.csv files",
    )
    run.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="PATH",
        help="write a Perfetto trace_event JSON of all simulation runs",
    )
    run.add_argument(
        "--metrics-out", type=pathlib.Path, default=None, metavar="PATH",
        help="write a JSON-lines run manifest (config, seed, metrics)",
    )
    run.add_argument(
        "--metrics-text", type=pathlib.Path, default=None, metavar="PATH",
        help="write the final metrics registry in Prometheus text "
             "exposition format 0.0.4",
    )
    run.add_argument(
        "--sample-interval", type=_positive_int, default=5_000,
        metavar="CYCLES",
        help="telemetry sampling interval in cycles (default 5000)",
    )
    run.add_argument(
        "--keep-going", action="store_true",
        help="render the remaining experiments when a planned run "
             "failed, marking the affected ones (exit stays nonzero)",
    )
    run.add_argument(
        "--check", action="store_true",
        help="exit nonzero if any experiment's shape check reports "
             "discrepancies against the paper's claims",
    )
    run.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget on worker processes, counted "
             "from when a worker starts the run; a run exceeding it is "
             "abandoned and retried (default: none)",
    )
    run.add_argument(
        "--retries", type=_non_negative_int, default=2, metavar="N",
        help="retries per transiently-failing run (default 2; "
             "deterministic failures get at most one confirmation "
             "retry before quarantine)",
    )

    explore = sub.add_parser(
        "explore",
        help="search the design space and report the Pareto frontier",
        parents=[verbosity],
    )
    explore.add_argument(
        "--space", default="demo3", metavar="NAME|FILE",
        help="search space: a built-in name (see docs/exploration.md) "
             "or a path to a JSON space definition (default demo3: "
             "budget x GCP efficiency x Multi-RESET, 60 grid points)",
    )
    explore.add_argument(
        "--strategy", choices=("grid", "random", "adaptive"),
        default="grid",
        help="point-selection strategy; all are deterministic given "
             "(space, strategy, seed) (default grid)",
    )
    explore.add_argument(
        "--budget-points", type=_positive_int, default=60, metavar="N",
        help="total points to evaluate (default 60)",
    )
    explore.add_argument("--seed", type=int, default=1,
                         help="strategy sampling seed (default 1)")
    explore.add_argument(
        "--workload", default="mix_1",
        help="workload trace each point simulates (default mix_1)",
    )
    explore.add_argument(
        "--scheme", default="fpb",
        help="base power-budgeting scheme; scheme axes (gcp_efficiency/"
             "mr_splits/mapping) recompose it per point (default fpb)",
    )
    explore.add_argument(
        "--scale", choices=sorted(SCALES), default=QUICK.name,
        help="simulation size per point (default quick)",
    )
    explore.add_argument(
        "--kernel", choices=available_kernels(), default=None,
        help="simulation kernel (results are identical, only speed "
             f"differs; default: {DEFAULT_KERNEL})",
    )
    explore.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="worker processes, kept for every generation (default 1; "
             "0 = one per CPU)",
    )
    explore.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("results/explore"),
        metavar="DIR",
        help="report directory: <space>-<strategy>-<seed>.json (full), "
             ".frontier.json + .md (deterministic frontier) "
             "(default results/explore/)",
    )
    explore.add_argument(
        "--cache-dir", type=pathlib.Path,
        default=pathlib.Path(DEFAULT_CACHE_DIR), metavar="DIR",
        help="on-disk run cache directory; rerunning an interrupted "
             "exploration reads the points it already evaluated from "
             "here (default .simcache/)",
    )
    explore.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk run cache (a rerun then recomputes "
             "every point)",
    )
    explore.add_argument(
        "--metrics-out", type=pathlib.Path, default=None, metavar="PATH",
        help="write a JSON-lines manifest with explore_point/"
             "explore_frontier records (schema v9)",
    )
    explore.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget on worker processes, counted "
             "from when a worker starts the run",
    )
    explore.add_argument(
        "--retries", type=_non_negative_int, default=2, metavar="N",
        help="retries per transiently-failing run (default 2)",
    )

    golden = sub.add_parser(
        "golden",
        help="regenerate the golden-fingerprint corpus (refused if a "
             "shape check fails) or verify it",
        parents=[verbosity],
    )
    golden.add_argument(
        "--path", type=pathlib.Path, default=None, metavar="FILE",
        help="corpus location (default tests/paper/golden_fingerprints"
             ".json)",
    )
    golden.add_argument(
        "--check", action="store_true",
        help="verify the committed corpus instead of regenerating it "
             "(exit 1 on any drift)",
    )
    golden.add_argument(
        "--sample", type=_positive_int, default=None, metavar="N",
        help="with --check, verify only a deterministic N-entry sample",
    )
    golden.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="worker processes for the corpus simulations "
             "(default 1; 0 = one per CPU)",
    )
    golden.add_argument(
        "--cache-dir", type=pathlib.Path,
        default=pathlib.Path(DEFAULT_CACHE_DIR), metavar="DIR",
        help="on-disk run cache directory (default .simcache/)",
    )
    golden.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk run cache",
    )

    serve = sub.add_parser(
        "serve",
        help="run the simulation gateway daemon (HTTP+JSON API)",
        parents=[verbosity],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=_non_negative_int, default=8023,
        help="TCP port (default 8023; 0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="engine worker processes serving cold requests "
             "(default 1; 0 = one per CPU)",
    )
    serve.add_argument(
        "--queue-limit", type=_positive_int, default=64, metavar="N",
        help="admission-queue bound; beyond it cold requests get "
             "429 + Retry-After (default 64)",
    )
    serve.add_argument(
        "--batch-max", type=_positive_int, default=16, metavar="N",
        help="max admitted requests dispatched to the engine as one "
             "plan (default 16)",
    )
    serve.add_argument(
        "--memory-cache-limit", type=_positive_int, default=4096,
        metavar="N",
        help="in-memory result-cache bound; oldest entries are evicted "
             "past it (default 4096; the disk cache keeps everything)",
    )
    serve.add_argument(
        "--cache-dir", type=pathlib.Path,
        default=pathlib.Path(DEFAULT_CACHE_DIR), metavar="DIR",
        help="on-disk run cache directory (default .simcache/)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk run cache",
    )
    serve.add_argument(
        "--metrics-out", type=pathlib.Path, default=None, metavar="PATH",
        help="write a JSON-lines manifest (per-request service records) "
             "on drain",
    )
    serve.add_argument(
        "--timeout", type=_positive_float, default=RUN_TIMEOUT_S,
        metavar="SECONDS",
        help="per-run wall-clock budget on engine workers, counted "
             "from when a worker starts the run; past it the worker is "
             "killed and the run retried (default %(default)g, about "
             "8x the longest run the API admits)",
    )
    serve.add_argument(
        "--retries", type=_non_negative_int, default=2, metavar="N",
        help="retries per transiently-failing run (default 2)",
    )
    serve.add_argument(
        "--drain-timeout", type=_positive_float, default=30.0,
        metavar="SECONDS",
        help="max seconds to finish in-flight work on SIGTERM/SIGINT "
             "before forcing shutdown (default 30)",
    )
    return parser


def _run_one(exp_id: str, scale: RunScale, config: SystemConfig,
             out_dir: Optional[pathlib.Path], bars: bool = False,
             csv: bool = False) -> Tuple[str, int]:
    """Render one experiment from its planned runs; returns its report
    text and the number of shape-check discrepancies (for ``--check``)."""
    from ..analysis.report import render_bars
    from .checks import check_result

    experiment = get_experiment(exp_id)
    log.debug("rendering %s at scale %s (seed %d, kernel %s)",
              exp_id, scale.name, config.seed, config.kernel)
    result = experiment.run(config, scale)
    text = result.to_table()
    if bars:
        try:
            gmean_row = dict(result.row_by("workload", "gmean"))
            gmean_row.pop("workload", None)
            numeric = {
                k: float(v) for k, v in gmean_row.items()
                if isinstance(v, (int, float))
            }
            if numeric:
                text += "\n\n" + render_bars(
                    numeric, title="gmean", reference=1.0,
                )
        except Exception:
            pass  # experiments without a gmean row just skip the chart
    issues = check_result(result)
    if issues:
        text += "\n\nSHAPE CHECK: " + "; ".join(issues)
    else:
        from .checks import has_check
        if has_check(exp_id):
            text += "\n\nshape check: all paper claims hold"
    text += f"\n({result.elapsed_seconds:.1f}s)\n"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{exp_id}.txt").write_text(text)
        if csv:
            (out_dir / f"{exp_id}.csv").write_text(result.to_csv())
    return text, len(issues)


def _explore_main(args) -> int:
    """``explore``: search the design space, report the frontier."""
    import json

    from ..explore import (
        ExploreError,
        ExploreSession,
        ExploreSettings,
        frontier_markdown,
        frontier_report,
        named_spaces,
        space_from_dict,
    )

    try:
        spaces = named_spaces()
        if args.space in spaces:
            space = spaces[args.space]
        elif pathlib.Path(args.space).is_file():
            space = space_from_dict(
                json.loads(pathlib.Path(args.space).read_text()))
        else:
            log.error("unknown space %r: not a built-in (%s) and not a "
                      "JSON file", args.space, ", ".join(sorted(spaces)))
            return EXIT_FAILURE
    except (ExploreError, json.JSONDecodeError, OSError) as exc:
        log.error("bad space definition %r: %s", args.space, exc)
        return EXIT_FAILURE

    telemetry = None
    if args.metrics_out is not None:
        from ..obs import Telemetry
        telemetry = Telemetry()
        use_telemetry(telemetry)
    cache = None
    if not args.no_cache:
        cache = SimCache(args.cache_dir)
        use_disk_cache(cache)

    policy = RetryPolicy(max_attempts=args.retries + 1,
                         run_timeout_s=args.timeout)
    base_config = baseline_config(seed=1)
    if args.kernel is not None and args.kernel != base_config.kernel:
        base_config = base_config.with_kernel(args.kernel)

    exit_code = EXIT_OK
    wall_start = time.monotonic()
    try:
        settings = ExploreSettings(
            space=space,
            strategy=args.strategy,
            budget_points=args.budget_points,
            seed=args.seed,
            workload=args.workload,
            scheme=args.scheme,
            scale=SCALES[args.scale],
            jobs=args.jobs,
        )
        session = ExploreSession(
            settings, base_config, policy=policy, telemetry=telemetry,
            registry=telemetry.registry if telemetry else None,
        )
        log.info("explore: space %s (%s), strategy %s, budget %d, "
                 "seed %d — session %s",
                 space.name, space.fingerprint()[:12], args.strategy,
                 args.budget_points, args.seed, session.session_id[:12])
        report = session.run()
    except ExploreError as exc:
        log.error("explore failed: %s", exc)
        return EXIT_FAILURE
    except KeyboardInterrupt:
        log.error("interrupted — rerun the same command to continue: "
                  "points already computed are read from the run cache")
        return EXIT_INTERRUPTED
    finally:
        use_telemetry(None)
        use_disk_cache(None)
        if telemetry is not None and args.metrics_out is not None:
            telemetry.write_manifest(
                args.metrics_out,
                base_config,
                seed=args.seed,
                scale=args.scale,
                explore_space=space.name,
                explore_strategy=args.strategy,
                wall_time_s=time.monotonic() - wall_start,
                cache=cache.snapshot() if cache is not None else None,
            )
            log.info("wrote run manifest: %s", args.metrics_out)

    counts = report["counts"]
    log.info("explore: %d point(s) — %d computed, %d cached, "
             "%d failed; frontier size %d",
             counts["evaluated"], counts["computed"], counts["cached"],
             counts["failed"], len(report["frontier"]))

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{space.name}-{args.strategy}-{args.seed}"
    frontier = frontier_report(report)
    (args.out / f"{stem}.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    (args.out / f"{stem}.frontier.json").write_text(
        json.dumps(frontier, sort_keys=True, indent=2) + "\n")
    (args.out / f"{stem}.md").write_text(frontier_markdown(frontier))
    log.info("wrote %s{.json,.frontier.json,.md}", args.out / stem)

    if counts["failed"]:
        log.error("explore: %d point(s) failed permanently",
                  counts["failed"])
        return EXIT_FAILURE
    return exit_code


def _golden_main(args) -> int:
    """``golden``: regenerate or verify the conformance corpus."""
    from . import golden

    cache = None
    if not args.no_cache:
        cache = SimCache(args.cache_dir)
        use_disk_cache(cache)
    try:
        if args.check:
            document = golden.load_corpus(args.path)
            drifts = golden.verify_corpus(
                document, sample=args.sample, jobs=args.jobs,
                progress=lambda line: log.debug("%s", line))
            if drifts:
                for drift in drifts:
                    log.error("%s", drift)
                log.error("golden conformance FAILED (%d drift(s)). %s",
                          len(drifts), golden.REGENERATE_HINT)
                return EXIT_FAILURE
            checked = args.sample or len(document["runs"])
            log.info("golden conformance ok (%d of %d entries, "
                     "kernels: %s)", checked, len(document["runs"]),
                     ", ".join(document["kernels"]))
            return EXIT_OK
        document = golden.build_corpus(
            jobs=args.jobs, progress=lambda line: log.info("%s", line))
        discrepancies = golden.claim_discrepancies(document)
        if discrepancies:
            for discrepancy in discrepancies:
                log.error("%s", discrepancy)
            log.error("golden regeneration refused: %d paper claim(s) "
                      "broken by the new results; the corpus was not "
                      "written", len(discrepancies))
            return EXIT_FAILURE
        path = golden.write_corpus(document, args.path)
        log.info("wrote %s (%d runs, kernels: %s, schema v%d)", path,
                 document["n_runs"], ", ".join(document["kernels"]),
                 document["sim_schema_version"])
        return EXIT_OK
    except (golden.GoldenMismatch, RunFailedError) as exc:
        log.error("%s", exc)
        return EXIT_FAILURE
    finally:
        use_disk_cache(None)


def _serve_main(args) -> int:
    """``serve``: run the gateway daemon until SIGTERM/SIGINT."""
    import asyncio

    from ..service.app import Gateway

    cache = None
    if not args.no_cache:
        cache = SimCache(args.cache_dir)
        use_disk_cache(cache)
    telemetry = None
    if args.metrics_out is not None:
        from ..obs import Telemetry
        telemetry = Telemetry()
        use_telemetry(telemetry)
    gateway = Gateway(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
        memory_cache_limit=args.memory_cache_limit,
        policy=RetryPolicy(max_attempts=args.retries + 1,
                           run_timeout_s=args.timeout),
        drain_timeout_s=args.drain_timeout,
        telemetry=telemetry,
        manifest_path=args.metrics_out,
        cache=cache,
    )
    try:
        asyncio.run(gateway.serve(install_signals=True))
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    finally:
        use_telemetry(None)
        use_disk_cache(None)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(getattr(args, "verbose", 0) - getattr(args, "quiet", 0))
    if args.command == "list":
        for exp_id in available_experiments():
            exp = get_experiment(exp_id)
            log.info("%-6s %s", exp_id, exp.title)
        return 0
    if args.command == "explore":
        return _explore_main(args)
    if args.command == "golden":
        return _golden_main(args)
    if args.command == "serve":
        return _serve_main(args)

    scale = SCALES[args.scale]
    requested = [exp_id.lower() for exp_id in args.experiment]
    if "all" in requested:
        targets = list(available_experiments())
    else:
        # De-duplicate while preserving the order given on the CLI.
        targets = list(dict.fromkeys(requested))

    telemetry = None
    if (args.trace is not None or args.metrics_out is not None
            or args.metrics_text is not None):
        from ..obs import Telemetry
        telemetry = Telemetry(sample_interval=args.sample_interval)
        use_telemetry(telemetry)

    cache = None
    if not args.no_cache:
        cache = SimCache(args.cache_dir)
        use_disk_cache(cache)

    policy = RetryPolicy(max_attempts=args.retries + 1,
                         run_timeout_s=args.timeout)
    base_config = baseline_config(seed=args.seed)
    if args.kernel is not None and args.kernel != base_config.kernel:
        base_config = base_config.with_kernel(args.kernel)

    exit_code = EXIT_OK
    summary = None
    # Monotonic for the interval (NTP steps must not skew the manifest's
    # wall_time_s); record timestamps elsewhere use time.time().
    wall_start = time.monotonic()
    try:
        try:
            summary = execute_plan(plan_runs(targets, base_config, scale),
                                   jobs=args.jobs, policy=policy)
            log.info(
                "plan: %d runs (%d unique) — %d in memory, %d from "
                "cache, %d computed on %d worker(s)\n",
                summary["planned"], summary["unique"],
                summary["memory"], summary["disk"],
                summary["computed"], args.jobs,
            )
            if summary["failed"] or summary["quarantined"]:
                exit_code = EXIT_FAILURE
                log.error(
                    "plan: %d run(s) failed, %d quarantined "
                    "(%d retried, %d pool respawn(s), %d timeout(s))",
                    summary["failed"], summary["quarantined"],
                    summary["retried"], summary["pool_respawns"],
                    summary["timeouts"],
                )
            for exp_id in targets:
                if telemetry is not None:
                    telemetry.current_experiment = exp_id
                try:
                    text, issues = _run_one(exp_id, scale, base_config,
                                            args.out, bars=args.bars,
                                            csv=args.csv)
                except RunFailedError as exc:
                    exit_code = EXIT_FAILURE
                    failed_text = f"{exp_id}: FAILED — {exc}\n"
                    if args.out is not None:
                        args.out.mkdir(parents=True, exist_ok=True)
                        (args.out / f"{exp_id}.txt").write_text(failed_text)
                    if args.keep_going:
                        log.error("%s(continuing: --keep-going)\n",
                                  failed_text)
                        continue
                    log.error("%s(pass --keep-going to render the "
                              "remaining experiments)", failed_text)
                    break
                if issues and args.check:
                    exit_code = EXIT_FAILURE
                log.info("%s\n", text)
        except KeyboardInterrupt:
            # Graceful SIGINT: no traceback; completed results are
            # already cached, and the manifest below still gets written.
            exit_code = EXIT_INTERRUPTED
            log.error("interrupted — shutting down (completed runs kept; "
                      "manifest will be written if requested)")
    finally:
        if telemetry is not None:
            telemetry.current_experiment = None
        use_telemetry(None)
        use_disk_cache(None)
        if telemetry is not None:
            if args.trace is not None:
                telemetry.write_trace(args.trace)
                log.info("wrote Perfetto trace: %s (%d events, open at "
                         "https://ui.perfetto.dev)", args.trace,
                         len(telemetry.trace))
            if args.metrics_out is not None:
                if summary is not None:
                    telemetry.plan_summary = {
                        k: v for k, v in summary.items() if k != "failures"
                    }
                telemetry.write_manifest(
                    args.metrics_out,
                    base_config,
                    seed=args.seed,
                    scale=scale.name,
                    experiments=targets,
                    wall_time_s=time.monotonic() - wall_start,
                    jobs=args.jobs,
                    exit_code=exit_code,
                    interrupted=exit_code == EXIT_INTERRUPTED,
                    cache=cache.snapshot() if cache is not None else None,
                )
                log.info("wrote run manifest: %s (%d runs)",
                         args.metrics_out, len(telemetry.runs))
            if args.metrics_text is not None:
                from ..obs.prometheus import render_registry
                args.metrics_text.parent.mkdir(parents=True, exist_ok=True)
                args.metrics_text.write_text(
                    render_registry(telemetry.registry))
                log.info("wrote Prometheus text metrics: %s (%d "
                         "instruments)", args.metrics_text,
                         len(telemetry.registry))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
