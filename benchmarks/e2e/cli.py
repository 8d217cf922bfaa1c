"""Command line of the end-to-end benchmark.

``run`` executes one workload in this process and prints two JSON
lines: the ``bench_e2e`` record (``run_header`` manifest format, every
metric with its unit, plus host context) and, last, the summary line
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones, or the per-layer ones with ``--trace 1``. It exits 1
when any simulated result disagrees with the golden corpus, and 2
without printing a result when the checkout has no ``src/repro`` or no
golden corpus. ``run --workload all`` runs each workload in a fresh
process. ``compare A.jsonl B.jsonl`` compares two sets of records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("cold_run", "replay", "plan", "gateway")
#: Scratch space inside the checkout (the benchmark writes nowhere else).
SCRATCH = ROOT / ".bench_e2e"
DEFAULT_SECONDS = 25


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (no subprocess), or ``None``
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload (or all)")
    run.add_argument("--workload", required=True,
                     choices=WORKLOAD_NAMES + ("all",))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: report per-layer metrics and write a Perfetto "
                          "trace under .bench_e2e/traces/")
    run.add_argument("--out", type=Path,
                     help="append the bench_e2e record to this JSONL file")
    compare = commands.add_parser("compare", help="compare two record sets")
    compare.add_argument("base", type=Path)
    compare.add_argument("change", type=Path)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "compare", "-h", "--help"):
        argv.insert(0, "run")
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .stats import compare_files

        return compare_files(args.base, args.change)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


def _run_all(args) -> int:
    worst = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, "-m", "benchmarks.e2e", "run",
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def _run_one(args) -> int:
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no repro package under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Pool workers started by spawn or forkserver import repro afresh.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    # Temp files of this process and its workers stay in the checkout.
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        from repro.config.presets import baseline_config
        from repro.experiments.base import QUICK
        from repro.experiments.golden import GoldenMismatch
        from repro.obs.manifest import run_header

        from . import workloads

        try:
            golden = workloads.load_golden(ROOT)
        except (GoldenMismatch, ValueError) as exc:
            print(f"benchmarks.e2e: {exc}", file=sys.stderr)
            return 2
        import_s = time.perf_counter() - started
        trace_path = None
        if args.trace:
            trace_path = (SCRATCH / "traces"
                          / f"{args.workload}-seed{args.seed}.json")
        body = workloads.run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), golden=golden, scratch=scratch,
            import_s=import_s, trace_path=trace_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = run_header(baseline_config(), seed=args.seed,
                        scale=QUICK.name, harness="benchmarks.e2e")
    record["type"] = "bench_e2e"
    record["host"] = {
        "calibration_s": body.pop("calibration_s"),
        "calibration_samples": body.pop("calibration_samples"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }
    record.update(body)
    if trace_path is not None:
        record["perfetto_trace"] = str(trace_path.relative_to(ROOT))
    line = json.dumps(record)
    print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a") as handle:
            handle.write(line + "\n")

    if args.trace:
        reported = record["layers"]
    else:
        reported = {name: record["metrics"][name]
                    for name in workloads.END_TO_END}
    print(json.dumps({
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in reported.items()},
    }))
    for failure in body["failures"]:
        print(f"benchmarks.e2e: FAILED {failure}", file=sys.stderr)
    return 0 if body["failed"] == 0 else 1
