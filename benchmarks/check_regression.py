"""Benchmark regression gate on paired speedup ratios.

Reads the ``bench_kernel`` records the latest benchmark session
appended to ``.benchmarks/BENCH_runs.jsonl`` (see
``benchmarks/conftest.py``), computes per-name reference/vectorized
speedups, prints the table, and fails if any pair

* fell below its absolute floor (the kernel tentpole targets ≥3x on the
  pure kernel microbenchmarks), or
* regressed more than 25% against the committed
  ``benchmarks/BENCH_baseline.json``.

Gating on the *ratio* of two timings from the same session keeps the
check machine-independent: absolute times shift with hardware, but both
sides of a pair run the same inputs on the same host. Plan throughput
is measured end to end by the ``plan`` workload of ``benchmarks/e2e``.

Usage::

    pytest benchmarks/test_bench_kernel.py --benchmark-only
    python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_MANIFEST = HERE.parent / ".benchmarks" / "BENCH_runs.jsonl"
DEFAULT_BASELINE = HERE / "BENCH_baseline.json"

#: Regressions beyond this fraction of the baseline speedup fail.
REGRESSION_SLACK = 0.75


def latest_session_records(manifest: pathlib.Path, record_type: str):
    """Records of ``record_type`` from the last session that produced
    any (records after a ``run_header``), so other benchmarks may run
    in later pytest invocations."""
    sessions = [[]]
    with manifest.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "run_header":
                sessions.append([])
            elif record.get("type") == record_type:
                sessions[-1].append(record)
    for session in reversed(sessions):
        if session:
            return session
    return []


def kernel_speedups(records):
    """name -> reference min time / vectorized min time, over the names
    timed on both kernels."""
    times = {}
    for record in records:
        times.setdefault(record["name"], {})[record["kernel"]] = record[
            "min_seconds"
        ]
    return {
        name: sides["reference"] / sides["vectorized"]
        for name, sides in sorted(times.items())
        if {"reference", "vectorized"} <= set(sides)
    }


def check(speedups, expected, floors):
    failures = []
    print("\nkernel pairs (reference / vectorized)")
    print(f"{'benchmark':<24}{'speedup':>9}{'baseline':>10}{'floor':>7}  verdict")
    for name, speedup in speedups.items():
        floor = floors.get(name, 1.0)
        base = expected.get(name)
        bound = floor if base is None else max(floor, base * REGRESSION_SLACK)
        ok = speedup >= bound
        print(
            f"{name:<24}{speedup:>8.2f}x"
            f"{'' if base is None else format(base, '.2f'):>9}x"
            f"{floor:>6.1f}x  {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below bound {bound:.2f}x"
            )
    missing = set(expected) - set(speedups)
    for name in sorted(missing):
        failures.append(f"{name}: baselined benchmark was not run")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=pathlib.Path,
                        default=DEFAULT_MANIFEST)
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)

    if not args.manifest.is_file():
        print(f"no benchmark manifest at {args.manifest}; run "
              "`pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 2
    speedups = kernel_speedups(
        latest_session_records(args.manifest, "bench_kernel"))
    if not speedups:
        print("no benchmark pairs in the latest session", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    failures = check(speedups, baseline.get("kernel_speedups", {}),
                     baseline.get("floors", {}))
    if failures:
        print("\nregression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
