"""``compare``: do two sets of ``bench_e2e`` records agree?

For every (workload, metric) pair present on both sides it prints each
side's median and quartiles and one verdict, by the rule of the
choosing-metrics guide (sections 6.5 and 8):

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the metric's bound, and not every run of the change
  reads better than every run of the base;
* ``worse`` — the change's median is worse than the base's by more than
  the bound;
* ``better`` — the change wins at least nine tenths of the run pairs
  and the medians differ by more than the base's quartile distance (or
  every change run beats every base run under a wide spread);
* ``within bound`` — otherwise.

Traced records are skipped: tracing inflates end-to-end timings.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Records of one file: workload -> metric -> (unit, better, bound, values).
Table = Dict[str, Dict[str, Tuple[str, str, float, List[float]]]]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def load(path: Path) -> Table:
    table: Table = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") != "bench_e2e" or record.get("traced"):
            continue
        metrics = table.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            row = metrics.setdefault(name, (entry["unit"], entry["better"],
                                            entry["bound"], []))
            row[3].append(float(entry["value"]))
    return table


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    change_median = quartiles(change)[1]
    if base_median:
        worse_by = sign * (change_median - base_median) / abs(base_median)
    else:
        worse_by = float("inf") if sign * change_median > 0 else 0.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    every_run_better = all(beats(c, b) for c in change for b in base)
    if spread(base) > bound or spread(change) > bound:
        return "better" if every_run_better else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(beats(c, b) for b, c in pairs)
    q1, _, q3 = quartiles(base)
    if (every_run_better or wins >= 0.9 * len(pairs)) \
            and abs(change_median - base_median) > q3 - q1 and worse_by < 0:
        return "better"
    return "within bound"


def compare(base: Table, change: Table) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload in sorted(set(base) & set(change)):
        for name in sorted(set(base[workload]) & set(change[workload])):
            unit, better, bound, base_values = base[workload][name]
            change_values = change[workload][name][3]
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "bound": bound,
                "base": quartiles(base_values),
                "change": quartiles(change_values),
                "base_spread": spread(base_values),
                "change_spread": spread(change_values),
                "runs": (len(base_values), len(change_values)),
                "verdict": verdict(base_values, change_values, better,
                                   bound),
            })
    return rows


def compare_files(base_path: Path, change_path: Path) -> int:
    """Print the comparison; exit status 1 if any pair got worse."""
    rows = compare(load(base_path), load(change_path))
    header = (f"{'workload':9} {'metric':24} {'unit':9} {'bound':>5}  "
              f"{'base median [q1, q3]':>32}  {'change median [q1, q3]':>32}"
              f"  verdict")
    print(header)
    for row in rows:
        cells = []
        for side in ("base", "change"):
            q1, median, q3 = row[side]
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{row['workload']:9} {row['metric']:24} {row['unit']:9} "
              f"{row['bound']:5.2f}  {cells[0]:>32}  {cells[1]:>32}  "
              f"{row['verdict']} (runs {row['runs'][0]}/{row['runs'][1]}, "
              f"spread {row['base_spread']:.1%}/{row['change_spread']:.1%})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
