"""Pareto dominance over exploration objectives.

The explorer scores every probed point on three objectives drawn from
the simulation result and the paper's charge-pump cost model:

* ``write_throughput`` (maximize) — lines/sec from ``SimResult.stats``;
* ``avg_power_tokens`` (minimize) — time-averaged DIMM power draw in
  RESET-equivalent tokens (``dimm_token_cycles / total_cycles``);
* ``pump_area`` (minimize) — charge-pump area cost from Eq. 1
  (:mod:`repro.power.charge_pump`): the LCP input load plus, for
  GCP-based schemes, the GCP's input load at its efficiency point.

:func:`pareto_frontier` is the load-bearing primitive: it dedupes
points with identical objective vectors (keeping one deterministic
representative), filters the non-dominated set incrementally, and
returns it in a canonical objective-sorted order — so the frontier is
invariant under permutation and duplicate insertion of the input, which
the property suite checks against a brute-force O(n^2) oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..config.system import SystemConfig
from ..core.policies.registry import get_scheme
from ..power.charge_pump import ChargePumpDesign, pump_input_tokens

#: Objective senses.
MAXIMIZE = "max"
MINIMIZE = "min"


@dataclass(frozen=True)
class Objective:
    """One scored dimension: its result key and optimization sense."""

    name: str
    sense: str  # "max" | "min"
    description: str = ""

    def __post_init__(self) -> None:
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(
                f"objective {self.name!r}: sense must be "
                f"'{MAXIMIZE}' or '{MINIMIZE}', got {self.sense!r}"
            )

    def signed(self, value: float) -> float:
        """The value with its sense folded in, so that *larger is
        always better* — the common currency of dominance checks."""
        return value if self.sense == MAXIMIZE else -value


DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    Objective("write_throughput", MAXIMIZE,
              "sustained write throughput (lines/sec)"),
    Objective("avg_power_tokens", MINIMIZE,
              "time-averaged DIMM power (RESET-equivalent tokens)"),
    Objective("pump_area", MINIMIZE,
              "charge-pump area cost from Eq. 1 (arbitrary units)"),
)


def pump_area_cost(config: SystemConfig, scheme_name: str) -> float:
    """Eq. 1 area cost of the design's charge pumps.

    Every design pays for local pumps sized for the chip-level budget
    (``dimm_tokens * chip_budget_scale`` of input load across the
    DIMM); GCP-based schemes additionally pay for a global pump sized
    for its output budget at its efficiency point.
    """
    spec = get_scheme(scheme_name)
    config = spec.apply_to_config(config)
    power = config.power
    design = ChargePumpDesign()
    load = power.dimm_tokens * power.chip_budget_scale
    if spec.gcp:
        gcp_out = power.gcp_output_tokens(config.memory.n_chips)
        load += pump_input_tokens(gcp_out, power.gcp_efficiency)
    return design.area(load)


def extract_objectives(result, config: SystemConfig,
                       scheme_name: str) -> Dict[str, float]:
    """The default objective vector for one evaluated point."""
    stats = result.stats
    avg_power = (stats.dimm_token_cycles / stats.total_cycles
                 if stats.total_cycles else 0.0)
    return {
        "write_throughput": stats.write_throughput,
        "avg_power_tokens": avg_power,
        "pump_area": pump_area_cost(config, scheme_name),
    }


def dominates(a: Dict[str, float], b: Dict[str, float],
              objectives: Sequence[Objective] = DEFAULT_OBJECTIVES
              ) -> bool:
    """True iff ``a`` is at least as good as ``b`` on every objective
    and strictly better on at least one."""
    better = False
    for obj in objectives:
        sa = obj.signed(a[obj.name])
        sb = obj.signed(b[obj.name])
        if sa < sb:
            return False
        if sa > sb:
            better = True
    return better


def _signed_vector(values: Dict[str, float],
                   objectives: Sequence[Objective]) -> Tuple[float, ...]:
    return tuple(obj.signed(values[obj.name]) for obj in objectives)


def pareto_frontier(
    items: Sequence,
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    *,
    values: Callable[[object], Dict[str, float]] = lambda item: item,
    tiebreak: Callable[[object], object] = repr,
) -> List:
    """The non-dominated subset of ``items``, canonically ordered.

    ``values`` maps an item to its objective dict; ``tiebreak`` picks a
    deterministic representative among items with *identical* objective
    vectors (the minimum under the given key survives; duplicates are
    dropped). The result is sorted best-first on the first objective,
    then the second, and so on — a total order on the frontier since no
    two members share a vector — making the output invariant under any
    permutation or duplication of the input.

    Runs the incremental sweep (new candidate vs. current frontier)
    rather than all-pairs, so the property suite's brute-force O(n^2)
    oracle is a structurally independent cross-check.
    """
    # Dedupe identical objective vectors first, keeping the tiebreak
    # minimum as the representative.
    by_vector: Dict[Tuple[float, ...], object] = {}
    for item in items:
        vec = _signed_vector(values(item), objectives)
        held = by_vector.get(vec)
        if held is None or tiebreak(item) < tiebreak(held):
            by_vector[vec] = item

    frontier: List[Tuple[Tuple[float, ...], object]] = []
    for vec, item in by_vector.items():
        dominated = False
        survivors = []
        for fvec, fitem in frontier:
            if _vector_dominates(fvec, vec):
                dominated = True
                survivors.append((fvec, fitem))
            elif not _vector_dominates(vec, fvec):
                survivors.append((fvec, fitem))
        if dominated:
            # Anything the candidate beat was already beaten by the
            # dominator, so the survivor list is unchanged.
            continue
        survivors.append((vec, item))
        frontier = survivors

    frontier.sort(key=lambda pair: tuple(-v for v in pair[0]))
    return [item for _, item in frontier]


def _vector_dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    better = False
    for va, vb in zip(a, b):
        if va < vb:
            return False
        if va > vb:
            better = True
    return better


def frontier_markdown(report: Dict[str, object]) -> str:
    """Render a frontier report dict (the deterministic slice from
    :func:`repro.explore.session.frontier_report`) as Markdown.

    Deterministic by construction: no clocks, no environment, and no
    acquisition sources or cache counts (those vary between cold and
    warm runs) — so re-running a seeded exploration reproduces the
    document byte-for-byte.
    """
    objectives = report["objectives"]
    lines = [
        f"# Pareto frontier — `{report['space']['name']}` "
        f"({report['strategy']}, seed {report['seed']})",
        "",
        f"- session: `{report['session']}`",
        f"- space fingerprint: `{report['space']['fingerprint']}`",
        f"- workload/scheme: `{report['workload']}` / "
        f"`{report['scheme']}`",
        f"- budget: {report['budget_points']} points",
        f"- frontier size: {len(report['frontier'])}",
        "",
        "## Objectives",
        "",
    ]
    for obj in objectives:
        arrow = "maximize" if obj["sense"] == MAXIMIZE else "minimize"
        lines.append(f"- **{obj['name']}** ({arrow}): "
                     f"{obj['description']}")
    lines += ["", "## Frontier", ""]
    names = [obj["name"] for obj in objectives]
    params = sorted({key for entry in report["frontier"]
                     for key in entry["point"]})
    header = params + names + ["scheme", "fingerprint"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for entry in report["frontier"]:
        cells = [_fmt(entry["point"].get(p)) for p in params]
        cells += [_fmt(entry["objectives"][n]) for n in names]
        cells += [f"`{entry['scheme']}`",
                  f"`{entry['fingerprint'][:12]}`"]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)
