"""Declarative search spaces over the FPB design space.

A :class:`SearchSpace` is a tuple of typed :class:`Axis` specs, each
naming one *parameter* from the registry below. Parameters come in two
flavors:

* **config parameters** lower onto :class:`~repro.config.system.
  SystemConfig` fields through the same derivation helpers the sweep
  figures use (``with_dimm_tokens``, ``with_line_size``, ...), so a
  probed point is an ordinary config whose canonical
  :func:`~repro.config.system.config_fingerprint` keys the run caches;
* **scheme parameters** (GCP efficiency, Multi-RESET split count, cell
  mapping) are properties of the *scheme*, not the config — the
  parametric scheme grammar (``ipm+mr<k>-<map>-<eff>``, see
  :mod:`repro.core.policies.registry`) already expresses them, so the
  space lowers these axes by recomposing the base scheme's name. The
  base scheme must therefore be GCP-based (``fpb``, ``ipm...`` or
  ``gcp-...``) when scheme axes are present.

Lowering a point yields ``(SystemConfig, scheme_name)`` and every
validation error — config invariants, scheme grammar — surfaces as an
:class:`ExploreError` naming the offending point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..config.system import SystemConfig, canonical_value
from ..core.policies.registry import (
    DEFAULT_FPB_EFFICIENCY,
    DEFAULT_FPB_MAPPING,
    SchemeSpec,
    get_scheme,
)
from ..errors import ConfigError, ReproError
from ..util.seeds import derive_key

#: A concrete point: ``(param, value)`` pairs in the space's axis order.
Point = Tuple[Tuple[str, object], ...]


class ExploreError(ReproError):
    """An invalid search space, point, or exploration setting."""


def _set_memory(field: str) -> Callable[[SystemConfig, object], SystemConfig]:
    def apply(config: SystemConfig, value) -> SystemConfig:
        return replace(config, memory=replace(config.memory,
                                              **{field: value}))
    return apply


def _set_bits_per_cell(config: SystemConfig, value) -> SystemConfig:
    from ..config.presets import slc_config
    if value == config.pcm.bits_per_cell:
        return config
    if value == 1:
        return replace(config, pcm=slc_config(config.seed).pcm)
    return replace(config, pcm=SystemConfig().pcm)


@dataclass(frozen=True)
class ParamSpec:
    """One explorable parameter: its type, target and default grid."""

    name: str
    kind: str  # "float" | "int" | "choice"
    target: str  # "config" | "scheme"
    description: str
    default_grid: Tuple[object, ...]
    apply: Optional[Callable[[SystemConfig, object], SystemConfig]] = None
    choices: Optional[Tuple[object, ...]] = None


def _parameters() -> Dict[str, ParamSpec]:
    specs = (
        ParamSpec(
            "dimm_tokens", "float", "config",
            "DIMM power budget in RESET-equivalent tokens (Fig. 22)",
            (420.0, 490.0, 560.0, 630.0),
            apply=lambda c, v: c.with_dimm_tokens(v),
        ),
        ParamSpec(
            "lcp_efficiency", "float", "config",
            "local charge-pump efficiency (Eq. 4)",
            (0.85, 0.90, 0.95, 1.0),
            apply=lambda c, v: c.with_lcp_efficiency(v),
        ),
        ParamSpec(
            "chip_budget_scale", "float", "config",
            "per-chip budget multiplier (1.5x/2xLocal strawmen)",
            (1.0, 1.5, 2.0),
            apply=lambda c, v: c.with_chip_budget_scale(v),
        ),
        ParamSpec(
            "n_chips", "int", "config",
            "PCM chips per DIMM (line must divide across them)",
            (4, 8, 16),
            apply=_set_memory("n_chips"),
        ),
        ParamSpec(
            "n_banks", "int", "config",
            "banks per DIMM",
            (4, 8, 16),
            apply=_set_memory("n_banks"),
        ),
        ParamSpec(
            "line_size", "int", "config",
            "L3/PCM line size in bytes (Fig. 19)",
            (64, 128, 256),
            apply=lambda c, v: c.with_line_size(v),
        ),
        ParamSpec(
            "write_queue_entries", "int", "config",
            "write-queue depth (Fig. 21)",
            (16, 24, 48, 96),
            apply=lambda c, v: c.with_write_queue(v),
        ),
        ParamSpec(
            "bits_per_cell", "choice", "config",
            "cell density: 1 (SLC) or 2 (MLC, Table 1 write model)",
            (1, 2),
            apply=_set_bits_per_cell,
            choices=(1, 2),
        ),
        ParamSpec(
            "gcp_efficiency", "float", "scheme",
            "global charge-pump efficiency (Eq. 1 area/efficiency "
            "trade-off)",
            (0.5, 0.7, 0.85, 0.95),
        ),
        ParamSpec(
            "mr_splits", "int", "scheme",
            "Multi-RESET split count (1 = plain IPM, Fig. 17)",
            (1, 2, 3, 4),
        ),
        ParamSpec(
            "mapping", "choice", "scheme",
            "cell-to-chip mapping (naive/VIM/BIM, Section 4.2)",
            ("naive", "vim", "bim"),
            choices=("naive", "vim", "bim"),
        ),
    )
    return {spec.name: spec for spec in specs}


PARAMETERS: Dict[str, ParamSpec] = _parameters()


@dataclass(frozen=True)
class Axis:
    """One axis of a search space.

    Discrete axes list explicit ``values``; continuous float axes give
    a ``[low, high]`` range (``steps`` sets their grid resolution for
    the grid strategy — random/adaptive sample the range densely).
    With neither, the parameter's default grid applies.
    """

    param: str
    values: Optional[Tuple[object, ...]] = None
    low: Optional[float] = None
    high: Optional[float] = None
    steps: int = 4

    def __post_init__(self) -> None:
        spec = PARAMETERS.get(self.param)
        if spec is None:
            raise ExploreError(
                f"unknown parameter {self.param!r}; choose from "
                f"{sorted(PARAMETERS)}"
            )
        if self.values is not None and (self.low is not None
                                        or self.high is not None):
            raise ExploreError(
                f"axis {self.param!r}: give either explicit values or a "
                f"low/high range, not both"
            )
        if (self.low is None) != (self.high is None):
            raise ExploreError(
                f"axis {self.param!r}: a range needs both low and high"
            )
        if self.low is not None:
            if spec.kind != "float":
                raise ExploreError(
                    f"axis {self.param!r}: ranges apply to float "
                    f"parameters only ({spec.kind!r} given)"
                )
            if not self.low < self.high:
                raise ExploreError(
                    f"axis {self.param!r}: need low < high, got "
                    f"[{self.low}, {self.high}]"
                )
            if self.steps < 2:
                raise ExploreError(
                    f"axis {self.param!r}: a range grid needs >= 2 steps"
                )
        if self.values is not None:
            if not self.values:
                raise ExploreError(f"axis {self.param!r}: empty values")
            if len(set(self.values)) != len(self.values):
                raise ExploreError(
                    f"axis {self.param!r}: duplicate values"
                )
            if spec.choices is not None:
                bad = [v for v in self.values if v not in spec.choices]
                if bad:
                    raise ExploreError(
                        f"axis {self.param!r}: invalid value(s) {bad}; "
                        f"choose from {list(spec.choices)}"
                    )

    @property
    def spec(self) -> ParamSpec:
        return PARAMETERS[self.param]

    @property
    def continuous(self) -> bool:
        return self.low is not None

    def grid(self) -> Tuple[object, ...]:
        """The axis's discrete probe values (grid strategy order)."""
        if self.values is not None:
            return self.values
        if self.low is not None:
            span = self.high - self.low
            return tuple(
                self.low + span * i / (self.steps - 1)
                for i in range(self.steps)
            )
        return self.spec.default_grid

    def sample(self, u: float):
        """Map a uniform ``u in [0, 1)`` onto this axis."""
        if self.continuous:
            return self.low + (self.high - self.low) * u
        grid = self.grid()
        return grid[min(int(u * len(grid)), len(grid) - 1)]


@dataclass(frozen=True)
class SearchSpace:
    """A named tuple of axes over the FPB design space."""

    name: str
    axes: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ExploreError(f"search space {self.name!r} has no axes")
        params = [axis.param for axis in self.axes]
        if len(set(params)) != len(params):
            raise ExploreError(
                f"search space {self.name!r} repeats parameter(s): "
                f"{sorted(p for p in set(params) if params.count(p) > 1)}"
            )

    def fingerprint(self) -> str:
        """Canonical content digest of the space definition."""
        return derive_key("explore.space", repr(canonical_value(self)))

    def grid_points(self) -> Iterator[Point]:
        """Cartesian product of the axis grids, last axis fastest —
        the grid strategy's canonical point order."""
        grids = [axis.grid() for axis in self.axes]
        indices = [0] * len(grids)
        while True:
            yield tuple(
                (axis.param, grids[i][indices[i]])
                for i, axis in enumerate(self.axes)
            )
            for i in reversed(range(len(grids))):
                indices[i] += 1
                if indices[i] < len(grids[i]):
                    break
                indices[i] = 0
            else:
                return

    def sample_point(self, uniforms) -> Point:
        """A point from one uniform draw per axis (strategy side)."""
        return tuple(
            (axis.param, axis.sample(u))
            for axis, u in zip(self.axes, uniforms)
        )

    def lower(self, point: Point, base_config: SystemConfig,
              base_scheme: str) -> Tuple[SystemConfig, str]:
        """Lower a point to ``(config, scheme_name)``; every config or
        scheme-grammar violation becomes an :class:`ExploreError`."""
        values = dict(point)
        config = base_config
        scheme_values: Dict[str, object] = {}
        try:
            for axis in self.axes:
                value = values[axis.param]
                spec = axis.spec
                if spec.target == "config":
                    config = spec.apply(config, value)
                else:
                    scheme_values[spec.name] = value
            scheme = (self._compose_scheme(base_scheme, scheme_values)
                      if scheme_values else base_scheme)
            get_scheme(scheme)  # validate the composed grammar
        except ExploreError:
            raise
        except (ConfigError, ValueError, TypeError) as exc:
            raise ExploreError(
                f"point {values!r} does not lower to a valid "
                f"configuration: {exc}"
            ) from exc
        return config, scheme

    @staticmethod
    def _compose_scheme(base_scheme: str,
                        overrides: Dict[str, object]) -> str:
        """Recompose a GCP-based scheme name with axis overrides."""
        spec: SchemeSpec = get_scheme(base_scheme)
        if not spec.gcp:
            raise ExploreError(
                f"scheme axes ({sorted(overrides)}) need a GCP-based "
                f"base scheme (fpb / ipm... / gcp-...), got "
                f"{base_scheme!r}"
            )
        mapping = overrides.get("mapping", spec.mapping
                                or DEFAULT_FPB_MAPPING)
        eff = overrides.get("gcp_efficiency", spec.gcp_efficiency
                            if spec.gcp_efficiency is not None
                            else DEFAULT_FPB_EFFICIENCY)
        eff_text = format(float(eff), "g")
        if spec.ipm:
            mr = int(overrides.get("mr_splits", spec.mr_splits))
            if mr < 1:
                raise ExploreError(f"mr_splits must be >= 1, got {mr}")
            mr_part = f"+mr{mr}" if mr > 1 else ""
            return f"ipm{mr_part}-{mapping}-{eff_text}"
        if "mr_splits" in overrides and int(overrides["mr_splits"]) > 1:
            raise ExploreError(
                f"mr_splits requires an IPM base scheme, got "
                f"{base_scheme!r}"
            )
        return f"gcp-{mapping}-{eff_text}"

    def validate(self, base_config: SystemConfig,
                 base_scheme: str) -> None:
        """Probe-lower the space's corners so bad axes fail fast: the
        first grid point, plus each axis's extremes with the others at
        their first grid value."""
        first = tuple(
            (axis.param, axis.grid()[0]) for axis in self.axes
        )
        probes = [first]
        for i, axis in enumerate(self.axes):
            grid = axis.grid()
            for extreme in {0, len(grid) - 1}:
                probe = list(first)
                probe[i] = (axis.param, grid[extreme])
                probes.append(tuple(probe))
        for probe in probes:
            self.lower(probe, base_config, base_scheme)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint(),
            "axes": [
                {
                    "param": axis.param,
                    **({"values": list(axis.values)}
                       if axis.values is not None else {}),
                    **({"low": axis.low, "high": axis.high,
                        "steps": axis.steps}
                       if axis.low is not None else {}),
                }
                for axis in self.axes
            ],
        }


def space_from_dict(data: Dict[str, object]) -> SearchSpace:
    """Build a space from its JSON form (``{"name", "axes": [...]}``;
    each axis gives ``param`` plus ``values`` or ``low``/``high``/
    ``steps``)."""
    if not isinstance(data, dict):
        raise ExploreError("a space definition must be a JSON object")
    axes_data = data.get("axes")
    if not isinstance(axes_data, list) or not axes_data:
        raise ExploreError("a space definition needs a non-empty "
                           "'axes' list")
    axes = []
    for entry in axes_data:
        if not isinstance(entry, dict) or "param" not in entry:
            raise ExploreError(f"bad axis entry {entry!r}: each axis "
                               f"needs at least a 'param'")
        known = {"param", "values", "low", "high", "steps"}
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ExploreError(
                f"axis {entry.get('param')!r}: unknown field(s) "
                f"{unknown}; accepted: {sorted(known)}"
            )
        values = entry.get("values")
        axes.append(Axis(
            param=str(entry["param"]),
            values=tuple(values) if values is not None else None,
            low=entry.get("low"),
            high=entry.get("high"),
            steps=int(entry.get("steps", 4)),
        ))
    return SearchSpace(name=str(data.get("name", "custom")),
                       axes=tuple(axes))


def named_spaces() -> Dict[str, SearchSpace]:
    """Built-in spaces: ``demo3`` is the 3-axis budget x GCP-efficiency
    x Multi-RESET demo (60 grid points), ``mapping`` and ``geometry``
    cover the paper's other sweep axes."""
    return {
        "demo3": SearchSpace(name="demo3", axes=(
            Axis("dimm_tokens",
                 values=(420.0, 490.0, 560.0, 630.0, 700.0)),
            Axis("gcp_efficiency", values=(0.5, 0.7, 0.85, 0.95)),
            Axis("mr_splits", values=(1, 2, 3)),
        )),
        "mapping": SearchSpace(name="mapping", axes=(
            Axis("mapping"),
            Axis("gcp_efficiency"),
            Axis("dimm_tokens", values=(466.0, 532.0, 598.0)),
        )),
        "geometry": SearchSpace(name="geometry", axes=(
            Axis("line_size"),
            Axis("write_queue_entries", values=(24, 48, 96)),
            Axis("n_banks"),
        )),
    }
