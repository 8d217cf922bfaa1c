"""System configuration dataclasses.

The classes here mirror Table 1 of the paper ("Baseline configuration").
Every experiment builds a :class:`SystemConfig` — usually starting from
:func:`repro.config.presets.baseline_config` — and passes it to the
simulator. All classes are frozen so a config can be shared between runs
and used as a cache key.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..errors import ConfigError
from ..units import bytes_to_cells, ns_to_cycles, reset_set_ratio


def canonical_value(value):
    """Reduce a config value to a canonical, process-stable form.

    Dataclasses become ``(field, value)`` tuples in declaration order (so
    *every* field participates — new fields can never be forgotten the
    way a hand-maintained cache key forgets them), floats are rendered
    through ``%.17g`` (round-trip exact, identical across platforms),
    and containers recurse. Anything exotic falls back to ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, canonical_value(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple(
            sorted((str(k), canonical_value(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return format(value, ".17g")
    return repr(value)


def config_fingerprint(config) -> str:
    """SHA-256 hex digest of a config dataclass's full field tree.

    Two configs share a fingerprint iff every leaf field is equal; the
    digest is stable across processes and interpreter restarts (no
    ``hash()`` randomization, no ``id()``s), so it can key an on-disk
    cache.
    """
    blob = repr(canonical_value(config))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CPUConfig:
    """The CMP: 8 in-order single-issue cores at 4 GHz (Table 1)."""

    cores: int = 8
    freq_ghz: float = 4.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError(f"need at least one core, got {self.cores}")
        if self.freq_ghz <= 0:
            raise ConfigError(f"non-positive frequency {self.freq_ghz}")


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level (sizes are per core; all levels are private)."""

    size_bytes: int
    assoc: int
    line_size: int
    hit_latency_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ConfigError(f"invalid cache geometry: {self}")
        if self.size_bytes % (self.assoc * self.line_size):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.assoc}-way sets of {self.line_size}B lines"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets implied by size/assoc/line geometry."""
        return self.size_bytes // (self.assoc * self.line_size)


@dataclass(frozen=True)
class CacheConfig:
    """The L1 / L2 / off-chip DRAM L3 hierarchy of Table 1."""

    l1: CacheLevelConfig = CacheLevelConfig(
        size_bytes=32 * 1024, assoc=4, line_size=64, hit_latency_cycles=2
    )
    l2: CacheLevelConfig = CacheLevelConfig(
        size_bytes=2 * 1024 * 1024, assoc=4, line_size=64, hit_latency_cycles=7
    )
    l3: CacheLevelConfig = CacheLevelConfig(
        size_bytes=32 * 1024 * 1024, assoc=8, line_size=256, hit_latency_cycles=200
    )
    cpu_to_l3_cycles: int = 64

    def __post_init__(self) -> None:
        if not (self.l1.line_size <= self.l2.line_size <= self.l3.line_size):
            raise ConfigError("line sizes must be non-decreasing down the hierarchy")


@dataclass(frozen=True)
class WriteLevelModel:
    """Iteration-count model for programming one MLC target level.

    The paper adopts the two-phase model of [10, 20] (Table 1):
    level '00' always finishes in 1 iteration (the RESET alone), '11' in
    a fixed 2 iterations, while '01' and '10' take a non-deterministic
    number with means 8 and 6. ``fast_fraction`` cells finish within
    ``fast_max_iterations``; the rest form a slow tail whose mean is
    chosen so the overall mean matches ``mean_iterations``.
    """

    mean_iterations: float
    fast_fraction: float = 0.0
    fast_max_iterations: int = 0
    max_iterations: int = 16

    def __post_init__(self) -> None:
        if self.mean_iterations < 1:
            raise ConfigError("a write takes at least one iteration")
        if not 0.0 <= self.fast_fraction <= 1.0:
            raise ConfigError(f"fast_fraction out of range: {self.fast_fraction}")
        if self.mean_iterations > self.max_iterations:
            raise ConfigError("mean_iterations exceeds max_iterations")


def _default_level_models() -> Tuple[WriteLevelModel, ...]:
    """Table 1 MLC write model for target levels ('00','01','10','11').

    '01': i/F1/F2 = 2/0.375/0.625, 8 iterations on average;
    '10': i/F1/F2 = 2/0.425/0.675, 6 iterations on average.
    We read i as the fast-phase iteration bound and F1 as the fraction of
    cells that finish within it.
    """
    return (
        WriteLevelModel(mean_iterations=1.0, max_iterations=1),  # '00'
        WriteLevelModel(
            mean_iterations=8.0, fast_fraction=0.375, fast_max_iterations=2,
            max_iterations=16,
        ),  # '01'
        WriteLevelModel(
            mean_iterations=6.0, fast_fraction=0.425, fast_max_iterations=2,
            max_iterations=16,
        ),  # '10'
        WriteLevelModel(mean_iterations=2.0, max_iterations=2),  # '11'
    )


@dataclass(frozen=True)
class PCMConfig:
    """MLC PCM device parameters (Table 1)."""

    bits_per_cell: int = 2
    read_ns: float = 250.0
    reset_ns: float = 125.0
    set_ns: float = 250.0
    reset_power_uw: float = 480.0
    set_power_uw: float = 90.0
    level_models: Tuple[WriteLevelModel, ...] = field(
        default_factory=_default_level_models
    )

    def __post_init__(self) -> None:
        if self.bits_per_cell not in (1, 2):
            raise ConfigError(f"unsupported bits_per_cell {self.bits_per_cell}")
        n_levels = 1 << self.bits_per_cell
        if len(self.level_models) != n_levels:
            raise ConfigError(
                f"{self.bits_per_cell}-bit cells need {n_levels} level models, "
                f"got {len(self.level_models)}"
            )
        # Validates the ratio is well formed.
        reset_set_ratio(self.reset_power_uw, self.set_power_uw)

    @property
    def n_levels(self) -> int:
        """Resistance levels per cell (4 for 2-bit MLC)."""
        return 1 << self.bits_per_cell

    @property
    def reset_set_power_ratio(self) -> float:
        """The paper's ``C`` (token reclaim factor is ``(C-1)/C``)."""
        return reset_set_ratio(self.reset_power_uw, self.set_power_uw)

    @property
    def max_iterations(self) -> int:
        """Worst-case P&V iterations over all levels."""
        return max(model.max_iterations for model in self.level_models)

    def read_cycles(self, freq_ghz: float) -> int:
        """Array read latency in cycles at ``freq_ghz``."""
        return ns_to_cycles(self.read_ns, freq_ghz)

    def reset_cycles(self, freq_ghz: float) -> int:
        """RESET pulse latency in cycles at ``freq_ghz``."""
        return ns_to_cycles(self.reset_ns, freq_ghz)

    def set_cycles(self, freq_ghz: float) -> int:
        """SET+verify latency in cycles at ``freq_ghz``."""
        return ns_to_cycles(self.set_ns, freq_ghz)


@dataclass(frozen=True)
class MemoryConfig:
    """DIMM organization: 4 GB, 8 banks interleaved across 8 chips."""

    capacity_bytes: int = 4 * 1024 * 1024 * 1024
    n_chips: int = 8
    n_banks: int = 8
    line_size: int = 256
    mc_to_bank_cycles: int = 64
    channel_bytes_per_cycle: int = 16
    dimm_bus_bytes_per_cycle: int = 16

    def __post_init__(self) -> None:
        if self.n_chips <= 0 or self.n_banks <= 0:
            raise ConfigError("need positive chip and bank counts")
        if self.line_size <= 0 or self.line_size % self.n_chips:
            raise ConfigError(
                f"line size {self.line_size} must divide evenly across "
                f"{self.n_chips} chips"
            )

    def cells_per_line(self, bits_per_cell: int) -> int:
        return bytes_to_cells(self.line_size, bits_per_cell)

    def line_transfer_cycles(self, bytes_per_cycle: int) -> int:
        """Cycles to move one line over a bus."""
        return max(1, -(-self.line_size // bytes_per_cycle))


@dataclass(frozen=True)
class PowerConfig:
    """DIMM/chip/GCP power budgets in RESET-equivalent cell tokens.

    ``dimm_tokens = 560`` follows Hay et al. [8] (the power of a
    DDR3-1066x16 DIMM supports 560 simultaneous cell RESETs); the paper
    keeps the same number for MLC. Per-chip budgets follow Eq. 4:
    ``PT_LCP = PT_DIMM * E_LCP / n_chips``.
    """

    dimm_tokens: float = 560.0
    lcp_efficiency: float = 0.95
    gcp_efficiency: float = 0.70
    gcp_max_output_tokens: Optional[float] = None
    chip_budget_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dimm_tokens <= 0:
            raise ConfigError("DIMM token budget must be positive")
        for name in ("lcp_efficiency", "gcp_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")
        if self.chip_budget_scale <= 0:
            raise ConfigError("chip_budget_scale must be positive")

    def lcp_tokens(self, n_chips: int) -> float:
        """Usable tokens per chip's local charge pump (Eq. 4)."""
        return self.dimm_tokens * self.lcp_efficiency / n_chips * self.chip_budget_scale

    def gcp_output_tokens(self, n_chips: int) -> float:
        """Maximum usable tokens the GCP can deliver at once.

        Section 4.1: "the maximum power that the GCP can provide is set
        to the same power as one LCP" — the same *input* power (and thus
        pump area, Eq. 1), so the deliverable output scales with the
        GCP's own efficiency: a 50%-efficient pump of LCP size delivers
        half the tokens a 95%-efficient LCP does.
        """
        if self.gcp_max_output_tokens is not None:
            return self.gcp_max_output_tokens
        input_cap = self.dimm_tokens / n_chips  # one LCP's input power
        return input_cap * self.gcp_efficiency


@dataclass(frozen=True)
class SchedulerConfig:
    """Memory controller queues and policies (Table 1 + Section 5.1)."""

    read_queue_entries: int = 24
    write_queue_entries: int = 24
    resp_queue_entries: int = 24
    write_burst_enabled: bool = True
    #: Model the pre-write read FPB-IPM performs to count cell changes
    #: (Section 3.1). Disable for the no-overhead ablation.
    model_pre_write_read: bool = True
    #: PreSET-style writes (Qureshi et al. [22], discussed in Section 7):
    #: lines are SET in the background before eviction, so the foreground
    #: write is a single RESET iteration — fast, but it must RESET nearly
    #: every cell, multiplying the token demand. Foreground-only model
    #: (background SETs assumed free), i.e. optimistic for PreSET.
    preset_writes: bool = False
    #: Fraction of a line's cells the PreSET foreground RESET programs.
    preset_reset_fraction: float = 0.75
    write_cancellation: bool = False
    write_pausing: bool = False
    write_truncation: bool = False
    truncation_max_cells: int = 8

    def __post_init__(self) -> None:
        if min(self.read_queue_entries, self.write_queue_entries,
               self.resp_queue_entries) <= 0:
            raise ConfigError("queue sizes must be positive")
        if self.write_pausing and not self.write_cancellation:
            # Section 6.4.5: "WC is always enabled with WP".
            raise ConfigError("write pausing requires write cancellation")
        if self.truncation_max_cells < 0:
            raise ConfigError("truncation_max_cells must be non-negative")
        if not 0.0 < self.preset_reset_fraction <= 1.0:
            raise ConfigError("preset_reset_fraction must be in (0, 1]")


#: Simulation-kernel implementations (see :mod:`repro.kernel`).
KERNELS = ("reference", "vectorized")

#: The kernel every config, sampler and write runs on unless told
#: otherwise. The reference kernel stays selectable as the executable
#: specification and the tests' oracle.
DEFAULT_KERNEL = "vectorized"


@dataclass(frozen=True)
class SystemConfig:
    """Everything the simulator needs, bundled."""

    cpu: CPUConfig = CPUConfig()
    caches: CacheConfig = CacheConfig()
    pcm: PCMConfig = PCMConfig()
    memory: MemoryConfig = MemoryConfig()
    power: PowerConfig = PowerConfig()
    scheduler: SchedulerConfig = SchedulerConfig()
    cell_mapping: str = "naive"
    wear_leveling: bool = False
    #: Track per-cell wear during simulation (endurance studies).
    track_wear: bool = False
    #: Simulation-kernel implementation: ``"vectorized"`` (batched NumPy,
    #: the default) or ``"reference"`` (per-cell scalar loops — the
    #: executable specification). Both produce byte-identical
    #: :class:`~repro.sim.runner.SimResult`\ s; the choice participates
    #: in :func:`config_fingerprint` like every other field, so caches
    #: never conflate kernels.
    kernel: str = DEFAULT_KERNEL
    seed: int = 1

    def __post_init__(self) -> None:
        if self.caches.l3.line_size != self.memory.line_size:
            raise ConfigError(
                "the PCM line size must match the L3 line size "
                f"({self.memory.line_size} != {self.caches.l3.line_size})"
            )
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel!r}; choose from {KERNELS}"
            )

    @property
    def cells_per_line(self) -> int:
        return self.memory.cells_per_line(self.pcm.bits_per_cell)

    def fingerprint(self) -> str:
        """Canonical digest over the *entire* config tree (every leaf
        field of every nested dataclass) — see :func:`config_fingerprint`."""
        return config_fingerprint(self)

    def with_line_size(self, line_size: int) -> "SystemConfig":
        """Derive a config with a different L3/PCM line size (Fig. 19)."""
        caches = replace(self.caches, l3=replace(self.caches.l3, line_size=line_size))
        memory = replace(self.memory, line_size=line_size)
        return replace(self, caches=caches, memory=memory)

    def with_llc_size(self, size_bytes: int) -> "SystemConfig":
        """Derive a config with a different per-core LLC capacity (Fig. 20)."""
        caches = replace(self.caches, l3=replace(self.caches.l3, size_bytes=size_bytes))
        return replace(self, caches=caches)

    def with_write_queue(self, entries: int) -> "SystemConfig":
        """Derive a config with a different write-queue depth (Fig. 21)."""
        return replace(self, scheduler=replace(
            self.scheduler, write_queue_entries=entries))

    def with_dimm_tokens(self, tokens: float) -> "SystemConfig":
        """Derive a config with a different DIMM power budget (Fig. 22)."""
        return replace(self, power=replace(self.power, dimm_tokens=tokens))

    def with_lcp_efficiency(self, efficiency: float) -> "SystemConfig":
        """Derive a config with a different local charge-pump
        efficiency (Eq. 4; an exploration axis)."""
        return replace(self, power=replace(self.power, lcp_efficiency=efficiency))

    def with_chip_budget_scale(self, scale: float) -> "SystemConfig":
        """Derive a config with a scaled per-chip power budget (the
        1.5x/2xLocal strawmen; an exploration axis)."""
        return replace(self, power=replace(self.power, chip_budget_scale=scale))

    def with_mapping(self, mapping: str) -> "SystemConfig":
        """Derive a config with a different cell-to-chip mapping."""
        return replace(self, cell_mapping=mapping)

    def with_kernel(self, kernel: str) -> "SystemConfig":
        """Derive a config running on a different simulation kernel."""
        return replace(self, kernel=kernel)
