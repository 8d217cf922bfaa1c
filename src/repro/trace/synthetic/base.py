"""Synthetic workload framework.

The paper collects PIN traces of SPEC2006 / BioBench / MiBench / STREAM
programs; those traces are proprietary to their setup, so we substitute
synthetic generators that reproduce the three statistics FPB's dynamics
depend on (see DESIGN.md):

1. read/write intensity at the PCM level (Table 2's R/W-PKI);
2. the number of cells changed per line write (Figure 2);
3. how those changes distribute across chips (integer workloads churn
   low-order word bits, FP workloads churn mantissas, streaming rewrites
   everything) — which drives the hot-chip problem FPB-GCP solves.

A workload yields an infinite stream of CPU references (8-byte words);
the trace generator decides when to stop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .data import make_line_pair


class BatchedRandom:
    """Cheap per-draw randomness backed by batched numpy generation.

    ``numpy.random.Generator`` costs ~1 microsecond per scalar call; at
    trace-generation scale (millions of references) that dominates.
    This helper refills arrays in bulk and serves scalars from them.
    """

    __slots__ = ("_rng", "_size", "_uniform", "_u_pos")

    def __init__(self, rng: np.random.Generator, size: int = 8192):
        self._rng = rng
        self._size = size
        self._uniform = rng.random(size)
        self._u_pos = 0

    def random(self) -> float:
        if self._u_pos >= self._size:
            self._uniform = self._rng.random(self._size)
            self._u_pos = 0
        value = self._uniform[self._u_pos]
        self._u_pos += 1
        return value

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) (float-scaled: the O(2^-53)
        bias is irrelevant for workload synthesis)."""
        return low + int(self.random() * (high - low))

    def geometric_gap(self, mean: float) -> int:
        """A cheap positive integer gap with the given mean (>= 1)."""
        if mean <= 1.0:
            return 1
        # Geometric on {1, 2, ...} with mean `mean` via inversion.
        p = 1.0 / mean
        u = self.random()
        return 1 + int(np.log(max(u, 1e-12)) / np.log(1.0 - p))


@dataclass
class Ref:
    """One CPU memory reference."""

    __slots__ = ("addr", "is_write", "value", "gap_instr")

    addr: int
    is_write: bool
    #: 64-bit value stored (writes only).
    value: Optional[int]
    #: Instructions executed since the previous reference.
    gap_instr: int


class SyntheticWorkload(abc.ABC):
    """Base class for per-benchmark reference generators."""

    #: Benchmark name (Table 2).
    name = "base"
    #: Table 2 targets; the generator rescales instruction gaps so the
    #: produced trace's PCM-level RPKI matches ``target_rpki`` exactly.
    target_rpki = 1.0
    target_wpki = 0.5
    #: Streaming stores skip write-allocate fetches when False.
    fetch_on_write_miss = True
    #: Mean instructions between CPU references (pre-scaling).
    mean_gap = 3
    #: Resident-line content model ('int', 'fp' or 'random'), used to
    #: prewarm the LLC with plausible dirty lines.
    line_kind = "int"
    #: Bytes of address space this benchmark touches.
    footprint_bytes = 128 * 1024 * 1024

    @abc.abstractmethod
    def refs(self, rng: np.random.Generator, base_addr: int) -> Iterator[Ref]:
        """Yield CPU references forever, confined to
        ``[base_addr, base_addr + footprint_bytes)``."""

    def prewarm_line_pairs(
        self, rng: np.random.Generator, n_lines: int, line_size: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(PCM-resident old, cached dirty new) version pairs whose delta
        models this benchmark's steady-state write increment."""
        return make_line_pair(self.line_kind, rng, n_lines, line_size)

    # ------------------------------------------------------------------
    # Value helpers shared by concrete workloads
    # ------------------------------------------------------------------
    @staticmethod
    def int_delta_value(rnd: BatchedRandom, base: int, bits: int = 16) -> int:
        """An integer whose low ``bits`` bits churn around ``base`` —
        the paper's observation that "the lower-order bits of integer
        values are more likely to change" (Section 4.3)."""
        mask = (1 << bits) - 1
        return (base & ~mask & 0xFFFFFFFFFFFFFFFF) | rnd.integers(0, mask + 1)

    @staticmethod
    def fp_evolve_value(rnd: BatchedRandom, step: int, lane: int) -> int:
        """Bit pattern of a double evolving smoothly: the exponent stays
        put while mantissa bits churn, spreading changes through the
        word."""
        x = 1.0 + 0.001 * step + 1e-9 * lane + 1e-7 * rnd.random()
        return int(np.float64(x).view(np.uint64))

    @staticmethod
    def random_value(rnd: BatchedRandom) -> int:
        """Fully random data (text/genome payloads)."""
        return (rnd.integers(0, 1 << 32) << 32) | rnd.integers(0, 1 << 32)

    def gap(self, rnd: BatchedRandom) -> int:
        """Instruction gap before the next reference."""
        return rnd.geometric_gap(self.mean_gap)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"rpki={self.target_rpki}, wpki={self.target_wpki})"
        )
