"""PCM-level trace records.

A trace is the unit of comparison between power-budgeting schemes: the
same trace is replayed under every scheme so differences come only from
the scheme itself (the paper replays identical PIN traces, Section 5.1).

Each record carries the data-dependent facts the power layer needs,
precomputed at generation time so they are identical across schemes:
which cells change and how many program-and-verify iterations each cell
will take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import TraceError

READ = "R"
WRITE = "W"


@dataclass
class PCMAccess:
    """One PCM-visible access of one core."""

    core: int
    kind: str
    line_addr: int
    #: Instructions the core executes before issuing this access.
    gap_instr: int
    #: Cache hit-latency cycles accumulated in the same window.
    gap_hit_cycles: int
    #: For writes: indices of the MLC cells that change.
    changed_idx: Optional[np.ndarray] = None
    #: For writes: per-changed-cell total iteration counts.
    iter_counts: Optional[np.ndarray] = None
    #: For writes: SLC bit flips the same write would need (Figure 2).
    slc_bit_changes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise TraceError(f"bad access kind {self.kind!r}")
        if self.kind == WRITE and self.changed_idx is None:
            raise TraceError("write access needs changed_idx")

    @property
    def n_cells_changed(self) -> int:
        """Number of MLC cells this write changes."""
        return 0 if self.changed_idx is None else int(self.changed_idx.size)


@dataclass
class TraceStats:
    """Aggregate statistics of a generated trace."""

    instructions: int = 0
    reads: int = 0
    writes: int = 0
    total_cells_changed: int = 0
    total_slc_bit_changes: int = 0

    @property
    def rpki(self) -> float:
        """PCM reads per thousand instructions."""
        return 1000.0 * self.reads / self.instructions if self.instructions else 0.0

    @property
    def wpki(self) -> float:
        """PCM writes per thousand instructions."""
        return 1000.0 * self.writes / self.instructions if self.instructions else 0.0

    @property
    def mean_cells_changed(self) -> float:
        """Mean MLC cells changed per line write (Figure 2)."""
        return self.total_cells_changed / self.writes if self.writes else 0.0

    @property
    def mean_slc_bit_changes(self) -> float:
        """Mean SLC bit flips per line write (Figure 2)."""
        return self.total_slc_bit_changes / self.writes if self.writes else 0.0


@dataclass
class Trace:
    """Per-core PCM access streams plus aggregate statistics."""

    workload: str
    line_size: int
    per_core: List[List[PCMAccess]] = field(default_factory=list)
    stats: TraceStats = field(default_factory=TraceStats)
    per_core_stats: List[TraceStats] = field(default_factory=list)

    @property
    def n_cores(self) -> int:
        """Number of per-core access streams."""
        return len(self.per_core)

    def validate(self) -> None:
        """Cheap structural checks used by tests and the generator."""
        for core, stream in enumerate(self.per_core):
            for acc in stream:
                if acc.core != core:
                    raise TraceError(
                        f"record for core {acc.core} filed under core {core}"
                    )
                if acc.line_addr % self.line_size:
                    raise TraceError(
                        f"unaligned line address {acc.line_addr:#x}"
                    )
                if acc.kind == WRITE and acc.iter_counts is not None:
                    if acc.iter_counts.size != acc.changed_idx.size:
                        raise TraceError("iteration counts misaligned")

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics as a plain dict."""
        return {
            "instructions": self.stats.instructions,
            "reads": self.stats.reads,
            "writes": self.stats.writes,
            "rpki": self.stats.rpki,
            "wpki": self.stats.wpki,
            "mean_cells_changed": self.stats.mean_cells_changed,
            "mean_slc_bit_changes": self.stats.mean_slc_bit_changes,
        }
