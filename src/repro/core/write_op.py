"""The MLC line-write operation state machine.

A :class:`WriteOperation` captures everything the power-budgeting layer
needs to know about one line write:

* which cells change and how many program-and-verify iterations each
  needs (sampled by the device model);
* the *iteration schedule*: ``m`` RESET iterations (``m > 1`` only under
  Multi-RESET, Section 3.2) followed by SET iterations until the slowest
  cell finishes;
* per-iteration power demand, at DIMM and per-chip granularity, under
  either per-write budgeting (Hay et al. [8]) or FPB-IPM's step-down
  profile (Section 3, Figure 5).

The FPB-IPM allocation profile for a write with ``n`` changed cells,
``C = RESET_power/SET_power`` and per-iteration active counts
``active[k]`` (``active[0] = n``):

* RESET group ``g``: ``group[g]`` tokens (all groups sum to ``n``);
* first SET iteration: ``n / C`` tokens — the reclaim of ``(C-1)/C``
  of the RESET allocation;
* SET iteration ``j >= 2``: ``active[j-1] / C`` tokens — the verify
  report of iteration ``j-2`` bounds how many cells iteration ``j`` can
  touch (Section 3.1).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import SchedulingError
from ..kernel import Kernel, get_kernel
from ..pcm.mapping import CellMapping
from ..pcm.write_model import active_cells_per_iteration
from ..power.tokens import TOKEN_EPS


class WriteState(enum.Enum):
    """Lifecycle of a write in the memory subsystem."""

    QUEUED = "queued"          # sitting in the write queue
    ACTIVE = "active"          # pulses being applied
    STALLED = "stalled"        # between iterations, waiting for tokens
    PAUSED = "paused"          # preempted by a read (write pausing)
    DONE = "done"
    CANCELLED = "cancelled"    # aborted by write cancellation


class IterationKind(enum.Enum):
    RESET = "reset"
    SET = "set"


class WriteOperation:
    """One line write and its iteration/power schedule."""

    def __init__(
        self,
        write_id: int,
        line_addr: int,
        bank: int,
        changed_idx: np.ndarray,
        iteration_counts: np.ndarray,
        mapping: CellMapping,
        *,
        offset: int = 0,
        mr_splits: int = 1,
        truncate_max_cells: Optional[int] = None,
        kernel: Union[str, Kernel, None] = None,
    ):
        if mr_splits < 1:
            raise SchedulingError(f"mr_splits must be >= 1, got {mr_splits}")
        self.write_id = write_id
        self.line_addr = line_addr
        self.bank = bank
        self.mapping = mapping
        self.offset = offset
        self.changed_idx = np.asarray(changed_idx, dtype=np.int64)
        counts = np.asarray(iteration_counts, dtype=np.int64)
        if counts.size != self.changed_idx.size:
            raise SchedulingError(
                "iteration_counts must align with changed_idx "
                f"({counts.size} != {self.changed_idx.size})"
            )
        if truncate_max_cells is not None and counts.size:
            counts = _truncate_counts(counts, truncate_max_cells)
        self.iteration_counts = counts
        self.n_changed = int(self.changed_idx.size)
        self.n_chips = mapping.n_chips
        self.kernel = get_kernel(kernel)

        self.chip_of_cell = mapping.chip_of(self.changed_idx, offset)
        #: active[k] = cells still programming in cell-iteration k+1;
        #: chip_active[c, k] restricts that to chip c.
        self.active, self.chip_active = self.kernel.plan(
            self.chip_of_cell, counts, self.n_chips
        )
        self.chip_counts = (
            self.chip_active[:, 0]
            if self.chip_active.shape[1]
            else np.zeros(self.n_chips, dtype=np.int64)
        )

        # --- runtime state (owned by the scheduler/power manager) ---
        self.state = WriteState.QUEUED
        self.current_iteration = 0
        self.arrival_time = 0
        self.issue_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        self.stall_cycles = 0
        self.cancel_count = 0
        #: Peak GCP output simultaneously supplying this write (Fig. 14).
        self.gcp_peak_tokens = 0.0
        #: Cached (ratio, dimm_vec, chip_mat, row_sums, row_pos) IPM
        #: allocation profile.
        self._ipm_profiles: Optional[Tuple] = None
        #: Cached per-write (non-IPM) chip demand plan.
        self._flat_plan: Optional[
            Tuple[np.ndarray, float, np.ndarray]
        ] = None

        self.mr_splits = 1
        self.group_totals = np.array([self.n_changed], dtype=np.int64)
        self.group_chip_counts = self.chip_counts.reshape(self.n_chips, 1)
        if mr_splits > 1 and self.n_changed:
            self.apply_multi_reset(mr_splits)

    # ------------------------------------------------------------------
    # Multi-RESET planning
    # ------------------------------------------------------------------
    def apply_multi_reset(self, mr_splits: int,
                          grouping: str = "position") -> None:
        """Split the RESET iteration into ``mr_splits`` groups.

        Section 3.2 describes two grouping strategies: grouping cells by
        *position* regardless of whether they change (lower hardware
        overhead — a 2-bit group-enable per chip — and the paper's
        choice), or grouping only the cells *to be changed* (better
        balanced groups, more control hardware). Both are implemented so
        the trade-off can be measured (``abl_mr`` ablation).
        """
        if self.state is not WriteState.QUEUED:
            raise SchedulingError("cannot re-plan an in-flight write")
        mr_splits = max(1, min(mr_splits, max(1, self.n_changed)))
        self.mr_splits = mr_splits
        self._ipm_profiles = None
        if mr_splits == 1 or not self.n_changed:
            self.group_totals = np.array([self.n_changed], dtype=np.int64)
            self.group_chip_counts = self.chip_counts.reshape(self.n_chips, 1)
            return
        if grouping == "position":
            cells_per_chip = self.mapping.n_cells // self.n_chips
            rank = self._rank_in_chip()
            group = rank * mr_splits // cells_per_chip
        elif grouping == "changed":
            # Deal each chip's changed cells round-robin into groups:
            # every group gets an equal share of every chip's work.
            group = np.zeros(self.n_changed, dtype=np.int64)
            for chip in range(self.n_chips):
                members = np.flatnonzero(self.chip_of_cell == chip)
                group[members] = np.arange(members.size) % mr_splits
        else:
            raise SchedulingError(
                f"unknown Multi-RESET grouping {grouping!r}; "
                "use 'position' or 'changed'"
            )
        self.group_totals = np.bincount(group, minlength=mr_splits)
        grid = np.zeros((self.n_chips, mr_splits), dtype=np.int64)
        np.add.at(grid, (self.chip_of_cell, group), 1)
        self.group_chip_counts = grid

    def _rank_in_chip(self) -> np.ndarray:
        """Position of each changed cell within its chip's cell array."""
        return self.mapping.rank_in_chip(self.offset)[self.changed_idx]

    # ------------------------------------------------------------------
    # Schedule queries
    # ------------------------------------------------------------------
    @property
    def n_reset_iterations(self) -> int:
        return self.mr_splits

    @property
    def max_cell_iterations(self) -> int:
        return int(self.active.size)

    @property
    def total_iterations(self) -> int:
        """RESET groups plus the SET iterations of the slowest cell."""
        if not self.n_changed:
            return 0
        return self.mr_splits + self.max_cell_iterations - 1

    def iteration_kind(self, i: int) -> IterationKind:
        self._check_iteration(i)
        return IterationKind.RESET if i < self.mr_splits else IterationKind.SET

    def _check_iteration(self, i: int) -> None:
        if not 0 <= i < self.total_iterations:
            raise SchedulingError(
                f"iteration {i} out of range [0, {self.total_iterations})"
            )

    def _set_index(self, i: int) -> int:
        """Cell-iteration index (1-based SET number) of overall iteration i."""
        return i - self.mr_splits + 1

    # ------------------------------------------------------------------
    # Power demand profiles
    # ------------------------------------------------------------------
    def dimm_alloc(self, i: int, reset_set_ratio: float, ipm: bool) -> float:
        """DIMM tokens iteration ``i`` must hold."""
        self._check_iteration(i)
        if not ipm:
            # Per-write budgeting: RESET-level power for the whole write.
            return float(self.n_changed)
        if i < self.mr_splits:
            return float(self.group_totals[i])
        j = self._set_index(i)
        if j == 1:
            return self.n_changed / reset_set_ratio
        return float(self.active[j - 1]) / reset_set_ratio

    def chip_alloc(self, i: int, reset_set_ratio: float, ipm: bool) -> np.ndarray:
        """Per-chip tokens iteration ``i`` must hold."""
        self._check_iteration(i)
        if not ipm:
            return self.chip_counts.astype(np.float64)
        if i < self.mr_splits:
            return self.group_chip_counts[:, i].astype(np.float64)
        j = self._set_index(i)
        if j == 1:
            return self.chip_counts / reset_set_ratio
        return self.chip_active[:, j - 1] / reset_set_ratio

    def _profiles(self, reset_set_ratio: float) -> Tuple:
        """The whole IPM allocation schedule as two arrays.

        Row ``i`` of each array is exactly ``dimm_alloc(i, ratio, True)``
        / ``chip_alloc(i, ratio, True)``: the RESET-group rows followed
        by the lagged SET rows ``active[j-1] / C``. Elementwise division
        by the same ratio keeps every entry bit-identical to the
        per-call scalar computation; the vectorized PowerManager indexes
        these instead of rebuilding each iteration's demand. Also cached
        per row: the chip-order sum (``np.cumsum`` is a sequential scan,
        so its rounding matches a per-chip accumulation loop) and the
        ``> TOKEN_EPS`` mask.
        """
        cached = self._ipm_profiles
        if cached is not None and cached[0] == reset_set_ratio:
            return cached
        sets = max(self.max_cell_iterations - 1, 0)
        dimm = np.concatenate([
            self.group_totals.astype(np.float64),
            self.active[:sets] / reset_set_ratio,
        ])
        chip = np.concatenate([
            self.group_chip_counts.T.astype(np.float64),
            self.chip_active[:, :sets].T / reset_set_ratio,
        ])
        cached = (
            reset_set_ratio,
            dimm,
            chip,
            np.cumsum(chip, axis=1)[:, -1],
            chip > TOKEN_EPS,
        )
        self._ipm_profiles = cached
        return cached

    def dimm_profile(self, i: int, reset_set_ratio: float) -> float:
        """Cached equivalent of ``dimm_alloc(i, ratio, ipm=True)``."""
        self._check_iteration(i)
        return float(self._profiles(reset_set_ratio)[1][i])

    def chip_plan(
        self, i: int, reset_set_ratio: float
    ) -> Tuple[np.ndarray, float, np.ndarray]:
        """``(need, total, positive)`` for IPM iteration ``i``.

        ``need`` is the cached profile row, ``total`` its sum
        accumulated in chip order (matching the reference kernel's
        per-chip loop bit for bit), and ``positive`` the
        ``need > TOKEN_EPS`` mask. All three are cached views — the
        power manager hits this on every iteration of every write.
        """
        self._check_iteration(i)
        prof = self._profiles(reset_set_ratio)
        return prof[2][i], float(prof[3][i]), prof[4][i]

    def chip_counts_plan(self) -> Tuple[np.ndarray, float, np.ndarray]:
        """Per-write-budgeting twin of :meth:`chip_plan` (demand is the
        flat RESET-level ``chip_counts``, identical every iteration).
        Integer sums are exact in any order, so no sequential scan is
        needed here."""
        cached = self._flat_plan
        if cached is None:
            need = self.chip_counts.astype(np.float64)
            cached = (need, float(self.chip_counts.sum()), need > TOKEN_EPS)
            self._flat_plan = cached
        return cached

    def cells_finishing_at(self, i: int) -> int:
        """Cells whose programming completes at the end of iteration i.

        At the end of the last RESET group, cells targeting level '00'
        (iteration count 1) are done; SET iteration ``j`` completes the
        cells whose count is ``j + 1``.
        """
        self._check_iteration(i)
        if i < self.mr_splits - 1:
            return 0
        j = self._set_index(i)  # cells with count == j+1 finish now
        if j < 0 or j >= self.active.size:
            return 0
        nxt = int(self.active[j + 1]) if j + 1 < self.active.size else 0
        return int(self.active[j]) - nxt

    def trace_args(self) -> dict:
        """Metadata attached to this write's trace-event scope."""
        return {
            "write": self.write_id,
            "addr": f"{self.line_addr:#x}",
            "bank": self.bank,
            "cells": self.n_changed,
            "iterations": self.total_iterations,
            "mr_splits": self.mr_splits,
            "cancels": self.cancel_count,
            "gcp_peak_tokens": self.gcp_peak_tokens,
        }

    def __repr__(self) -> str:
        return (
            f"WriteOperation(id={self.write_id}, addr={self.line_addr:#x}, "
            f"bank={self.bank}, cells={self.n_changed}, "
            f"iters={self.total_iterations}, state={self.state.value})"
        )


def _truncate_counts(counts: np.ndarray, max_cells: int) -> np.ndarray:
    """Write truncation [10]: once at most ``max_cells`` slow cells
    remain, stop iterating and let ECC correct them.

    Finds the smallest iteration ``k`` whose active-cell count is within
    ECC reach and clips all longer cells to ``k`` iterations.
    """
    if max_cells <= 0:
        return counts
    max_count = int(counts.max())
    active = active_cells_per_iteration(counts, max_count)
    eligible = np.flatnonzero(active <= max_cells)
    if eligible.size == 0:
        return counts
    # active[k] is the demand of cell-iteration k+1; truncating *after*
    # iteration k+1 leaves active[k+1] cells uncorrected, so cut at the
    # first k with active[k] <= max_cells: those cells never iterate.
    cut = int(eligible[0])  # 0-based: cells may run at most `cut` iterations
    cut = max(1, cut)
    return np.minimum(counts, cut)
