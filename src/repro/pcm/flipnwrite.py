"""Flip-N-Write encoding (Cho & Lee, MICRO 2009 — the paper's ref [4]).

Flip-N-Write partitions a line into fixed-size blocks; if writing a
block would change more than half of its cells, the block is stored
*inverted* (one flag cell per block records the polarity), halving the
worst-case cell changes. Hay et al.'s 560-token budget analysis assumes
it ("at most two 64B lines can be written simultaneously using
Flip-n-Write", Section 1).

The paper notes it has "limited benefit for MLC PCM due to the
additional states" (Section 7): inverting a 2-bit cell is not a single
bit flip, so a flipped block may still change many cells. We implement
the MLC generalization (level -> 3 - level, i.e. bitwise complement of
the pair) faithfully so that claim can be checked — see
``examples/flip_n_write_study.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigError
from .cells import bytes_to_levels

#: Default Flip-N-Write block size, in cells (32 cells = one 64-bit
#: word of 2-bit cells, a common choice).
DEFAULT_BLOCK_CELLS = 32


@dataclass
class FlipResult:
    """Outcome of encoding one line write."""

    #: Indices of data cells that actually change.
    changed_idx: np.ndarray
    #: Per-block polarity chosen for the new data.
    flip_flags: np.ndarray
    #: Cell changes a plain differential write would have needed.
    plain_changes: int
    #: Polarity-flag cells rewritten (one per block whose flag flips).
    flag_changes: int = 0

    @property
    def encoded_changes(self) -> int:
        return int(self.changed_idx.size) + self.flag_changes



class FlipNWrite:
    """Stateful Flip-N-Write encoder for one memory line space.

    The caller supplies the *stored* level array (with current
    polarities) via :meth:`encode`'s return value feedback; this class
    keeps the per-line polarity flags.
    """

    def __init__(self, n_cells: int, block_cells: int = DEFAULT_BLOCK_CELLS):
        if n_cells <= 0 or block_cells <= 0 or n_cells % block_cells:
            raise ConfigError(
                f"{n_cells} cells do not divide into {block_cells}-cell blocks"
            )
        self.n_cells = n_cells
        self.block_cells = block_cells
        self.n_blocks = n_cells // block_cells
        # line_addr -> polarity flags per block (True = stored inverted).
        self._flags: dict = {}

    @staticmethod
    def invert_levels(levels: np.ndarray) -> np.ndarray:
        """MLC inversion: complement both bits (level -> 3 - level)."""
        return (3 - levels.astype(np.int16)).astype(np.uint8)

    def encode(
        self, line_addr: int, old_data: np.ndarray, new_data: np.ndarray
    ) -> FlipResult:
        """Choose per-block polarities minimizing cell changes.

        ``old_data``/``new_data`` are the *logical* byte contents; the
        stored array holds each block in its current polarity.
        """
        old_levels = bytes_to_levels(
            np.asarray(old_data, np.uint8), 2
        ).reshape(self.n_blocks, self.block_cells)
        new_levels = bytes_to_levels(
            np.asarray(new_data, np.uint8), 2
        ).reshape(self.n_blocks, self.block_cells)
        flags = self._flags.get(
            line_addr, np.zeros(self.n_blocks, dtype=bool)
        )

        stored = np.where(
            flags[:, None], self.invert_levels(old_levels), old_levels
        )
        plain_changes = int((old_levels != new_levels).sum())

        cost_straight = (stored != new_levels).sum(axis=1)
        cost_flipped = (stored != self.invert_levels(new_levels)).sum(axis=1)
        # A polarity change also rewrites the block's flag cell: +1.
        cost_straight = cost_straight + (flags != False)  # noqa: E712
        cost_flipped = cost_flipped + (flags != True)  # noqa: E712

        new_flags = cost_flipped < cost_straight
        target = np.where(
            new_flags[:, None], self.invert_levels(new_levels), new_levels
        )
        changed = np.flatnonzero((stored != target).reshape(-1))
        flag_changes = int((new_flags != flags).sum())
        self._flags[line_addr] = new_flags
        return FlipResult(
            changed_idx=changed,
            flip_flags=new_flags,
            plain_changes=plain_changes,
            flag_changes=flag_changes,
        )


def flip_savings_sample(
    old_block: np.ndarray,
    new_block: np.ndarray,
    bits_per_cell: int = 2,
    block_cells: int = DEFAULT_BLOCK_CELLS,
) -> Tuple[float, float]:
    """One-shot helper: (plain changes, encoded changes) per line for a
    batch of line pairs — used to quantify the paper's 'limited benefit
    for MLC' remark without the stateful encoder."""
    if old_block.ndim != 2:
        raise ConfigError("expected (n_lines, line_bytes) arrays")
    plain = 0
    encoded = 0
    n_cells = old_block.shape[1] * 8 // bits_per_cell
    enc = FlipNWrite(n_cells, block_cells)
    for i in range(old_block.shape[0]):
        result = enc.encode(i, old_block[i], new_block[i])
        plain += result.plain_changes
        encoded += result.encoded_changes
    n = max(1, old_block.shape[0])
    return plain / n, encoded / n
