"""Sparse PCM line-content store.

A 4 GB PCM image cannot be held densely in memory, but only lines that
are actually written need storage. Unwritten lines read as all zeros
(the paper's examples assume "the memory initially contains all 0s",
Section 2.1.3).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import TraceError


class LineStore:
    """Maps line-aligned addresses to their current byte contents.

    Lines written one at a time (:meth:`write`, :meth:`write_bytes`)
    get an array each. A bulk :meth:`write_rows` keeps its block whole
    instead, behind a sorted address index, and a row gets an array of
    its own only when :meth:`write_bytes` first touches it, the way
    :meth:`~repro.cache.set_assoc.SetAssocCache.prefill` keeps L3 tags.
    The L3 prewarm installs ~24k rows per core this way, and a trace
    reads back a few hundred of them.
    """

    def __init__(self, line_size: int):
        if line_size <= 0:
            raise TraceError(f"line size must be positive, got {line_size}")
        self.line_size = line_size
        #: Lines with an array of their own. Each is newer than any
        #: block row at its address (``write_rows`` drops the ones it
        #: overwrites).
        self._lines: Dict[int, np.ndarray] = {}
        #: Bulk-written blocks, oldest first: (ascending distinct
        #: addresses, the row of each).
        self._blocks: List[Tuple[np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return self._addresses().size

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._lines or self._row(line_addr) is not None

    def addresses(self) -> Iterator[int]:
        """Every stored line address once, in ascending order."""
        return iter(self._addresses().tolist())

    def _addresses(self) -> np.ndarray:
        held = np.fromiter(self._lines, dtype=np.int64, count=len(self._lines))
        return np.unique(np.concatenate([held] + [a for a, _ in self._blocks]))

    def _row(self, line_addr: int) -> Optional[np.ndarray]:
        """A view of the newest bulk-written row at ``line_addr``, if any."""
        for addrs, rows in reversed(self._blocks):
            i = int(addrs.searchsorted(line_addr))
            if i < addrs.size and addrs[i] == line_addr:
                return rows[i]
        return None

    def _check_aligned(self, line_addr: int) -> None:
        if line_addr % self.line_size:
            raise TraceError(
                f"address {line_addr:#x} is not {self.line_size}-byte aligned"
            )

    def read(self, line_addr: int) -> np.ndarray:
        """Current contents of a line (zeros if never written).

        Returns a copy; mutating it does not affect the store.
        """
        self._check_aligned(line_addr)
        line = self._lines.get(line_addr)
        if line is None:
            line = self._row(line_addr)
            if line is None:
                return np.zeros(self.line_size, dtype=np.uint8)
        return line.copy()

    def write(self, line_addr: int, data: np.ndarray) -> None:
        """Replace the contents of a line."""
        self._check_aligned(line_addr)
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.line_size:
            raise TraceError(
                f"line data must be {self.line_size} bytes, got {data.size}"
            )
        self._lines[line_addr] = data.copy()

    def write_rows(self, line_addrs: np.ndarray, block: np.ndarray) -> None:
        """Bulk write: row ``i`` of ``block`` becomes line ``addrs[i]``.

        Equivalent to calling :meth:`write` once per row in order (a
        repeated address keeps the later row). The store keeps its own
        copy of the rows, so the caller may reuse the block.
        """
        block = np.atleast_2d(np.asarray(block, dtype=np.uint8))
        addrs = np.asarray(line_addrs, dtype=np.int64)
        if (block.ndim != 2 or block.shape[0] != addrs.size
                or block.shape[1] != self.line_size):
            raise TraceError(
                f"block must be {addrs.size} x {self.line_size} bytes, "
                f"got {block.shape}"
            )
        if not addrs.size:
            return
        if (addrs % self.line_size).any():
            raise TraceError(
                f"addresses must be {self.line_size}-byte aligned"
            )
        # Index by address; of a repeated address keep the highest
        # (latest) row.
        order = addrs.argsort()
        keys = addrs[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        rows = block[np.maximum.reduceat(order, starts)]
        keys = keys[starts]
        if self._lines:
            held = np.fromiter(self._lines, dtype=np.int64,
                               count=len(self._lines))
            at = keys.searchsorted(held).clip(max=keys.size - 1)
            for addr in held[keys[at] == held].tolist():
                del self._lines[addr]
        self._blocks.append((keys, rows))

    def write_bytes(self, addr: int, payload: bytes) -> None:
        """Write an arbitrary (possibly unaligned) byte span."""
        data = np.frombuffer(payload, dtype=np.uint8)
        pos = 0
        while pos < data.size:
            line_addr = (addr + pos) // self.line_size * self.line_size
            line_off = (addr + pos) - line_addr
            n = min(self.line_size - line_off, data.size - pos)
            line = self._lines.get(line_addr)
            if line is None:
                row = self._row(line_addr)
                line = (np.zeros(self.line_size, dtype=np.uint8)
                        if row is None else row.copy())
                self._lines[line_addr] = line
            line[line_off:line_off + n] = data[pos:pos + n]
            pos += n
