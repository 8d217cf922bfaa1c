"""Per-benchmark line-content models.

Most PCM writes observed in a finite window are *first* writes to their
PCM line, so the cell-change count and its distribution across chips are
set by the line's byte content (diffed against the all-zero PCM array).
These fabricators give each benchmark class a plausible resident-line
content:

* ``int``  — arrays of small integers and pointers: the low-order bytes
  of each word carry data while high bytes are often zero, reproducing
  the "lower-order bits are more likely to change" behaviour that makes
  naive/VIM mappings concentrate changes in a chip (Section 4.3).
* ``fp``   — double-precision values near 1.0: sign/exponent and high
  mantissa bytes are all populated, spreading changes across the word.
* ``random`` — text/genome payloads: uniformly random bytes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ...errors import TraceError

LINE_KINDS = ("int", "fp", "random")


def make_line_block(
    kind: str, rng: np.random.Generator, n_lines: int, line_size: int
) -> np.ndarray:
    """Fabricate ``n_lines`` lines of plausible content, shape
    ``(n_lines, line_size)`` uint8."""
    if line_size % 8:
        raise TraceError(f"line size {line_size} is not a whole word count")
    if n_lines <= 0:
        return np.zeros((0, line_size), dtype=np.uint8)
    words_per_line = line_size // 8
    shape = (n_lines, words_per_line)
    if kind == "int":
        words = _int_words(rng, shape)
    elif kind == "fp":
        words = _fp_words(rng, shape)
    elif kind == "random":
        words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    else:
        raise TraceError(f"unknown line kind {kind!r}; use one of {LINE_KINDS}")
    # Leave a fraction of words zero (never-initialized slack).
    zero_frac = {"int": 0.30, "fp": 0.35, "random": 0.50}[kind]
    words *= rng.random(shape) >= zero_frac
    return words.view(np.uint8).reshape(n_lines, line_size)


#: Per-kind steady-state write-increment model (Section 4.3's data
#: observations). ``unit`` is the value granularity in bytes, ``pattern``
#: which bytes of a touched unit change (little-endian: byte 0 holds the
#: lowest-order bits -> the lowest-order cells), ``cluster`` how many
#: units a modification run covers (struct updates / stencil fronts are
#: spatially clustered, which is what concentrates changes in one chip
#: under the naive mapping), ``density`` the fraction of units touched,
#: and ``full_frac`` the fraction of touched units rewritten entirely
#: (pointer stores, fresh payloads).
_DELTA_MODELS = {
    # 32-bit integers: the low-order byte churns (counters, indices).
    "int": dict(unit=4, pattern=(1, 0, 0, 0), cluster=16, density=0.40,
                full_frac=0.20),
    # Doubles: sign/exponent stable, low five mantissa bytes churn.
    "fp": dict(unit=8, pattern=(1, 1, 1, 1, 1, 0, 0, 0), cluster=4,
               density=0.55, full_frac=0.05),
    # Text/genome payloads: whole values replaced, in sequential runs.
    "random": dict(unit=8, pattern=(1, 1, 1, 1, 1, 1, 1, 1), cluster=2,
                   density=0.28, full_frac=0.0),
}


def _clustered_mask(
    rng: np.random.Generator, n_lines: int, n_units: int,
    cluster: int, density: float,
) -> np.ndarray:
    """Touched-unit mask where modifications come in aligned runs of
    ``cluster`` units, with a per-line random phase.

    Unit ``u`` of line ``i`` belongs to block ``(u + shift[i]) //
    cluster``: repeating each block ``cluster`` times lays the blocks
    out unit by unit, and line ``i``'s mask is the ``n_units`` window
    of that row starting at ``shift[i]``.
    """
    cluster = max(1, min(cluster, n_units))
    n_blocks = n_units // cluster + 2
    block_touched = rng.random((n_lines, n_blocks)) < density
    shift = rng.integers(0, cluster, size=n_lines)
    per_unit = np.repeat(block_touched, cluster, axis=1)
    windows = sliding_window_view(per_unit, n_units, axis=1)
    return windows[np.arange(n_lines), shift]


def make_line_pair(
    kind: str, rng: np.random.Generator, n_lines: int, line_size: int
) -> "tuple[np.ndarray, np.ndarray]":
    """An (old, new) version pair for each line.

    ``old`` is what the PCM array last stored; ``new`` is the dirty
    cached copy about to be written back. The delta between them models
    each benchmark's steady-state write increment and its *spatial*
    structure, which determines per-chip imbalance: integer code updates
    the low-order bytes of clustered 32-bit words (struct fields), FP
    sweeps rewrite mantissas of runs of doubles, random payloads replace
    whole values sequentially.

    Bytes are selected a unit at a time: each unit's mask is a word
    over the little-endian unit view (``<u4`` / ``<u8``), so pattern
    byte ``j`` is bits ``8j .. 8j+7`` on any host.
    """
    try:
        model = _DELTA_MODELS[kind]
    except KeyError:
        raise TraceError(
            f"unknown line kind {kind!r}; use one of {LINE_KINDS}"
        ) from None
    old = make_line_block(kind, rng, n_lines, line_size)
    if n_lines == 0:
        return old, old.copy()
    unit = np.dtype(f"<u{model['unit']}")
    touched = _clustered_mask(
        rng, n_lines, line_size // unit.itemsize, model["cluster"],
        model["density"],
    )
    pattern = sum(0xFF << 8 * j for j, on in enumerate(model["pattern"]) if on)
    mask = touched * unit.type(pattern)
    if model["full_frac"]:
        full = rng.random(touched.shape) < model["full_frac"]
        full &= touched
        mask |= full * unit.type(np.iinfo(unit).max)
    # Fresh bytes, drawn as little-endian uint32 words: the same
    # generator calls and bytes as a uint8 draw of the whole block.
    fresh = rng.integers(0, 1 << 32, size=n_lines * line_size // 4,
                         dtype=np.uint32).astype("<u4", copy=False)
    new = fresh.view(np.uint8).reshape(n_lines, line_size)
    # new = old where the mask is clear, fresh where it is set.
    old_units, new_units = old.view(unit), new.view(unit)
    new_units ^= old_units
    new_units &= mask
    new_units ^= old_units
    return old, new


def _int_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Small counters/indices (low bytes only) mixed with full pointers."""
    words = rng.integers(0, 1 << 20, size=shape, dtype=np.uint64)
    pointers = rng.integers(
        0x7F00_0000_0000, 0x7FFF_FFFF_FFFF, size=shape, dtype=np.uint64
    )
    pointers <<= 4
    # words += (pointers - words) where a word is a pointer (mod 2**64).
    pointers -= words
    pointers *= rng.random(shape) < 0.25
    words += pointers
    return words


def _fp_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Doubles in [0.5, 2): fully populated exponent + mantissa bytes."""
    values = rng.random(shape)
    values *= 1.5
    values += 0.5
    return values.view(np.uint64)
