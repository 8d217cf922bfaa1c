"""Property tests: line-content models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm.cells import changed_cells
from repro.rng import make_rng
from repro.trace.synthetic.data import (
    _DELTA_MODELS,
    LINE_KINDS,
    make_line_block,
    make_line_pair,
)


class TestLineModelProperties:
    @given(
        kind=st.sampled_from(LINE_KINDS),
        seed=st.integers(0, 500),
        n=st.integers(1, 16),
    )
    @settings(max_examples=40)
    def test_block_shape_and_dtype(self, kind, seed, n):
        block = make_line_block(kind, make_rng(seed, "p"), n, 256)
        assert block.shape == (n, 256)
        assert block.dtype == np.uint8

    @given(kind=st.sampled_from(LINE_KINDS), seed=st.integers(0, 500))
    @settings(max_examples=40)
    def test_pair_changes_bounded(self, kind, seed):
        old, new = make_line_pair(kind, make_rng(seed, "p"), 8, 256)
        for i in range(8):
            n_changed = changed_cells(old[i], new[i], 2).size
            assert 0 <= n_changed <= 1024

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30)
    def test_pair_deterministic_per_seed(self, seed):
        a = make_line_pair("int", make_rng(seed, "p"), 4, 256)
        b = make_line_pair("int", make_rng(seed, "p"), 4, 256)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    @given(kind=st.sampled_from(LINE_KINDS), seed=st.integers(0, 500))
    @settings(max_examples=30)
    def test_new_version_differs_from_old(self, kind, seed):
        old, new = make_line_pair(kind, make_rng(seed, "p"), 16, 256)
        total = sum(
            changed_cells(old[i], new[i], 2).size for i in range(16)
        )
        assert total > 0  # writes change something, in aggregate

    @given(
        kind=st.sampled_from(LINE_KINDS),
        seed=st.integers(0, 500),
        n=st.integers(1, 40),
        line_size=st.sampled_from((64, 128, 256)),
    )
    @settings(max_examples=60)
    def test_pair_matches_byte_mask_reference(self, kind, seed, n, line_size):
        rng, ref_rng = make_rng(seed, "p"), make_rng(seed, "p")
        old, new = make_line_pair(kind, rng, n, line_size)
        ref_old, ref_new = _reference_line_pair(kind, ref_rng, n, line_size)
        assert np.array_equal(old, ref_old) and np.array_equal(new, ref_new)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _reference_line_pair(kind, rng, n_lines, line_size):
    """``make_line_pair`` in its byte-mask form: one boolean per byte,
    scattered with fancy indexing, and a uint8 draw of fresh bytes. The
    word-masked version must return the same bytes and leave the
    generator in the same state."""
    model = _DELTA_MODELS[kind]
    shape = (n_lines, line_size // 8)
    if kind == "int":
        small = rng.integers(0, 1 << 20, size=shape, dtype=np.uint64)
        pointers = rng.integers(0x7F00_0000_0000, 0x7FFF_FFFF_FFFF,
                                size=shape, dtype=np.uint64) << 4
        words = np.where(rng.random(shape) < 0.25, pointers, small)
    elif kind == "fp":
        words = (0.5 + 1.5 * rng.random(shape)).view(np.uint64)
    else:
        words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    zero_frac = {"int": 0.30, "fp": 0.35, "random": 0.50}[kind]
    words[rng.random(shape) < zero_frac] = 0
    old = words.view(np.uint8).reshape(n_lines, line_size)

    n_units = line_size // model["unit"]
    cluster = max(1, min(model["cluster"], n_units))
    blocks = rng.random((n_lines, n_units // cluster + 2)) < model["density"]
    shift = rng.integers(0, cluster, size=n_lines)
    block_of_unit = (np.arange(n_units)[None, :] + shift[:, None]) // cluster
    touched = np.take_along_axis(blocks, block_of_unit, axis=1)
    pattern = np.asarray(model["pattern"], dtype=bool)
    byte_mask = touched[:, :, None] & pattern[None, None, :]
    if model["full_frac"]:
        full = touched & (rng.random(touched.shape) < model["full_frac"])
        byte_mask |= full[:, :, None]
    byte_mask = byte_mask.reshape(n_lines, line_size)
    new = old.copy()
    fresh = rng.integers(0, 256, size=(n_lines, line_size), dtype=np.uint8)
    new[byte_mask] = fresh[byte_mask]
    return old, new
