"""Property tests: Flip-N-Write invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm.flipnwrite import FlipNWrite

line_pairs = st.tuples(
    st.binary(min_size=64, max_size=64), st.binary(min_size=64, max_size=64)
)


class TestFlipNWriteProperties:
    @given(pair=line_pairs)
    @settings(max_examples=60)
    def test_never_much_worse_than_plain(self, pair):
        old = np.frombuffer(pair[0], dtype=np.uint8)
        new = np.frombuffer(pair[1], dtype=np.uint8)
        enc = FlipNWrite(256, 32)
        result = enc.encode(0, old, new)
        assert result.encoded_changes <= result.plain_changes + enc.n_blocks

    @given(blocks=st.lists(st.sampled_from([0x00, 0xFF]),
                           min_size=64, max_size=64))
    @settings(max_examples=60)
    def test_half_bound_holds_for_slc_like_data(self, blocks):
        """For SLC-like data (only levels 0 and 3, which are each
        other's complements) the classic Flip-N-Write half-bound holds:
        a cell differs from either the target or its inverse, never
        both. For general MLC levels it does NOT — a cell can differ
        from both polarities — which is exactly the paper's 'limited
        benefit for MLC PCM' observation (Section 7)."""
        new = np.array(blocks, dtype=np.uint8)
        old = np.zeros(64, dtype=np.uint8)
        enc = FlipNWrite(256, 32)
        result = enc.encode(0, old, new)
        per_block_cap = 32 // 2
        assert result.changed_idx.size <= enc.n_blocks * per_block_cap

    def test_mlc_can_exceed_half_bound(self):
        """Witness for the MLC limitation: intermediate levels defeat
        inversion, so even the better polarity changes > half a block."""
        # old all level 1 (0b01010101 bytes); new all level 0.
        old = np.full(64, 0b01010101, dtype=np.uint8)
        new = np.zeros(64, dtype=np.uint8)
        enc = FlipNWrite(256, 32)
        result = enc.encode(0, old, new)
        assert result.changed_idx.size > enc.n_cells // 2

    @given(data=st.binary(min_size=64, max_size=64))
    @settings(max_examples=40)
    def test_idempotent_rewrite(self, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        enc = FlipNWrite(256, 32)
        enc.encode(0, np.zeros(64, dtype=np.uint8), arr)
        result = enc.encode(0, arr, arr.copy())
        assert result.encoded_changes == 0
