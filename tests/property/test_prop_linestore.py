"""Property tests: the LineStore contract.

Random interleavings of :meth:`LineStore.write`, :meth:`write_rows` and
:meth:`write_bytes` must leave the store indistinguishable from a plain
dict of line bytes written in the same order: the later write wins
(including a repeated address within one block), unwritten lines read
as zeros, spans may cross lines, and neither a block the caller keeps
mutating nor a line returned by ``read`` aliases the store.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm.contents import LineStore

LINE = 16
#: Few enough lines that writes collide often.
N_LINES = 6

line_addrs = st.integers(0, N_LINES - 1).map(lambda i: i * LINE)
line_bytes = st.binary(min_size=LINE, max_size=LINE)

write_op = st.tuples(st.just("write"), line_addrs, line_bytes)
rows_op = st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just("write_rows"),
    st.lists(line_addrs, min_size=n, max_size=n),
    st.lists(line_bytes, min_size=n, max_size=n),
))
bytes_op = st.tuples(
    st.just("write_bytes"),
    st.integers(0, N_LINES * LINE - 1),
    st.binary(min_size=1, max_size=3 * LINE),
)
ops = st.lists(st.one_of(write_op, rows_op, bytes_op), max_size=25)


def apply(store, oracle, op):
    """Apply ``op`` to both; return the block a bulk write used."""
    kind, addr, data = op
    if kind == "write":
        store.write(addr, np.frombuffer(data, dtype=np.uint8))
        oracle[addr] = data
    elif kind == "write_rows":
        block = np.frombuffer(b"".join(data), dtype=np.uint8)
        block = block.reshape(len(data), LINE).copy()
        store.write_rows(np.array(addr, dtype=np.int64), block)
        for line_addr, row in zip(addr, data):
            oracle[line_addr] = row
        return block
    else:
        for pos, value in enumerate(data):
            line_addr = (addr + pos) // LINE * LINE
            line = bytearray(oracle.get(line_addr, bytes(LINE)))
            line[(addr + pos) % LINE] = value
            oracle[line_addr] = bytes(line)
        store.write_bytes(addr, data)
    return None


def assert_matches(store, oracle):
    assert len(store) == len(oracle)
    assert list(store.addresses()) == sorted(oracle)
    for line_addr in range(0, (N_LINES + 1) * LINE, LINE):
        assert (line_addr in store) == (line_addr in oracle)
        line = store.read(line_addr)
        assert line.dtype == np.uint8 and line.shape == (LINE,)
        assert line.tobytes() == oracle.get(line_addr, bytes(LINE))


class TestLineStoreContract:
    @given(ops=ops)
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle_after_every_step(self, ops):
        store, oracle = LineStore(LINE), {}
        for op in ops:
            block = apply(store, oracle, op)
            assert_matches(store, oracle)
            if block is not None:
                block ^= 0xFF  # the caller reuses its buffer
                assert_matches(store, oracle)

    @given(ops=ops, line=st.integers(0, N_LINES - 1))
    @settings(max_examples=50, deadline=None)
    def test_read_returns_a_copy(self, ops, line):
        store, oracle = LineStore(LINE), {}
        for op in ops:
            apply(store, oracle, op)
        store.read(line * LINE)[:] ^= 0xFF
        assert_matches(store, oracle)
