"""Synthetic workloads and line-content models."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.errors import TraceError
from repro.pcm.cells import changed_cells
from repro.pcm.mapping import make_mapping
from repro.rng import make_rng
from repro.trace.synthetic import (
    AstarWorkload,
    BwavesWorkload,
    McfWorkload,
    MummerWorkload,
    QsortWorkload,
    StreamCopy,
    XalancWorkload,
)
from repro.trace.synthetic.base import BatchedRandom
from repro.trace.synthetic.data import make_line_block, make_line_pair
from repro.trace.workloads import (
    ALL_WORKLOADS,
    available_workloads,
    get_workload,
)

BENCHES = [
    AstarWorkload, BwavesWorkload, McfWorkload, MummerWorkload,
    QsortWorkload, StreamCopy, XalancWorkload,
]


class TestBatchedRandom:
    def test_uniform_range(self):
        rnd = BatchedRandom(make_rng(1, "t"), size=64)
        values = [rnd.random() for _ in range(500)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_integers_range(self):
        rnd = BatchedRandom(make_rng(1, "t"))
        values = [rnd.integers(3, 9) for _ in range(500)]
        assert set(values) <= set(range(3, 9))

    def test_geometric_gap_mean(self):
        rnd = BatchedRandom(make_rng(1, "t"))
        gaps = [rnd.geometric_gap(4.0) for _ in range(20_000)]
        assert 3.5 < np.mean(gaps) < 4.5
        assert min(gaps) >= 1

    def test_gap_of_one(self):
        rnd = BatchedRandom(make_rng(1, "t"))
        assert rnd.geometric_gap(1.0) == 1


class TestWorkloadStreams:
    @pytest.mark.parametrize("bench_cls", BENCHES)
    def test_refs_in_footprint(self, bench_cls):
        bench = bench_cls()
        base = 1 << 40
        refs = itertools.islice(bench.refs(make_rng(1, "t"), base), 2000)
        for ref in refs:
            assert base <= ref.addr < base + bench.footprint_bytes
            assert ref.gap_instr >= 1
            if ref.is_write:
                assert 0 <= ref.value < 1 << 64
            else:
                assert ref.value is None

    @pytest.mark.parametrize("bench_cls", BENCHES)
    def test_deterministic(self, bench_cls):
        bench = bench_cls()

        def take():
            return [
                (r.addr, r.is_write, r.value)
                for r in itertools.islice(
                    bench.refs(make_rng(5, "t"), 0), 200
                )
            ]

        assert take() == take()

    def test_write_fractions_ordered(self):
        """tigr is read-dominated; mcf writes about half the time."""
        def write_frac(bench):
            refs = list(itertools.islice(bench.refs(make_rng(2, "t"), 0), 5000))
            return sum(r.is_write for r in refs) / len(refs)

        from repro.trace.synthetic import TigrWorkload
        assert write_frac(TigrWorkload()) < write_frac(McfWorkload())

    def test_stream_copy_is_sequential(self):
        bench = StreamCopy()
        reads = [
            r.addr for r in itertools.islice(bench.refs(make_rng(1, "t"), 0), 64)
            if not r.is_write
        ]
        assert all(b - a == 8 for a, b in zip(reads, reads[1:]))


class TestLineData:
    def test_block_shapes(self):
        rng = make_rng(1, "d")
        block = make_line_block("int", rng, 10, 256)
        assert block.shape == (10, 256)
        assert block.dtype == np.uint8

    def test_unknown_kind(self):
        with pytest.raises(TraceError):
            make_line_block("quantum", make_rng(1, "d"), 1, 256)
        with pytest.raises(TraceError):
            make_line_pair("quantum", make_rng(1, "d"), 1, 256)

    def test_pair_delta_is_partial(self):
        rng = make_rng(1, "d")
        old, new = make_line_pair("int", rng, 50, 256)
        changed = [
            changed_cells(old[i], new[i], 2).size for i in range(50)
        ]
        assert 0 < np.mean(changed) < 1024

    @pytest.mark.parametrize("kind,lo,hi", [
        ("int", 40, 300), ("fp", 150, 500), ("random", 100, 400),
    ])
    def test_pair_change_magnitudes(self, kind, lo, hi):
        rng = make_rng(2, "d")
        old, new = make_line_pair(kind, rng, 100, 256)
        mean = np.mean([
            changed_cells(old[i], new[i], 2).size for i in range(100)
        ])
        assert lo < mean < hi

    def test_int_changes_concentrate_under_vim(self):
        """Integer deltas churn low-order cells, which VIM piles onto
        the same chips (the weakness BIM fixes, Section 4.3)."""
        rng = make_rng(3, "d")
        old, new = make_line_pair("int", rng, 100, 256)
        vim = make_mapping("vim", 1024, 8)
        bim = make_mapping("bim", 1024, 8)
        vim_max = bim_max = 0.0
        for i in range(100):
            idx = changed_cells(old[i], new[i], 2)
            if idx.size:
                vim_max += vim.counts_by_chip(idx).max()
                bim_max += bim.counts_by_chip(idx).max()
        assert bim_max < vim_max

    def test_clustered_changes_concentrate_under_naive(self):
        rng = make_rng(4, "d")
        old, new = make_line_pair("random", rng, 100, 256)
        naive = make_mapping("naive", 1024, 8)
        bim = make_mapping("bim", 1024, 8)
        naive_max = bim_max = 0.0
        for i in range(100):
            idx = changed_cells(old[i], new[i], 2)
            if idx.size:
                naive_max += naive.counts_by_chip(idx).max()
                bim_max += bim.counts_by_chip(idx).max()
        assert bim_max < naive_max

    def test_empty_pair(self):
        old, new = make_line_pair("fp", make_rng(1, "d"), 0, 256)
        assert old.shape == (0, 256) and new.shape == (0, 256)

    #: sha256 of (old, new) and of the generator's next draws, for 37
    #: rows (a multiple of no kind's cluster). Every golden trace's
    #: prewarm contents come from this function, so any change to its
    #: bytes or to the draws it consumes fails here first.
    PAIR_DIGESTS = {
        "int": ("6725860b226e57c4e620c6591b7a8eb1e144d61b15c1c0c8be62783196fc89a1",
                "33f5c376423f28154aa30b56a62f7389228131d7e6e4d666e9b5761c2998279a"),
        "fp": ("27e9295dfe6cc6c5824f1c119ce2e8af04dd1e01f5bb0aa9f41573717297b7b4",
               "3f280aaab41c15a470ea0ace23c4e843fc2ed9fbae548dd15cbed40eede701bf"),
        "random": ("40b3b695fa3f69d3358cf8c7241b1809710c2c1ce905cc710952824643a9b66e",
                   "81faee8a24225df37e6b9f3db6b278fb11d1e017c1f7dc8947aa59934dac50ce"),
    }

    @pytest.mark.parametrize("kind", sorted(PAIR_DIGESTS))
    def test_pair_bytes_and_rng_stream_pinned(self, kind):
        rng = make_rng(14, "line-pair", kind)
        old, new = make_line_pair(kind, rng, 37, 256)
        following = (rng.integers(0, 1 << 32, size=3, dtype=np.uint32),
                     rng.random(3))
        assert (_digest(old, new), _digest(*following)) \
            == self.PAIR_DIGESTS[kind]


def _digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestWorkloadRegistry:
    def test_fourteen_workloads(self):
        assert len(available_workloads()) == 13 or len(available_workloads()) == 14

    def test_table2_targets(self):
        assert get_workload("mcf_m").table_rpki == 4.74
        assert get_workload("mum_m").table_wpki == 4.16

    def test_mixes_are_heterogeneous(self):
        spec = get_workload("mix_1")
        names = {type(b).__name__ for b in spec.instantiate()}
        assert len(names) == 4

    def test_homogeneous_eight_cores(self):
        spec = get_workload("lbm_m")
        benches = spec.instantiate()
        assert len(benches) == 8
        assert len({type(b) for b in benches}) == 1

    def test_unknown_workload(self):
        with pytest.raises(TraceError):
            get_workload("doom_m")

    def test_all_workloads_order(self):
        assert ALL_WORKLOADS[0] == "ast_m"
        assert "mix_3" in ALL_WORKLOADS
