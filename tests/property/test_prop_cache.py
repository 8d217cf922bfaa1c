"""Property tests: cache invariants under random access streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssocCache
from repro.config.system import CacheLevelConfig


def small_cache(assoc=2, sets=4, line=64):
    return SetAssocCache(
        CacheLevelConfig(assoc * sets * line, assoc, line, 1), "t"
    )


accesses = st.lists(
    st.tuples(st.integers(0, 64), st.booleans()),  # (line number, is_write)
    min_size=1, max_size=300,
)


class TestCacheProperties:
    @given(ops=accesses)
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, ops):
        cache = small_cache()
        for line, is_write in ops:
            cache.access(line * 64, is_write)
            for ways in cache._sets.values():
                assert len(ways) <= cache.assoc

    @given(ops=accesses)
    @settings(max_examples=60)
    def test_hits_plus_misses_equals_accesses(self, ops):
        cache = small_cache()
        for line, is_write in ops:
            cache.access(line * 64, is_write)
        assert cache.hits + cache.misses == len(ops)

    @given(ops=accesses)
    @settings(max_examples=60)
    def test_immediate_rereference_hits(self, ops):
        cache = small_cache()
        for line, is_write in ops:
            cache.access(line * 64, is_write)
            assert cache.access(line * 64, False).hit

    @given(ops=accesses)
    @settings(max_examples=60)
    def test_dirty_evictions_only_after_writes(self, ops):
        cache = small_cache(assoc=1, sets=2)
        writes_seen = 0
        for line, is_write in ops:
            writes_seen += is_write
            result = cache.access(line * 64, is_write)
            if result.victim_dirty:
                assert writes_seen > 0

    @given(ops=accesses)
    @settings(max_examples=40)
    def test_victim_not_resident(self, ops):
        cache = small_cache()
        for line, is_write in ops:
            result = cache.access(line * 64, is_write)
            if result.victim_addr is not None:
                assert not cache.contains(result.victim_addr)
