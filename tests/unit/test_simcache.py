"""On-disk result cache: integrity checking and invalidation.

Every failure mode an entry can have — truncation, bit-rot, a payload
stored under the wrong key, a schema-version bump, garbage bytes — must
be detected on load and turn into a miss (with the bad file deleted),
never a blindly-deserialized result.
"""

import hashlib
import pickle

from repro.sim import simcache
from repro.sim.runner import SimResult
from repro.sim.simcache import SIM_SCHEMA_VERSION, SimCache, run_fingerprint
from repro.sim.stats import SimStats

from ..conftest import make_tiny_config


def make_result(scheme: str = "fpb", cycles: int = 1000) -> SimResult:
    return SimResult(
        scheme=scheme,
        workload="tig_m",
        cycles=cycles,
        cpi=float(cycles) / 500.0,
        stats=SimStats(reads_done=5, writes_done=7),
        config=make_tiny_config(),
    )


def make_key(config, scheme: str = "fpb") -> str:
    return run_fingerprint(config, "tig_m", scheme,
                           n_pcm_writes=30, max_refs_per_core=8_000)


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        cache = SimCache(tmp_path / "cache")
        key = make_key(make_tiny_config())
        assert cache.get(key) is None
        cache.put(key, make_result())
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.scheme == "fpb"
        assert loaded.cycles == 1000
        assert loaded.stats.writes_done == 7
        assert loaded.config == make_tiny_config()
        assert cache.snapshot() == {
            "root": str(tmp_path / "cache"),
            "hits": 1, "misses": 1, "corrupt": 0, "stores": 1,
            "store_errors": 0,
        }

    def test_contains_and_len(self, tmp_path):
        cache = SimCache(tmp_path)
        key = make_key(make_tiny_config())
        assert key not in cache and len(cache) == 0
        cache.put(key, make_result())
        assert key in cache and len(cache) == 1

    def test_no_tempfile_leftovers(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.put(make_key(make_tiny_config()), make_result())
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_distinct_keys_distinct_entries(self, tmp_path):
        cache = SimCache(tmp_path)
        config = make_tiny_config()
        cache.put(make_key(config, "fpb"), make_result("fpb"))
        cache.put(make_key(config, "ideal"), make_result("ideal"))
        assert cache.get(make_key(config, "fpb")).scheme == "fpb"
        assert cache.get(make_key(config, "ideal")).scheme == "ideal"


class TestSealedLayout:
    def test_cache_entry_bytes(self, tmp_path):
        """The cache writes ``sha256(p) + p`` for a pickled record ``p``.
        Pinned byte for byte, so existing caches load."""
        def sealed(record):
            p = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            return hashlib.sha256(p).digest() + p, len(p)

        key = make_key(make_tiny_config())
        result = make_result()
        cache = SimCache(tmp_path / "cache")
        cache.put(key, result)
        entry, _ = sealed({"schema": SIM_SCHEMA_VERSION, "key": key,
                           "result": result})
        assert cache.path_for(key).read_bytes() == entry


class TestIntegrity:
    def store_one(self, tmp_path):
        cache = SimCache(tmp_path)
        key = make_key(make_tiny_config())
        cache.put(key, make_result())
        return cache, key, cache.path_for(key)

    def check_rejected(self, cache, key, path):
        """The entry must read back as a miss and be deleted."""
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_truncated_entry(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        self.check_rejected(cache, key, path)

    def test_truncated_below_digest_size(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(b"\x00" * 8)
        self.check_rejected(cache, key, path)

    def test_flipped_payload_byte(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        self.check_rejected(cache, key, path)

    def test_garbage_file(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(b"not a cache entry at all, but long enough " * 4)
        self.check_rejected(cache, key, path)

    def test_entry_stored_under_wrong_key(self, tmp_path):
        """A valid entry copied to another key's path must not alias."""
        cache, key, path = self.store_one(tmp_path)
        other = make_key(make_tiny_config(), "ideal")
        other_path = cache.path_for(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_bytes(path.read_bytes())
        assert cache.get(other) is None
        assert not other_path.exists()
        # the original is untouched
        assert cache.get(key) is not None

    def test_schema_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache, key, path = self.store_one(tmp_path)
        monkeypatch.setattr(simcache, "SIM_SCHEMA_VERSION",
                            SIM_SCHEMA_VERSION + 1)
        self.check_rejected(cache, key, path)

    def test_valid_digest_wrong_structure(self, tmp_path):
        """A well-checksummed file whose payload is not our record dict."""
        cache, key, path = self.store_one(tmp_path)
        payload = pickle.dumps(["unexpected", "structure"])
        import hashlib
        path.write_bytes(hashlib.sha256(payload).digest() + payload)
        self.check_rejected(cache, key, path)

    def test_recompute_after_corruption_restores_entry(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(b"junk")
        assert cache.get(key) is None
        cache.put(key, make_result(cycles=1000))
        assert cache.get(key).cycles == 1000


class TestContainsVerifies:
    """``key in cache`` verifies the payload digest, so membership and
    ``get()`` agree for truncated/bit-rotten/garbage entries — a planner
    probing membership never counts an unloadable entry as present."""

    def store_one(self, tmp_path):
        cache = SimCache(tmp_path)
        key = make_key(make_tiny_config())
        cache.put(key, make_result())
        return cache, key, cache.path_for(key)

    def test_flipped_byte_not_contained(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert key not in cache
        assert cache.get(key) is None  # membership and get() agree

    def test_truncated_entry_not_contained(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        assert key not in cache

    def test_below_digest_size_not_contained(self, tmp_path):
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(b"\x00" * 8)
        assert key not in cache

    def test_membership_probe_is_read_only(self, tmp_path):
        """Unlike get(), __contains__ neither deletes the bad entry nor
        moves any counter — it answers a question, nothing more."""
        cache, key, path = self.store_one(tmp_path)
        path.write_bytes(b"garbage that is long enough to check " * 2)
        before = cache.snapshot()
        assert key not in cache
        assert path.exists()
        assert cache.snapshot() == before


class TestBestEffortStores:
    """``put()`` is an accelerator, not a correctness dependency: an
    OSError is swallowed, counted, and the caller keeps its result."""

    def test_oserror_counted_not_raised(self, tmp_path):
        from repro.testing.faults import (
            FaultSpec, clear_faults, install_faults,
        )
        cache = SimCache(tmp_path)
        key = make_key(make_tiny_config())
        install_faults([FaultSpec(point="cache_put", error="OSError",
                                  times=1)])
        try:
            assert cache.put(key, make_result()) is False
        finally:
            clear_faults()
        assert cache.store_errors == 1
        assert cache.stores == 0
        assert key not in cache
        assert not list(tmp_path.glob("**/*.tmp"))
        # the disk recovered: the next store goes through
        assert cache.put(key, make_result()) is True
        assert cache.get(key) is not None
        assert cache.snapshot()["store_errors"] == 1
