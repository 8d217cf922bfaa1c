"""Run manifests and the harness logging setup."""

import dataclasses
import io
import json
import math
import sys
import threading

import pytest

from repro.obs.logging import get_logger, reset_logging, setup_logging
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestWriter,
    config_to_dict,
    read_manifest,
    run_header,
)

from ..conftest import make_tiny_config


class TestConfigToDict:
    def test_round_trips_system_config(self):
        config = make_tiny_config(seed=7)
        as_dict = config_to_dict(config)
        json.dumps(as_dict)  # must already be JSON-safe
        assert as_dict["seed"] == 7
        assert as_dict["cpu"]["cores"] == 2
        assert as_dict["power"]["dimm_tokens"] == 560.0
        assert as_dict["pcm"]["reset_power_uw"] > 0

    def test_non_finite_floats_become_null(self):
        @dataclasses.dataclass
        class Odd:
            a: float
            b: float
            c: float

        as_dict = config_to_dict(Odd(math.nan, math.inf, 1.5))
        assert as_dict == {"a": None, "b": None, "c": 1.5}

    def test_unknown_objects_fall_back_to_repr(self):
        assert config_to_dict({"x": {1, 2}}) == {"x": repr({1, 2})}


class TestManifestWriter:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.append({"type": "run_header", "seed": 3})
        writer.extend([{"type": "sim_run", "cpi": 2.5}])
        assert writer.records_written == 2
        records = read_manifest(path)
        assert records == [
            {"type": "run_header", "seed": 3},
            {"type": "sim_run", "cpi": 2.5},
        ]

    def test_appends_across_writers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ManifestWriter(path).append({"type": "a"})
        ManifestWriter(path).append({"type": "b"})
        assert [r["type"] for r in read_manifest(path)] == ["a", "b"]

    def test_rejects_untyped_records(self, tmp_path):
        writer = ManifestWriter(tmp_path / "m.jsonl")
        with pytest.raises(ValueError):
            writer.append({"seed": 1})

    def test_unwritable_path_fails_at_construction(self, tmp_path):
        """A path that cannot be appended to fails before any record,
        so a run does not do its work for a manifest it cannot write."""
        with pytest.raises(IsADirectoryError):
            ManifestWriter(tmp_path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.jsonl"
        ManifestWriter(path).append({"type": "a"})
        assert path.exists()

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """The gateway appends from its event loop and its dispatcher
        thread at once: every line must stay one whole record."""
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        threads, per_thread = 8, 200
        payload = "x" * 5_000  # larger than one buffered write

        def append(worker):
            for i in range(per_thread):
                writer.append({"type": "t", "worker": worker, "i": i,
                               "payload": payload})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=append, args=(n,))
                       for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        records = read_manifest(path)  # raises on a torn line
        assert len(records) == writer.records_written == threads * per_thread
        assert sorted((r["worker"], r["i"]) for r in records) == [
            (n, i) for n in range(threads) for i in range(per_thread)]

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "a"}\n\n{"type": "b"}\n')
        assert len(read_manifest(path)) == 2


class TestRunHeader:
    def test_header_fields(self):
        header = run_header(make_tiny_config(seed=9), scale="quick",
                           experiments=["fig16"])
        assert header["type"] == "run_header"
        assert header["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert header["seed"] == 9  # falls back to config.seed
        assert header["scale"] == "quick"
        assert header["experiments"] == ["fig16"]
        import repro

        assert header["repro_version"] == repro.__version__

    def test_explicit_seed_wins(self):
        header = run_header(make_tiny_config(seed=9), seed=4)
        assert header["seed"] == 4


class TestLogging:
    @pytest.fixture(autouse=True)
    def _clean_handlers(self):
        yield
        reset_logging()

    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("experiments").name == "repro.experiments"
        assert get_logger("repro.sim").name == "repro.sim"

    def test_default_verbosity_shows_info(self):
        stream = io.StringIO()
        setup_logging(0, stream=stream)
        log = get_logger("t")
        log.info("report line")
        log.debug("hidden detail")
        out = stream.getvalue()
        assert "report line" in out
        assert "hidden detail" not in out

    def test_quiet_suppresses_info_but_not_warnings(self):
        stream = io.StringIO()
        setup_logging(-1, stream=stream)
        log = get_logger("t")
        log.info("report line")
        log.warning("bad thing")
        out = stream.getvalue()
        assert "report line" not in out
        assert "WARNING: bad thing" in out

    def test_verbose_shows_debug(self):
        stream = io.StringIO()
        setup_logging(1, stream=stream)
        get_logger("t").debug("detail")
        assert "detail" in stream.getvalue()

    def test_info_lines_are_message_only(self):
        stream = io.StringIO()
        setup_logging(0, stream=stream)
        get_logger("t").info("plain")
        assert stream.getvalue() == "plain\n"

    def test_idempotent_reconfiguration(self):
        stream = io.StringIO()
        setup_logging(0, stream=stream)
        setup_logging(0, stream=stream)
        get_logger("t").info("once")
        assert stream.getvalue().count("once") == 1
