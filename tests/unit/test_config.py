"""Configuration dataclasses and Table 1 presets."""

import pytest

from repro.config import (
    baseline_config,
    rdopt_config,
    slc_config,
)
from repro.config.system import (
    CacheLevelConfig,
    CPUConfig,
    PCMConfig,
    PowerConfig,
    SchedulerConfig,
    WriteLevelModel,
)
from repro.errors import ConfigError


class TestBaselineConfig:
    """Table 1 values must be echoed exactly."""

    def test_cpu(self):
        cfg = baseline_config()
        assert cfg.cpu.cores == 8
        assert cfg.cpu.freq_ghz == 4.0

    def test_llc(self):
        cfg = baseline_config()
        assert cfg.caches.l3.size_bytes == 32 * 1024 * 1024
        assert cfg.caches.l3.line_size == 256
        assert cfg.caches.l3.assoc == 8

    def test_pcm_latencies(self):
        cfg = baseline_config()
        assert cfg.pcm.read_cycles(4.0) == 1000
        assert cfg.pcm.reset_cycles(4.0) == 500
        assert cfg.pcm.set_cycles(4.0) == 1000

    def test_pcm_powers(self):
        cfg = baseline_config()
        assert cfg.pcm.reset_power_uw == 480.0
        assert cfg.pcm.set_power_uw == 90.0
        assert cfg.pcm.reset_set_power_ratio == pytest.approx(16 / 3)

    def test_write_model_means(self):
        cfg = baseline_config()
        means = [m.mean_iterations for m in cfg.pcm.level_models]
        assert means == [1.0, 8.0, 6.0, 2.0]  # '00', '01', '10', '11'

    def test_power_budget(self):
        cfg = baseline_config()
        assert cfg.power.dimm_tokens == 560.0
        assert cfg.power.lcp_efficiency == 0.95
        # Eq. 4: PT_LCP = 560 * 0.95 / 8.
        assert cfg.power.lcp_tokens(8) == pytest.approx(66.5)

    def test_queues(self):
        cfg = baseline_config()
        assert cfg.scheduler.read_queue_entries == 24
        assert cfg.scheduler.write_queue_entries == 24

    def test_cells_per_line(self):
        assert baseline_config().cells_per_line == 1024

    def test_memory_geometry(self):
        cfg = baseline_config()
        assert cfg.memory.n_chips == 8
        assert cfg.memory.n_banks == 8
        assert cfg.memory.capacity_bytes == 4 * 1024 ** 3


class TestDerivedConfigs:
    def test_with_line_size(self):
        cfg = baseline_config().with_line_size(64)
        assert cfg.memory.line_size == 64
        assert cfg.caches.l3.line_size == 64
        assert cfg.cells_per_line == 256

    def test_with_llc_size(self):
        cfg = baseline_config().with_llc_size(8 * 1024 * 1024)
        assert cfg.caches.l3.size_bytes == 8 * 1024 * 1024

    def test_with_write_queue(self):
        cfg = baseline_config().with_write_queue(96)
        assert cfg.scheduler.write_queue_entries == 96

    def test_with_dimm_tokens(self):
        cfg = baseline_config().with_dimm_tokens(466)
        assert cfg.power.dimm_tokens == 466

    def test_with_mapping(self):
        cfg = baseline_config().with_mapping("bim")
        assert cfg.cell_mapping == "bim"

    def test_slc_config(self):
        cfg = slc_config()
        assert cfg.pcm.bits_per_cell == 1
        assert cfg.cells_per_line == 2048

    def test_rdopt_config(self):
        cfg = rdopt_config()
        assert cfg.scheduler.write_cancellation
        assert cfg.scheduler.write_pausing
        assert cfg.scheduler.write_truncation
        assert cfg.scheduler.write_queue_entries == 320


class TestValidation:
    def test_line_size_mismatch_rejected(self):
        from dataclasses import replace
        cfg = baseline_config()
        with pytest.raises(ConfigError):
            replace(cfg, memory=replace(cfg.memory, line_size=64))

    def test_bad_cache_geometry(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(1000, 3, 64, 2)

    def test_zero_cores(self):
        with pytest.raises(ConfigError):
            CPUConfig(cores=0)

    def test_gcp_output_scales_with_efficiency(self):
        # Input-power-equal to one LCP: output = (560/8) * E_GCP.
        power = PowerConfig(gcp_efficiency=0.5)
        assert power.gcp_output_tokens(8) == pytest.approx(35.0)
        power95 = PowerConfig(gcp_efficiency=0.95)
        assert power95.gcp_output_tokens(8) == pytest.approx(66.5)

    def test_gcp_output_override(self):
        power = PowerConfig(gcp_max_output_tokens=42.0)
        assert power.gcp_output_tokens(8) == 42.0

    def test_bad_efficiency(self):
        with pytest.raises(ConfigError):
            PowerConfig(lcp_efficiency=1.5)

    def test_pausing_requires_cancellation(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(write_pausing=True, write_cancellation=False)

    def test_level_model_count(self):
        with pytest.raises(ConfigError):
            PCMConfig(level_models=(WriteLevelModel(1.0, max_iterations=1),))

    def test_level_model_mean_bounds(self):
        with pytest.raises(ConfigError):
            WriteLevelModel(mean_iterations=0.5)
        with pytest.raises(ConfigError):
            WriteLevelModel(mean_iterations=20.0, max_iterations=16)
