"""Kernel registry, config plumbing and fingerprint semantics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.system import DEFAULT_KERNEL, KERNELS, config_fingerprint
from repro.errors import ConfigError
from repro.kernel import (
    Kernel,
    ReferenceKernel,
    VectorizedKernel,
    available_kernels,
    get_kernel,
)
from repro.pcm.write_model import IterationSampler
from repro.sim.runner import run_simulation

from ..conftest import make_tiny_config


class TestRegistry:
    def test_available_kernels(self):
        assert available_kernels() == ("reference", "vectorized")
        assert KERNELS == available_kernels()

    def test_lookup_by_name(self):
        assert isinstance(get_kernel("reference"), ReferenceKernel)
        assert isinstance(get_kernel("vectorized"), VectorizedKernel)
        assert get_kernel(None).name == DEFAULT_KERNEL

    def test_instance_passthrough(self):
        kernel = VectorizedKernel()
        assert get_kernel(kernel) is kernel

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError, match="reference"):
            get_kernel("bogus")

    def test_base_kernel_is_abstract(self):
        base = Kernel()
        with pytest.raises(NotImplementedError):
            base.sample_iterations((), np.array([]), None)
        with pytest.raises(NotImplementedError):
            base.plan(np.array([]), np.array([]), 1)


def other_kernel() -> str:
    """The kernel a default config does not run on."""
    (other,) = set(KERNELS) - {DEFAULT_KERNEL}
    return other


class TestConfigPlumbing:
    def test_default_is_vectorized(self):
        assert DEFAULT_KERNEL == "vectorized"
        assert make_tiny_config().kernel == DEFAULT_KERNEL

    def test_with_kernel(self):
        config = make_tiny_config().with_kernel(other_kernel())
        assert config.kernel == other_kernel()
        # ... and everything else is untouched.
        assert replace(config, kernel=DEFAULT_KERNEL) == make_tiny_config()

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigError, match="kernel"):
            make_tiny_config().with_kernel("scalar")

    def test_kernel_in_config_fingerprint(self):
        config = make_tiny_config()
        assert config_fingerprint(config) != config_fingerprint(
            config.with_kernel(other_kernel())
        )

    def test_sampler_takes_kernel(self):
        config = make_tiny_config()
        sampler = IterationSampler(config.pcm, kernel=other_kernel())
        assert sampler.kernel.name == other_kernel()
        assert IterationSampler(config.pcm).kernel.name == DEFAULT_KERNEL


class TestResultFingerprint:
    def test_excludes_config(self):
        """Two runs that simulated identically hash equal even when
        their configs differ (that is the point: cross-kernel and
        cross-cache-layout comparisons)."""
        result = run_simulation(
            make_tiny_config(), "tig_m", "dimm-only",
            n_pcm_writes=20, max_refs_per_core=4_000,
        )
        relabeled = replace(
            result, config=result.config.with_kernel(other_kernel())
        )
        assert result.result_fingerprint() == relabeled.result_fingerprint()

    def test_sensitive_to_outcome(self):
        result = run_simulation(
            make_tiny_config(), "tig_m", "dimm-only",
            n_pcm_writes=20, max_refs_per_core=4_000,
        )
        assert (
            replace(result, cycles=result.cycles + 1).result_fingerprint()
            != result.result_fingerprint()
        )
        assert (
            replace(result, scheme="other").result_fingerprint()
            != result.result_fingerprint()
        )
