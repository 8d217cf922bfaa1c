"""Public API surface: every exported name resolves."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cache",
    "repro.config",
    "repro.core",
    "repro.core.policies",
    "repro.experiments",
    "repro.obs",
    "repro.pcm",
    "repro.power",
    "repro.sim",
    "repro.trace",
    "repro.trace.synthetic",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version():
    assert repro.__version__


def test_headline_api_shape():
    """The README quickstart snippet's names exist with the documented
    signatures."""
    config = repro.baseline_config()
    assert config.cpu.cores == 8
    assert callable(repro.run_schemes)
    assert callable(repro.run_simulation)
    assert "fpb" in repro.available_schemes()
    assert "lbm_m" in repro.available_workloads()
    assert "fig16" in repro.available_experiments()


def test_errors_hierarchy():
    for name in ("ConfigError", "TokenError", "TraceError",
                 "SimulationError", "SchedulingError", "MappingError",
                 "ExperimentError", "BudgetExceededError"):
        err = getattr(repro, name)
        assert issubclass(err, repro.ReproError)


def test_extension_modules_reachable():
    from repro.pcm import FlipNWrite, WearTracker
    for cls in (FlipNWrite, WearTracker):
        assert cls.__doc__
