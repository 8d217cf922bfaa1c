"""Golden-fingerprint conformance suite.

``tests/paper/golden_fingerprints.json`` pins the result fingerprint of
every run any registered experiment plans at quick scale, on both
kernels. These tests are the corpus's tier-1 gate:

* the envelope is well-formed and internally consistent;
* the corpus was generated at the ``SIM_SCHEMA_VERSION`` the code
  declares right now — any semantic change to simulation results must
  bump the version and regenerate, and the failure message says so;
* the set of runs experiments plan today still matches the corpus
  (planning only — no simulation);
* a small deterministic, experiment-diverse sample of entries is
  actually recomputed on every kernel and must match bit for bit.

The full 224-run × 2-kernel sweep is deliberately not tier-1: set
``REPRO_GOLDEN_FULL=1`` (CI's golden job, or ``python -m
repro.experiments golden --check``) to run it here too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config.system import config_fingerprint
from repro.experiments import cli, golden, registry
from repro.experiments.base import Experiment, ExperimentResult
from repro.kernel import available_kernels
from repro.sim.simcache import SIM_SCHEMA_VERSION

CORPUS_PATH = Path(__file__).parent / "golden_fingerprints.json"

#: Entries recomputed (on every kernel) in the tier-1 spot check.
SPOT_CHECKS = 3


@pytest.fixture(scope="module")
def corpus():
    return golden.load_corpus(CORPUS_PATH)


def test_corpus_envelope(corpus):
    assert corpus["format"] == golden.GOLDEN_FORMAT
    assert corpus["n_runs"] == len(corpus["runs"]) > 0
    # Both kernels must be pinned — the corpus is also the cross-kernel
    # byte-identity contract.
    assert set(corpus["kernels"]) == set(available_kernels())
    keys = [golden._entry_key(entry) for entry in corpus["runs"]]
    assert len(set(keys)) == len(keys), "duplicate corpus entries"
    for entry in corpus["runs"]:
        assert entry["experiments"], (
            f"{entry['workload']}/{entry['scheme']}: no owning experiment")
        assert set(entry["run_fingerprints"]) == set(corpus["kernels"])
        assert entry["result_fingerprint"]


def test_corpus_matches_declared_schema_version(corpus):
    """The drift tripwire: regenerating at a stale schema version (or
    changing results without bumping it) fails with the regenerate
    instruction."""
    golden.check_schema_version(corpus)
    stale = dict(corpus, sim_schema_version=SIM_SCHEMA_VERSION + 1)
    with pytest.raises(golden.GoldenMismatch,
                       match="bump SIM_SCHEMA_VERSION"):
        golden.check_schema_version(stale)


def test_corpus_is_valid_json_roundtrip():
    document = json.loads(CORPUS_PATH.read_text())
    assert document["sim_schema_version"] == SIM_SCHEMA_VERSION, (
        golden.REGENERATE_HINT)


def test_corpus_covers_current_plans(corpus):
    """Planning-only coverage check (no simulation): the runs the
    registered experiments plan today are exactly the corpus's runs."""
    planned = {
        (request.workload, request.scheme,
         config_fingerprint(request.config))
        for request, _exp_ids in golden.corpus_runs(
            golden.corpus_scale(corpus), seed=int(corpus["seed"]))
    }
    recorded = {golden._entry_key(entry) for entry in corpus["runs"]}
    missing = planned - recorded
    stale = recorded - planned
    assert not missing and not stale, (
        f"corpus out of date: {len(missing)} planned run(s) missing, "
        f"{len(stale)} stale entries. {golden.REGENERATE_HINT}")


def test_spot_checks_are_deterministic_and_diverse(corpus):
    first = golden.select_spot_checks(corpus, SPOT_CHECKS)
    second = golden.select_spot_checks(corpus, SPOT_CHECKS)
    assert first == second
    assert len(first) == SPOT_CHECKS
    owners = [frozenset(entry["experiments"]) for entry in first]
    for i, a in enumerate(owners):
        for b in owners[i + 1:]:
            assert not (a & b), "spot checks should spread experiments"


def test_spot_checks_cover_every_planning_experiment(corpus):
    """A sample as large as the number of experiments that plan runs
    covers each of them, counted by the experiments that plan each
    entry today, not the lists stored in the corpus."""
    planned = golden.corpus_runs(golden.corpus_scale(corpus),
                                 seed=int(corpus["seed"]))
    owners = {(request.workload, request.scheme,
               config_fingerprint(request.config)): exp_ids
              for request, exp_ids in planned}
    experiments = {exp_id for exp_ids in owners.values()
                   for exp_id in exp_ids}
    assert "tab3" in experiments
    sample = golden.select_spot_checks(corpus, len(experiments))
    covered = {exp_id for entry in sample
               for exp_id in owners[golden._entry_key(entry)]}
    assert covered == experiments


class _CannedFig10(Experiment):
    """Fig. 10 rendered from a canned mean burst residency: its shape
    check passes for residency in [0.2, 1.0]. Plans no runs."""

    exp_id = "fig10"
    burst_fraction = 0.5

    def render(self, config, scale, results):
        return ExperimentResult(
            exp_id=self.exp_id, title="canned",
            columns=["workload", "burst_fraction"],
            rows=[{"workload": "mean",
                   "burst_fraction": self.burst_fraction}])


@pytest.mark.parametrize("burst_fraction, exit_code", [(0.05, 1), (0.5, 0)])
def test_regeneration_writes_only_results_that_keep_the_claims(
        corpus, tmp_path, monkeypatch, burst_fraction, exit_code):
    """``golden`` without ``--check`` renders every checked experiment
    from the fresh results: a broken claim exits 1 and leaves the file
    as it was; claims that hold write the new corpus."""
    monkeypatch.setattr(golden, "build_corpus", lambda **_: corpus)
    monkeypatch.setattr(_CannedFig10, "burst_fraction", burst_fraction)
    monkeypatch.setattr(registry, "_EXPERIMENTS", {"fig10": _CannedFig10})
    path = tmp_path / "corpus.json"
    path.write_text("before\n")
    assert cli.main(["golden", "--path", str(path), "--no-cache",
                     "-q"]) == exit_code
    if exit_code:
        assert path.read_text() == "before\n"
    else:
        assert json.loads(path.read_text()) == corpus


def test_spot_check_fingerprints_match(corpus):
    """Recompute a deterministic sample on every kernel; any drift
    fails with the bump-and-regenerate instruction."""
    drifts = golden.verify_corpus(corpus, sample=SPOT_CHECKS)
    assert not drifts, (
        "golden fingerprint drift:\n  " + "\n  ".join(drifts)
        + f"\n{golden.REGENERATE_HINT}")


@pytest.mark.skipif(not os.environ.get("REPRO_GOLDEN_FULL"),
                    reason="full 224-run x 2-kernel sweep; set "
                           "REPRO_GOLDEN_FULL=1 (CI golden job)")
def test_full_corpus_conformance(corpus):
    drifts = golden.verify_corpus(corpus)
    assert not drifts, (
        "golden fingerprint drift:\n  " + "\n  ".join(drifts)
        + f"\n{golden.REGENERATE_HINT}")
