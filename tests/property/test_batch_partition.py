"""Property tests: cohort partitioning invariants for plan execution.

:func:`repro.experiments.batch.partition_cohorts` feeds the engine's
plan supervisor, so its contract is load-bearing for correctness, not
just throughput: a run placed in the wrong cohort would execute under a
foreign structure, and a run duplicated or dropped would diverge from
serial execution. Under randomly generated plans (mixed workloads,
kernels, seeds, cache geometries, schemes, power budgets) and worker
counts ``w`` the partition must

* cover every unique run exactly once (a true partition),
* be deterministic under any permutation of the input plan,
* never mix structurally-incompatible runs into one cohort,
* keep fingerprints unique within and disjoint across cohorts, so
  scattering cohort outcomes back by fingerprint round-trips, and
* keep ``w`` workers busy: for ``n`` unique runs no cohort exceeds
  ⌈n/w⌉ runs, and there are at least ``min(w, n)`` cohorts.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import KERNELS
from repro.experiments.base import RunRequest, RunScale
from repro.experiments.batch import cohort_key, partition_cohorts

from ..conftest import make_tiny_config

MICRO = RunScale("micro", 30, 8_000, ("tig_m",))

#: Structure axes — any difference here must split cohorts.
workloads = st.sampled_from(("tig_m", "mcf_m"))
kernels = st.sampled_from(KERNELS)
seeds = st.integers(1, 3)
llc_sizes = st.sampled_from((1 * 1024 * 1024, 2 * 1024 * 1024))

#: Swept scalars — runs differing only here must share a cohort.
schemes = st.sampled_from(("fpb", "dimm+chip"))
tokens = st.sampled_from((400.0, 466.0, 532.0))

#: Engine worker counts.
worker_counts = st.integers(1, 8)


def make_request(workload, kernel, seed, llc, scheme, budget):
    config = (make_tiny_config(seed=seed).with_kernel(kernel)
              .with_llc_size(llc).with_dimm_tokens(budget))
    return RunRequest(config, workload, scheme, MICRO)


requests_st = st.lists(
    st.builds(make_request, workloads, kernels, seeds, llc_sizes,
              schemes, tokens),
    min_size=1, max_size=24,
)


def structure(request: RunRequest):
    """The fields a cohort must agree on (human-readable echo of the
    hashed cohort key, for failure messages)."""
    cfg = request.config
    return (request.workload, cfg.kernel, cfg.seed,
            cfg.caches.l3.size_bytes, request.scale.n_pcm_writes,
            request.scale.max_refs_per_core)


class TestPartitionProperties:
    @given(requests=requests_st, w=worker_counts)
    @settings(max_examples=60, deadline=None)
    def test_true_partition(self, requests, w):
        cohorts = partition_cohorts(requests, w)
        members = [m for c in cohorts for m in c.members]
        assert sorted(m.fingerprint for m in members) == sorted(
            {r.fingerprint for r in requests})

    @given(requests=requests_st, w=worker_counts,
           rnd=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_under_permutation(self, requests, w, rnd):
        shuffled = list(requests)
        rnd.shuffle(shuffled)
        original = partition_cohorts(requests, w)
        permuted = partition_cohorts(shuffled, w)
        assert [c.key for c in original] == [c.key for c in permuted]
        assert ([[m.fingerprint for m in c.members] for c in original]
                == [[m.fingerprint for m in c.members] for c in permuted])

    @given(requests=requests_st, w=worker_counts)
    @settings(max_examples=60, deadline=None)
    def test_never_mixes_incompatible_structures(self, requests, w):
        for cohort in partition_cohorts(requests, w):
            shapes = {structure(m) for m in cohort.members}
            assert len(shapes) == 1, shapes
            assert all(cohort_key(m) == cohort.key
                       for m in cohort.members)

    @given(requests=requests_st, w=worker_counts)
    @settings(max_examples=60, deadline=None)
    def test_cohorts_keep_every_worker_busy(self, requests, w):
        n = len({r.fingerprint for r in requests})
        cohorts = partition_cohorts(requests, w)
        assert max(c.size for c in cohorts) <= -(-n // w)
        assert len(cohorts) >= min(w, n)

    @given(requests=requests_st, w=worker_counts)
    @settings(max_examples=60, deadline=None)
    def test_scatter_by_fingerprint_round_trips(self, requests, w):
        cohorts = partition_cohorts(requests, w)
        seen = set()
        for cohort in cohorts:
            prints = [m.fingerprint for m in cohort.members]
            assert len(prints) == len(set(prints))  # unambiguous scatter
            assert not seen.intersection(prints)  # disjoint across cohorts
            seen.update(prints)
            # Scattering a fingerprint-keyed outcome map back over the
            # cohort reaches every member exactly once.
            outcomes = {fp: object() for fp in prints}
            assert [outcomes[m.fingerprint] for m in cohort.members] \
                == list(outcomes.values())

    @given(workload=workloads, kernel=kernels, seed=seeds, llc=llc_sizes,
           w=worker_counts)
    @settings(max_examples=30, deadline=None)
    def test_sweeps_over_scalars_share_one_cohort(self, workload, kernel,
                                                  seed, llc, w):
        """A sweep over scalars shares one cohort per worker: one with
        a single worker, never more than the workers it keeps busy."""
        sweep = [make_request(workload, kernel, seed, llc, scheme, budget)
                 for scheme in ("fpb", "dimm+chip")
                 for budget in (400.0, 466.0, 532.0)]
        cohorts = partition_cohorts(sweep, w)
        assert len(cohorts) == min(w, len(sweep))
        assert len({c.key for c in cohorts}) == 1

    @given(base=st.builds(make_request, workloads, kernels, seeds,
                          llc_sizes, schemes, tokens))
    @settings(max_examples=30, deadline=None)
    def test_structure_changes_split_cohorts(self, base):
        cfg = base.config
        variants = [
            RunRequest(cfg, "mcf_m" if base.workload == "tig_m"
                       else "tig_m", base.scheme, MICRO),
            RunRequest(cfg.with_kernel(
                [k for k in KERNELS if k != cfg.kernel][0]),
                base.workload, base.scheme, MICRO),
            RunRequest(replace(cfg, seed=cfg.seed + 7),
                       base.workload, base.scheme, MICRO),
        ]
        base_key = cohort_key(base)
        for variant in variants:
            assert cohort_key(variant) != base_key
