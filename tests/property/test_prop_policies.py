"""Property tests: power managers conserve tokens under random
write/iteration schedules, and skipping a blocked write's retry changes
nothing but the work done."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.base import PowerManager
from repro.core.write_op import WriteOperation
from repro.pcm.dimm import DIMM

from ..conftest import make_tiny_config


@st.composite
def write_batches(draw, span=1024):
    """A batch of writes with random cell sets and iteration counts.

    Each write's cells lie in one window of ``span`` consecutive cells;
    a narrow window piles a write onto few chips and few RESET groups.
    """
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, min(120, span)))
        low = draw(st.integers(0, 1024 - span))
        idx = np.array(sorted(draw(st.sets(
            st.integers(low, low + span - 1), min_size=n, max_size=n,
        ))))
        counts = np.array(draw(st.lists(
            st.integers(1, 8), min_size=idx.size, max_size=idx.size,
        )))
        batch.append((idx, counts))
    return batch


def build_manager(flags, kernel):
    config = make_tiny_config().with_kernel(kernel)
    dimm = DIMM(config)
    manager = PowerManager(config, dimm, **flags)
    return config, dimm, manager


KERNELS = st.sampled_from(["reference", "vectorized"])


MANAGER_FLAGS = st.sampled_from([
    dict(enforce_dimm=True, enforce_chip=False, ipm=False),
    dict(enforce_dimm=True, enforce_chip=True, ipm=False),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True, mr_splits=3),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True, gcp_enabled=True),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True, mr_splits=3,
         gcp_enabled=True, mr_grouping="changed"),
])


class TestManagerConservation:
    @given(batch=write_batches(), flags=MANAGER_FLAGS, kernel=KERNELS)
    @settings(max_examples=50, deadline=None)
    def test_random_schedule_conserves_everything(self, batch, flags,
                                                  kernel):
        """Drive writes to completion in round-robin; at every step the
        pools' allocations must equal the sum of live holdings, and at
        the end everything must be free again."""
        config, dimm, manager = build_manager(flags, kernel)
        writes = [
            WriteOperation(i, 0, 0, idx, counts, dimm.mapping,
                           kernel=kernel)
            for i, (idx, counts) in enumerate(batch)
        ]
        live = []
        for write in writes:
            if manager.required_rounds(write) > 1:
                continue  # round splitting is the scheduler's job
            if manager.try_issue(write, 0):
                live.append(write)
        manager.assert_conserved()

        t = 1
        guard = 0
        while live and guard < 10_000:
            guard += 1
            still = []
            for write in live:
                if write.state.value == "stalled":
                    if not manager.try_resume(write, t):
                        still.append(write)
                        continue
                    write.state = type(write.state).ACTIVE
                outcome = manager.on_iteration_end(
                    write, write.current_iteration, t
                )
                t += 1
                if outcome == "advance":
                    write.current_iteration += 1
                    still.append(write)
                elif outcome == "stall":
                    write.current_iteration += 1
                    write.state = type(write.state).STALLED
                    still.append(write)
                manager.assert_conserved()
            # Progress guarantee: at least one write must advance per
            # sweep once every running write has stalled (tokens free).
            live = still
        assert guard < 10_000, "schedule did not converge"
        assert manager.dimm_pool.allocated == pytest.approx(0.0, abs=1e-6)
        for allocated in manager.chip_allocations():
            assert allocated == pytest.approx(0.0, abs=1e-6)
        if manager.gcp is not None:
            assert manager.gcp.output_in_use == pytest.approx(0.0, abs=1e-6)

    @given(batch=write_batches(), flags=MANAGER_FLAGS, kernel=KERNELS)
    @settings(max_examples=30, deadline=None)
    def test_release_all_always_safe(self, batch, flags, kernel):
        """Abandoning writes at arbitrary points never corrupts pools."""
        config, dimm, manager = build_manager(flags, kernel)
        for i, (idx, counts) in enumerate(batch):
            write = WriteOperation(i, 0, 0, idx, counts, dimm.mapping,
                                   kernel=kernel)
            if manager.required_rounds(write) > 1:
                continue
            if manager.try_issue(write, 0):
                if i % 2:
                    manager.on_iteration_end(write, 0, 1)
                manager.release_all(write, 2)
        manager.assert_conserved()
        assert manager.dimm_pool.allocated == pytest.approx(0.0, abs=1e-6)


class NoMemoManager(PowerManager):
    """Oracle: evaluates the plan of every retry."""

    def _still_blocked(self, write, i):
        return False


def manager_state(manager, writes):
    holdings = {
        write_id: (h.dimm, h.chip.tolist(), h.sources.tolist(), h.has_gcp,
                   {c: g.output_tokens for c, g in h.grants.items()})
        for write_id, h in manager._holdings.items()
    }
    gcp = None if manager.gcp is None else manager.gcp.output_in_use
    return (dict(manager.fail_counts), holdings, manager.dimm_pool.allocated,
            manager.chip_allocations().tolist(), gcp,
            [w.mr_splits for w in writes])


class TestRetryMemo:
    @given(batch=st.sampled_from([1024, 256, 64]).flatmap(write_batches),
           flags=MANAGER_FLAGS,
           kernel=KERNELS,
           dimm_tokens=st.sampled_from([160.0, 240.0, 560.0]),
           retries=st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_memo_is_a_pure_cache(self, batch, flags, kernel, dimm_tokens,
                                  retries):
        """Retrying each blocked write several times between state
        changes gives, at every step, the outcomes, failure counts,
        holdings and pool balances of a manager that never consults
        the memo. Budgets below Table 1's make writes contend."""
        config = make_tiny_config()
        config = replace(
            config, power=replace(config.power, dimm_tokens=dimm_tokens),
        ).with_kernel(kernel)
        sides = []
        for cls in (PowerManager, NoMemoManager):
            dimm = DIMM(config)
            writes = [
                WriteOperation(k, 0, 0, idx, counts, dimm.mapping)
                for k, (idx, counts) in enumerate(batch)
            ]
            sides.append((cls(config, dimm, **flags), writes))

        def step(method, k, *args):
            outcomes = [getattr(m, method)(ws[k], *args) for m, ws in sides]
            assert outcomes[0] == outcomes[1], (method, k)
            assert manager_state(*sides[0]) == manager_state(*sides[1])
            return outcomes[0]

        manager, writes = sides[0]
        queued = [k for k, w in enumerate(writes)
                  if manager.required_rounds(w) == 1]
        running = {}  # write index -> stalled?
        t = 0
        while queued or running:
            progressed = False
            for k in list(queued):
                for _ in range(retries):
                    t += 1
                    if step("try_issue", k, t):
                        queued.remove(k)
                        running[k] = False
                        progressed = True
                        break
            for k in list(running):
                if not running[k]:
                    progressed = True
                    i = writes[k].current_iteration
                    t += 1
                    outcome = step("on_iteration_end", k, i, t)
                    if outcome == "done":
                        del running[k]
                        continue
                    for _, ws in sides:
                        ws[k].current_iteration = i + 1
                    running[k] = outcome == "stall"
                # A stalled write is retried at once, as the controller
                # does after a stall, and again on every later sweep.
                for _ in range(retries if running[k] else 0):
                    t += 1
                    if step("try_resume", k, t):
                        running[k] = False
                        progressed = True
                        break
            if not progressed:
                break  # every write left is blocked for good
