"""Power-manager framework.

A power manager decides, for every write operation, whether the next
iteration's power demand can be satisfied, and tracks the tokens the
write holds at DIMM level, per chip, and from the global charge pump.

Acquisition is all-or-nothing across all pools: either the iteration
gets its full allocation (DIMM + every chip segment, via LCP or GCP) or
nothing is held. A write that cannot afford its next iteration *stalls
holding zero tokens* — a stalled write applies no pulses and therefore
draws no power — which makes deadlock impossible: running writes always
finish and return their tokens.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ...config.system import SystemConfig
from ...errors import SchedulingError
from ...kernel import get_kernel
from ...pcm.chip import TOKEN_EPS
from ...pcm.dimm import DIMM
from ...power.gcp import GCPGrant, GlobalChargePump
from ...power.tokens import ChipTokenLedger, TokenPool
from ..write_op import WriteOperation

#: Segment power sources.
SRC_NONE = 0
SRC_LCP = 1
SRC_GCP = 2


class Holding:
    """Tokens currently held on behalf of one write."""

    __slots__ = ("dimm", "chip", "grants", "sources", "has_gcp")

    def __init__(self, n_chips: int):
        self.dimm = 0.0
        self.chip = np.zeros(n_chips, dtype=np.float64)
        #: chip_id -> live GCP grant for that segment.
        self.grants: Dict[int, GCPGrant] = {}
        #: Per-chip power source, fixed for the write's lifetime once
        #: chosen ("one segment uses either LCP or GCP", Section 4.1).
        self.sources = np.zeros(n_chips, dtype=np.int8)
        #: True iff any entry of ``sources`` is SRC_GCP — maintained so
        #: the vectorized all-LCP fast path can skip scanning sources.
        self.has_gcp = False

    @property
    def total(self) -> float:
        return self.dimm


class PowerManager:
    """Base class: pool construction plus atomic acquire/release."""

    #: Human-readable scheme name (set per instance by the registry).
    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        dimm: DIMM,
        *,
        enforce_dimm: bool = True,
        enforce_chip: bool = False,
        ipm: bool = False,
        mr_splits: int = 1,
        gcp_enabled: bool = False,
        ooo_window: int = 1,
        pwl: bool = False,
        mr_grouping: str = "position",
    ):
        self.config = config
        self.dimm = dimm
        self.enforce_dimm = enforce_dimm
        self.enforce_chip = enforce_chip
        self.ipm = ipm
        self.mr_splits = mr_splits
        self.gcp_enabled = gcp_enabled and enforce_chip
        self.ooo_window = max(1, ooo_window)
        self.pwl = pwl
        self.mr_grouping = mr_grouping
        self.reset_set_ratio = config.pcm.reset_set_power_ratio
        #: Simulation kernel: the reference kernel arbitrates chip
        #: tokens one chip at a time; the vectorized kernel batches the
        #: whole iteration through a :class:`ChipTokenLedger` and the
        #: write's cached allocation profile. Results are identical.
        self.kernel = get_kernel(config.kernel)
        self._vec = self.kernel.vectorized

        #: The DIMM budget is *input power* (Eq. 6): LCP-delivered tokens
        #: draw 1/E_LCP each, GCP-delivered tokens 1/E_GCP each.
        self.dimm_pool = TokenPool(config.power.dimm_tokens, name="dimm")
        self.lcp_efficiency = config.power.lcp_efficiency
        self.gcp: Optional[GlobalChargePump] = None
        if self.gcp_enabled:
            self.gcp = GlobalChargePump(
                lcp_efficiency=config.power.lcp_efficiency,
                gcp_efficiency=config.power.gcp_efficiency,
                max_output_tokens=config.power.gcp_output_tokens(dimm.n_chips),
            )
        self.chip_ledger: Optional[ChipTokenLedger] = None
        if self._vec and self.enforce_chip:
            self.chip_ledger = ChipTokenLedger(
                [chip.budget for chip in dimm.chips]
            )
        #: Read-only zero source vector for writes with no prior holding.
        self._no_sources = np.zeros(dimm.n_chips, dtype=np.int8)
        self._holdings: Dict[int, Holding] = {}
        #: Optional telemetry observer (:class:`repro.obs.Telemetry`);
        #: emits are guarded so the untraced path stays hot.
        self.obs = None
        #: Why acquisitions failed (diagnostics and tests).
        self.fail_counts: Dict[str, int] = {"dimm": 0, "chip": 0, "gcp": 0}
        #: Moves on every change an acquisition can observe: a commit, a
        #: release of a live holding, a reset of a write's sources.
        self._epoch = 0
        # PWL intra-line wear-leveling state: line -> [writes_left, offset].
        self._pwl_state: Dict[int, List[int]] = {}
        self._pwl_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0x50574C])
        )

    # ------------------------------------------------------------------
    # Admission-time hooks
    # ------------------------------------------------------------------
    def line_offset(self, line_addr: int) -> int:
        """Wear-leveling rotation offset for this write (PWL strawman).

        The paper's PWL shifts each line by a random offset every 8-100
        writes (Section 2.2).
        """
        if not self.pwl:
            return 0
        state = self._pwl_state.get(line_addr)
        if state is None or state[0] <= 0:
            period = int(self._pwl_rng.integers(8, 101))
            offset = int(self._pwl_rng.integers(0, self.dimm.cells_per_line))
            state = [period, offset]
            self._pwl_state[line_addr] = state
        state[0] -= 1
        return state[1]

    # ------------------------------------------------------------------
    # Issue / advance / complete
    # ------------------------------------------------------------------
    def try_issue(self, write: WriteOperation, now: int) -> bool:
        """Attempt to start iteration 0. Applies Multi-RESET on demand:
        if the full RESET does not fit but a split one does, re-plan the
        write (Section 3.2: Multi-RESET kicks in when tokens are short).
        A write splits at most once; a one-cell RESET cannot split.
        """
        if write.n_changed == 0:
            return True
        if self._still_blocked(write, 0):
            return False
        failed = self._try_acquire(write, 0, now)
        if failed is None:
            return True
        if (self.ipm and self.mr_splits > 1 and write.mr_splits == 1
                and write.n_changed > 1):
            write.apply_multi_reset(self.mr_splits, grouping=self.mr_grouping)
            if self.obs is not None:
                self.obs.on_mr_split(write, now)
            failed = self._try_acquire(write, 0, now)
            if failed is None:
                return True
            # Leave the MR plan in place; it can only lower the demand.
        self._block(write, 0, failed)
        return False

    def try_resume(self, write: WriteOperation, now: int) -> bool:
        """Attempt to restart a stalled/paused write at its current
        iteration.

        If the acquisition fails with the segment sources kept from
        before the stall (e.g. several segments pinned to the GCP whose
        combined demand exceeds the pump), the sources are re-decided
        from scratch — a stalled write has no pulses in flight, so
        re-routing its segments is safe and prevents livelock.
        """
        i = write.current_iteration
        if self._still_blocked(write, i):
            return False
        failed = self._try_acquire(write, i, now)
        if failed is None:
            return True
        holding = self._holdings.get(write.write_id)
        if holding is not None and holding.sources.any():
            holding.sources[:] = SRC_NONE
            holding.has_gcp = False
            self._epoch += 1
            failed = self._try_acquire(write, i, now)
            if failed is None:
                return True
        self._block(write, i, failed)
        return False

    def required_rounds(self, write: WriteOperation) -> int:
        """How many sequential rounds a write must be split into so each
        round's peak demand fits the budgets at all (Section 3.2's
        multi-round write: e.g. 1024 cell changes can never fit a
        560-token DIMM budget in one round).

        Multi-RESET divides the RESET peak by ``mr_splits``, so IPM
        schemes need fewer rounds than per-write schemes.
        """
        if write.n_changed == 0:
            return 1
        rounds = 1
        groups = self.mr_splits if self.ipm else 1
        if self.enforce_dimm:
            # The DIMM budget is input power; a round's RESET demand of
            # n usable tokens draws n/E_LCP, so the usable-token cap per
            # round is budget * E_LCP (532 for Table 1's 560).
            cap = self.dimm_pool.budget * self.lcp_efficiency * groups
            rounds = max(rounds, math.ceil(write.n_changed / cap))
        if self.enforce_chip and self.dimm.chips:
            seg_cap = self.dimm.chips[0].budget
            if self.gcp is not None:
                seg_cap = max(seg_cap, self.gcp.max_output_tokens)
            max_chip = float(write.chip_counts.max())
            if max_chip > 0:
                rounds = max(rounds, math.ceil(max_chip / (seg_cap * groups)))
        return rounds

    def on_iteration_end(self, write: WriteOperation, i: int, now: int) -> str:
        """Advance past iteration ``i``. Returns 'done', 'advance' or
        'stall'. Holdings for iteration ``i+1`` are acquired here."""
        if i + 1 >= write.total_iterations:
            self.release_all(write, now)
            return "done"
        if not self.ipm:
            # Per-write budgeting holds a constant allocation; nothing to do.
            return "advance"
        self.release_all(write, now, keep_sources=True)
        if self._try_acquire(write, i + 1, now) is None:
            return "advance"
        return "stall"

    def release_all(
        self, write: WriteOperation, now: int, *, keep_sources: bool = False
    ) -> None:
        """Return every token the write holds (completion, stall, cancel,
        pause)."""
        holding = self._holdings.get(write.write_id)
        if holding is None:
            return
        self._epoch += 1
        if holding.dimm > TOKEN_EPS:
            self.dimm_pool.release(holding.dimm, now)
        if self.chip_ledger is not None:
            self.chip_ledger.release_held(holding.chip)
        else:
            for chip in self.dimm.chips:
                held = holding.chip[chip.chip_id]
                if held > TOKEN_EPS:
                    chip.release(held)
        for grant in holding.grants.values():
            assert self.gcp is not None
            self.gcp.release(grant)
        if keep_sources:
            # Reuse the Holding in place (sources and has_gcp survive;
            # everything released above is zeroed).
            holding.dimm = 0.0
            holding.chip[:] = 0.0
            holding.grants.clear()
        else:
            del self._holdings[write.write_id]

    def holding_for(self, write: WriteOperation) -> Optional[Holding]:
        return self._holdings.get(write.write_id)

    # ------------------------------------------------------------------
    # Blocked writes
    # ------------------------------------------------------------------
    # A failed acquisition changes nothing, and its outcome depends only
    # on the pool balances, the write's demand row (iteration and RESET
    # plan) and its pinned sources. Every change to balances or sources
    # moves ``_epoch``, so a write retried at the epoch, iteration and
    # plan of its last failure fails again on the same resource: count
    # that failure and skip the plan. ``on_iteration_end`` records
    # nothing, because its stall keeps the write's sources, which a
    # later ``try_resume`` may reset.
    def _still_blocked(self, write: WriteOperation, i: int) -> bool:
        """Count a repeat of ``write``'s last failure, if nothing it
        depends on has changed since."""
        block = getattr(write, "_blocked", None)
        if (block is None or block[0] != self._epoch or block[1] != i
                or block[2] != write.mr_splits):
            return False
        self.fail_counts[block[3]] += 1
        return True

    def _block(self, write: WriteOperation, i: int, failed: str) -> None:
        setattr(write, "_blocked", (self._epoch, i, write.mr_splits, failed))

    # ------------------------------------------------------------------
    # The atomic acquisition step
    # ------------------------------------------------------------------
    def _try_acquire(
        self, write: WriteOperation, i: int, now: int
    ) -> Optional[str]:
        """Plan and commit iteration ``i``'s full allocation, or nothing.

        All checks (chip LCPs, GCP pump capacity, DIMM input power) run
        before anything is committed, so failure never leaves partial
        holdings behind. The reference kernel arbitrates chip by chip;
        the vectorized kernel evaluates the same plan with array ops.
        Returns ``None`` on success, else the resource that refused the
        plan (``"dimm"``, ``"chip"`` or ``"gcp"``), counted in
        :attr:`fail_counts`.
        """
        if self._vec:
            failed = self._try_acquire_vec(write, i, now)
        else:
            failed = self._try_acquire_ref(write, i, now)
        if failed is None:
            self._epoch += 1
        else:
            self.fail_counts[failed] += 1
        return failed

    def _try_acquire_ref(
        self, write: WriteOperation, i: int, now: int
    ) -> Optional[str]:
        c_ratio = self.reset_set_ratio
        holding = self._holdings.get(write.write_id)
        if holding is None:
            holding = Holding(self.dimm.n_chips)
        chips = self.dimm.chips

        local_plan: List[int] = []
        gcp_plan: List[int] = []
        local_total = 0.0
        gcp_total = 0.0
        need = None
        if self.enforce_chip:
            need = write.chip_alloc(i, c_ratio, self.ipm)
            for c in range(self.dimm.n_chips):
                amount = float(need[c])
                if amount <= TOKEN_EPS:
                    continue
                src = holding.sources[c]
                if src == SRC_NONE:
                    src = SRC_LCP if chips[c].can_allocate(amount) else SRC_GCP
                if src == SRC_LCP:
                    if not chips[c].can_allocate(amount):
                        return "chip"
                    local_plan.append(c)
                    local_total += amount
                else:
                    if self.gcp is None:
                        return "chip"
                    gcp_plan.append(c)
                    gcp_total += amount
            if gcp_total > 0 and not self.gcp.can_supply(gcp_total):
                return "gcp"
            dimm_input = local_total / self.lcp_efficiency
            if gcp_total > 0:
                dimm_input += self.gcp.input_power(gcp_total)
        else:
            dimm_input = (
                write.dimm_alloc(i, c_ratio, self.ipm) / self.lcp_efficiency
            )

        if self.enforce_dimm and not self.dimm_pool.can_allocate(dimm_input):
            return "dimm"

        # --- commit ---
        if self.enforce_chip and need is not None:
            for c in local_plan:
                chips[c].allocate(float(need[c]))
                holding.chip[c] = float(need[c])
                holding.sources[c] = SRC_LCP
            for c in gcp_plan:
                assert self.gcp is not None
                holding.grants[c] = self.gcp.acquire(float(need[c]))
                holding.sources[c] = SRC_GCP
            if gcp_total > 0:
                holding.has_gcp = True
                write.gcp_peak_tokens = max(write.gcp_peak_tokens, gcp_total)
                if self.obs is not None:
                    self.obs.on_gcp_acquire(write, gcp_total, now)
        if self.enforce_dimm and dimm_input > TOKEN_EPS:
            self.dimm_pool.allocate(dimm_input, now)
            holding.dimm = dimm_input
        self._holdings[write.write_id] = holding
        return None

    def _try_acquire_vec(
        self, write: WriteOperation, i: int, now: int
    ) -> Optional[str]:
        """Array-ledger twin of :meth:`_try_acquire_ref`.

        The per-chip source choice, feasibility checks, failure
        reasons and commits are evaluated with boolean masks over the
        write's cached allocation profile instead of a Python loop, but
        every float travels through the same arithmetic: totals are
        accumulated sequentially in chip order (NumPy's pairwise ``sum``
        would round differently) and the ledger updates mirror
        ``PCMChip`` elementwise.
        """
        c_ratio = self.reset_set_ratio
        holding = self._holdings.get(write.write_id)

        if not self.enforce_chip:
            dimm_alloc = (
                write.dimm_profile(i, c_ratio)
                if self.ipm
                else float(write.n_changed)
            )
            dimm_input = dimm_alloc / self.lcp_efficiency
            if self.enforce_dimm and not self.dimm_pool.can_allocate(
                dimm_input
            ):
                return "dimm"
            if holding is None:
                holding = Holding(self.dimm.n_chips)
                self._holdings[write.write_id] = holding
            if self.enforce_dimm and dimm_input > TOKEN_EPS:
                self.dimm_pool.allocate(dimm_input, now)
                holding.dimm = dimm_input
            return None

        need, local_total, pos = (
            write.chip_plan(i, c_ratio)
            if self.ipm
            else write.chip_counts_plan()
        )
        ledger = self.chip_ledger
        assert ledger is not None

        if (holding is None or not holding.has_gcp) and bool(
            ledger.fits(need).all()
        ):
            # Fast path (the overwhelmingly common case): no segment is
            # pinned to the GCP and every demand fits its local pump, so
            # the whole plan is LCP — SRC_NONE segments route LCP-first
            # and pinned-LCP segments fit by the same check. Zero-demand
            # chips contribute exact zeros to the sum and the ledger
            # update (a positive demand is always >> TOKEN_EPS), so no
            # masking is needed anywhere.
            dimm_input = local_total / self.lcp_efficiency
            if self.enforce_dimm and not self.dimm_pool.can_allocate(
                dimm_input
            ):
                return "dimm"
            if holding is None:
                holding = Holding(self.dimm.n_chips)
                self._holdings[write.write_id] = holding
            ledger.allocate_all(need)
            holding.chip[:] = need
            holding.sources[pos] = SRC_LCP
            if self.enforce_dimm and dimm_input > TOKEN_EPS:
                self.dimm_pool.allocate(dimm_input, now)
                holding.dimm = dimm_input
            return None

        # General path: per-chip source routing with boolean masks.
        gcp_total = 0.0
        sources = (
            holding.sources if holding is not None else self._no_sources
        )
        fits = ledger.fits(need)
        chosen = np.where(
            sources == SRC_NONE,
            np.where(fits, SRC_LCP, SRC_GCP),
            sources,
        )
        lcp = pos & (chosen == SRC_LCP)
        gcp = pos & (chosen == SRC_GCP)
        # A pinned-LCP segment that no longer fits, or any GCP-routed
        # segment without a pump, fails on "chip" as in the per-chip
        # loop.
        if (lcp & ~fits).any() or (self.gcp is None and gcp.any()):
            return "chip"
        local_total = 0.0
        for amount in need[lcp].tolist():
            local_total += amount
        if gcp.any():
            for amount in need[gcp].tolist():
                gcp_total += amount
            if not self.gcp.can_supply(gcp_total):
                return "gcp"
        dimm_input = local_total / self.lcp_efficiency
        if gcp_total > 0:
            dimm_input += self.gcp.input_power(gcp_total)

        if self.enforce_dimm and not self.dimm_pool.can_allocate(dimm_input):
            return "dimm"

        # --- commit ---
        if holding is None:
            holding = Holding(self.dimm.n_chips)
        if lcp.any():
            ledger.allocate(need, lcp)
            holding.chip[lcp] = need[lcp]
            holding.sources[lcp] = SRC_LCP
        if gcp.any():
            assert self.gcp is not None
            gcp_idx = np.flatnonzero(gcp)
            holding.grants.update(
                self.gcp.acquire_many(
                    gcp_idx.tolist(), need[gcp_idx].tolist()
                )
            )
            holding.sources[gcp] = SRC_GCP
            holding.has_gcp = True
            write.gcp_peak_tokens = max(write.gcp_peak_tokens, gcp_total)
            if self.obs is not None:
                self.obs.on_gcp_acquire(write, gcp_total, now)
        if self.enforce_dimm and dimm_input > TOKEN_EPS:
            self.dimm_pool.allocate(dimm_input, now)
            holding.dimm = dimm_input
        self._holdings[write.write_id] = holding
        return None

    # ------------------------------------------------------------------
    # Invariant checks (used by tests)
    # ------------------------------------------------------------------
    def chip_allocations(self) -> np.ndarray:
        """Per-chip LCP tokens currently allocated (telemetry/tests).

        Reads the array ledger under the vectorized kernel and the
        individual :class:`~repro.pcm.chip.PCMChip` balances otherwise;
        treat the result as read-only.
        """
        if self.chip_ledger is not None:
            return self.chip_ledger.allocated
        return np.array([chip.allocated for chip in self.dimm.chips])

    def assert_conserved(self) -> None:
        """Every pool's allocation equals the sum over live holdings."""
        dimm_sum = sum(h.dimm for h in self._holdings.values())
        if abs(dimm_sum - self.dimm_pool.allocated) > 1e-6:
            raise SchedulingError(
                f"DIMM pool leak: held {dimm_sum} vs pool {self.dimm_pool.allocated}"
            )
        allocated = self.chip_allocations()
        for chip_id in range(self.dimm.n_chips):
            chip_sum = sum(h.chip[chip_id] for h in self._holdings.values())
            if abs(chip_sum - allocated[chip_id]) > 1e-6:
                raise SchedulingError(
                    f"chip {chip_id} leak: held {chip_sum} vs "
                    f"{allocated[chip_id]}"
                )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, dimm={self.enforce_dimm}, "
            f"chip={self.enforce_chip}, ipm={self.ipm}, mr={self.mr_splits}, "
            f"gcp={self.gcp_enabled})"
        )
