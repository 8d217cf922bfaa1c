"""The MLC PCM memory subsystem timing model.

Implements the paper's baseline architecture (Figure 1, Section 5.1):

* an on-CPU memory controller with read queue (RDQ), write queue (WRQ)
  and response path; reads have priority, writes issue only when no read
  is pending, and a full WRQ triggers a *write burst* that blocks all
  reads until the queue drains;
* an on-DIMM bridge chip (the universal memory interface of Fang et
  al. [7]) that handles non-deterministic MLC writes: iteration
  boundaries, verify reports, the pre-write read FPB-IPM needs, and the
  power manager itself;
* 8 banks interleaved over 8 chips; a write occupies its bank for all
  iterations (unless paused), a read occupies it for the array read;
* write cancellation / pausing / truncation (Section 6.4.5) as optional
  read-latency optimizations.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..config.system import SystemConfig
from ..core.policies.base import PowerManager
from ..core.write_op import WriteOperation, WriteState
from ..errors import SimulationError
from ..pcm.dimm import DIMM
from ..trace.records import PCMAccess
from .events import SimEngine
from .stats import SimStats


class ReadRequest:
    __slots__ = ("core", "record", "bank", "arrival", "on_done")

    def __init__(self, core: int, record: PCMAccess, bank: int, arrival: int,
                 on_done: Callable[[int], None]):
        self.core = core
        self.record = record
        self.bank = bank
        self.arrival = arrival
        self.on_done = on_done


class WriteJob:
    """One trace write, possibly split into sequential rounds."""

    __slots__ = ("core", "record", "bank", "arrival", "rounds", "round_idx",
                 "used_mr", "offset")

    def __init__(self, core: int, record: PCMAccess, bank: int, arrival: int):
        self.core = core
        self.record = record
        self.bank = bank
        self.arrival = arrival
        self.rounds: Optional[List[WriteOperation]] = None
        self.round_idx = 0
        self.used_mr = False
        self.offset = 0

    @property
    def current(self) -> Optional[WriteOperation]:
        if self.rounds is None or self.round_idx >= len(self.rounds):
            return None
        return self.rounds[self.round_idx]


class MemorySystem:
    """Controller + bridge + DIMM, driven by :class:`SimEngine`."""

    def __init__(
        self,
        config: SystemConfig,
        dimm: DIMM,
        manager: PowerManager,
        engine: SimEngine,
        stats: SimStats,
    ):
        self.config = config
        self.dimm = dimm
        self.manager = manager
        self.engine = engine
        self.stats = stats
        self.timing = dimm.timing

        sched = config.scheduler
        self.rdq_cap = sched.read_queue_entries
        self.wrq_cap = sched.write_queue_entries
        self.respq_cap = sched.resp_queue_entries
        self.wc_enabled = sched.write_cancellation
        self.wp_enabled = sched.write_pausing
        self.wt_cells = (
            sched.truncation_max_cells if sched.write_truncation else None
        )
        self.burst_enabled = sched.write_burst_enabled

        self.rdq: Deque[ReadRequest] = deque()
        self.wrq: Deque[WriteJob] = deque()
        #: Writes stalled between iterations, FIFO by stall time.
        self.stalled: List[Tuple[WriteJob, WriteOperation]] = []
        #: Writes paused for a read (write pausing).
        self.paused: List[Tuple[WriteJob, WriteOperation]] = []
        #: Jobs whose next round is awaiting its bank/tokens.
        self.pending_rounds: List[WriteJob] = []
        #: Cores blocked on a full RDQ/WRQ: (resubmit callback).
        self.waiting_rdq: Deque[Callable[[int], None]] = deque()
        self.waiting_wrq: Deque[Callable[[int], None]] = deque()

        #: Reads whose data waits in the bridge for the channel (RespQ,
        #: Figure 1): completed array reads occupy a slot until their
        #: data transfer back to the controller finishes.
        self._resp_in_flight = 0

        self.in_burst = False
        self._burst_started = 0
        self._kick_pending = False
        self._write_id = 0

        #: Optional telemetry observer (:class:`repro.obs.Telemetry`).
        #: Every emit site guards with ``is not None`` so the untraced
        #: hot path pays a single attribute check.
        self.obs = None

        # Simple busy-until resources.
        self._channel_free = 0
        self._channel_cycles = config.memory.line_transfer_cycles(
            config.memory.channel_bytes_per_cycle
        )
        self._int_bus_free = 0
        self._int_bus_cycles = config.memory.line_transfer_cycles(
            config.memory.dimm_bus_bytes_per_cycle
        )
        self._mc_to_bank = config.memory.mc_to_bank_cycles

        # Write-active cycle accounting.
        self._inflight_writes = 0
        self._active_since = 0

        # Optional endurance tracking.
        self.wear: Optional[object] = None
        if config.track_wear:
            from ..pcm.endurance import WearTracker
            self.wear = WearTracker(dimm.cells_per_line)

        # The pre-write read the bridge performs for FPB-IPM (Section 3.1).
        self._pre_read_cycles = (
            self.timing.read_cycles
            if manager.ipm and sched.model_pre_write_read else 0
        )

    # ==================================================================
    # Request entry points (called by cores)
    # ==================================================================
    def submit_read(self, core: int, record: PCMAccess, now: int,
                    on_done: Callable[[int], None]) -> bool:
        """Queue a read. Returns False if the RDQ is full, in which case
        ``on_done`` is remembered and re-invoked (with retry semantics)
        once a slot frees."""
        if len(self.rdq) >= self.rdq_cap:
            return False
        bank = self.dimm.bank_of(record.line_addr)
        self.rdq.append(ReadRequest(core, record, bank, now, on_done))
        self.kick(now)
        return True

    def submit_write(self, core: int, record: PCMAccess, now: int) -> bool:
        """Queue a write. Returns False if the WRQ is full."""
        if len(self.wrq) >= self.wrq_cap:
            return False
        bank = self.dimm.bank_of(record.line_addr)
        self.wrq.append(WriteJob(core, record, bank, now))
        if self.obs is not None:
            self.obs.on_wrq_depth(len(self.wrq))
        self.kick(now)
        return True

    def wait_for_read_slot(self, resubmit: Callable[[int], None]) -> None:
        self.waiting_rdq.append(resubmit)

    def wait_for_write_slot(self, resubmit: Callable[[int], None]) -> None:
        self.waiting_wrq.append(resubmit)

    @property
    def work_outstanding(self) -> bool:
        return bool(
            self.rdq or self.wrq or self.stalled or self.paused
            or self.pending_rounds or self._inflight_writes
        )

    # ==================================================================
    # The scheduler
    # ==================================================================
    def kick(self, now: int) -> None:
        """Coalesced scheduling pass (at most one per timestamp)."""
        if self._kick_pending:
            return
        self._kick_pending = True
        self.engine.schedule(now, self._kick)

    def _kick(self, now: int) -> None:
        self._kick_pending = False
        self._update_burst(now)
        self._resume_stalled(now)
        self._resume_paused(now)
        self._start_pending_rounds(now)
        if not self.in_burst:
            self._issue_reads(now)
        if self.in_burst or not self.rdq:
            self._issue_writes(now)
        self._update_burst(now)
        self._refill_queues(now)

    def _update_burst(self, now: int) -> None:
        if not self.burst_enabled:
            return
        if not self.in_burst and len(self.wrq) >= self.wrq_cap:
            self.in_burst = True
            self._burst_started = now
            self.stats.burst_entries += 1
            if self.obs is not None:
                self.obs.on_burst(True, now)
        elif self.in_burst and not self.wrq and not self.pending_rounds \
                and not self.stalled:
            self.in_burst = False
            self.stats.burst_cycles += now - self._burst_started
            if self.obs is not None:
                self.obs.on_burst(False, now)

    def _refill_queues(self, now: int) -> None:
        while self.waiting_rdq and len(self.rdq) < self.rdq_cap:
            self.waiting_rdq.popleft()(now)
        while self.waiting_wrq and len(self.wrq) < self.wrq_cap:
            self.waiting_wrq.popleft()(now)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _issue_reads(self, now: int) -> None:
        if not self.rdq:
            return
        remaining: Deque[ReadRequest] = deque()
        while self.rdq:
            if self._resp_in_flight >= self.respq_cap:
                remaining.extend(self.rdq)
                self.rdq.clear()
                break
            req = self.rdq.popleft()
            bank = self.dimm.banks[req.bank]
            if bank.is_free(now):
                self._start_read(req, now)
                continue
            if bank.active_write is not None:
                self._preempt_write_for_read(req, bank.active_write, now)
                if bank.is_free(now):
                    # Cancellation freed the bank synchronously.
                    self._start_read(req, now)
                    continue
            remaining.append(req)
        self.rdq = remaining

    def _start_read(self, req: ReadRequest, now: int) -> None:
        bank = self.dimm.banks[req.bank]
        start = now + self._mc_to_bank
        done = start + self.timing.read_cycles
        bank.busy_until = done
        bank.reads_served += 1
        # Data transfer back over the shared channel; the response holds
        # a RespQ slot until the transfer completes.
        self._resp_in_flight += 1
        self._channel_free = max(self._channel_free, done) + self._channel_cycles
        finish = self._channel_free
        self.engine.schedule(finish, partial(self._read_complete, req))

    def _read_complete(self, req: ReadRequest, now: int) -> None:
        self._resp_in_flight -= 1
        self.stats.reads_done += 1
        self.stats.read_latency_sum += now - req.arrival
        req.on_done(now)
        self.kick(now)

    def _preempt_write_for_read(
        self, req: ReadRequest, write: WriteOperation, now: int
    ) -> None:
        """Write cancellation / pausing when a read hits a writing bank."""
        if self.wp_enabled:
            # Pause at the next iteration boundary (Section 3.2 notes the
            # post-RESET pause is short enough for drift to be ignored).
            setattr(write, "pause_requested", True)
            return
        if self.wc_enabled and write.state is WriteState.ACTIVE:
            progress = write.current_iteration / max(1, write.total_iterations)
            if progress < 0.75:
                self._cancel_write(write, now)

    def _cancel_write(self, write: WriteOperation, now: int) -> None:
        job = getattr(write, "_job", None)
        if job is None:
            raise SimulationError("active write without a job")
        self.manager.release_all(write, now)
        bank = self.dimm.banks[write.bank]
        bank.detach_write(write)
        write.state = WriteState.CANCELLED
        write.cancel_count += 1
        self.stats.write_cancellations += 1
        if self.obs is not None:
            self.obs.on_write_cancelled(write, now)
        self._write_ended(now)
        # Reset the round for a full retry and requeue at the front.
        fresh = self._make_round(
            job, write.changed_idx, write.iteration_counts
        )
        fresh.cancel_count = write.cancel_count
        job.rounds[job.round_idx] = fresh
        self.wrq.appendleft(job)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _issue_writes(self, now: int) -> None:
        if not self.wrq:
            return
        window = self.manager.ooo_window
        scanned = 0
        idx = 0
        queue = self.wrq
        while idx < len(queue) and scanned < window:
            job = queue[idx]
            scanned += 1
            if self._try_start_job(job, now):
                del queue[idx]
                continue
            if window == 1:
                break  # strict FIFO: a blocked head blocks the queue
            idx += 1

    def _try_start_job(self, job: WriteJob, now: int) -> bool:
        if job.rounds is None:
            self._plan_job(job, now)
        write = job.current
        if write is None:
            return True  # nothing to do (empty write)
        bank = self.dimm.banks[job.bank]
        if not bank.is_free(now):
            return False
        if write.n_changed and not self.manager.try_issue(write, now):
            return False
        self._begin_round(job, write, now)
        return True

    def _plan_job(self, job: WriteJob, now: int) -> None:
        record = job.record
        job.offset = self.manager.line_offset(record.line_addr)
        changed_idx = record.changed_idx
        iter_counts = record.iter_counts
        if self.config.scheduler.preset_writes and changed_idx is not None \
                and len(changed_idx):
            changed_idx, iter_counts = self._preset_payload()
        probe = self._make_round(job, changed_idx, iter_counts)
        rounds = self.manager.required_rounds(probe)
        if rounds <= 1:
            job.rounds = [probe]
        else:
            # Interleaved partition: stride-k slices balance both the
            # DIMM-level and per-chip demand of each round.
            job.rounds = [
                self._make_round(
                    job,
                    changed_idx[k::rounds],
                    iter_counts[k::rounds],
                )
                for k in range(rounds)
            ]
            self.stats.round_split_writes += 1
            if self.obs is not None:
                self.obs.on_round_split(job, rounds, now)

    def _preset_payload(self) -> "Tuple[np.ndarray, np.ndarray]":
        """PreSET [22] foreground payload: one RESET pulse over (nearly)
        every cell — short latency, heavy token demand (Section 7)."""
        n_cells = self.dimm.cells_per_line
        frac = min(0.999, self.config.scheduler.preset_reset_fraction)
        stride = max(1, round(1.0 / (1.0 - frac)))
        all_cells = np.arange(n_cells)
        idx = all_cells[all_cells % stride != stride - 1]
        return idx, np.ones(idx.size, dtype=np.int64)

    def _make_round(self, job: WriteJob, changed_idx, iter_counts) -> WriteOperation:
        self._write_id += 1
        write = WriteOperation(
            self._write_id,
            job.record.line_addr,
            job.bank,
            changed_idx if changed_idx is not None else np.zeros(0, np.int64),
            iter_counts if iter_counts is not None else np.zeros(0, np.int64),
            self.dimm.mapping,
            offset=job.offset,
            truncate_max_cells=self.wt_cells,
            kernel=self.manager.kernel,
        )
        setattr(write, "_job", job)
        setattr(write, "pause_requested", False)
        return write

    def _begin_round(self, job: WriteJob, write: WriteOperation, now: int) -> None:
        bank = self.dimm.banks[job.bank]
        bank.start_write(now, write)
        write.state = WriteState.ACTIVE
        write.issue_time = now
        if write.mr_splits > 1:
            job.used_mr = True
        if self.obs is not None:
            self.obs.on_write_round_begin(write, now)
        self._write_started(now)
        if write.total_iterations == 0:
            # Nothing changed: a verify-only write (read + compare).
            self.engine.schedule(
                now + self.timing.read_cycles,
                partial(self._finish_round, job, write),
            )
            return
        delay = 0
        if self._pre_read_cycles:
            # The bridge reads the old line to count cell changes
            # (Section 3.1). It uses the internal DIMM bus (not the
            # CPU channel) and is issued opportunistically while the
            # write waits in the WRQ, so only the portion not hidden by
            # queueing delays the write itself.
            start = max(now, self._int_bus_free)
            self._int_bus_free = start + self._int_bus_cycles
            waited = now - job.arrival
            # At most half the read hides behind queueing: the bank
            # array itself is only available once the previous access
            # finishes (the paper models this cost, Section 3.1).
            residual = max(
                self._pre_read_cycles // 2, self._pre_read_cycles - waited
            )
            delay = (start - now) + residual
        first = self.timing.iteration_cycles(0, write.n_reset_iterations)
        self.engine.schedule(
            now + delay + first,
            partial(self._iteration_boundary, job, write, 0),
        )

    def _iteration_boundary(
        self, job: WriteJob, write: WriteOperation, i: int, now: int
    ) -> None:
        if write.state is not WriteState.ACTIVE:
            return  # cancelled mid-flight
        if getattr(write, "pause_requested", False) \
                and i + 1 < write.total_iterations:
            self._pause_write(job, write, i, now)
            return
        outcome = self.manager.on_iteration_end(write, i, now)
        if outcome == "done":
            self._finish_round(job, write, now)
        elif outcome == "advance":
            write.current_iteration = i + 1
            dur = self.timing.iteration_cycles(i + 1, write.n_reset_iterations)
            self.engine.schedule(
                now + dur,
                partial(self._iteration_boundary, job, write, i + 1),
            )
        else:  # stall
            write.state = WriteState.STALLED
            write.current_iteration = i + 1
            setattr(write, "_stalled_at", now)
            if self.obs is not None:
                self.obs.on_write_stalled(write, now)
            self.stalled.append((job, write))
        self.kick(now)

    def _pause_write(
        self, job: WriteJob, write: WriteOperation, i: int, now: int
    ) -> None:
        """Write pausing: yield the bank to a waiting read at an
        iteration boundary; tokens are released while paused."""
        self.manager.release_all(write, now, keep_sources=True)
        self.dimm.banks[write.bank].detach_write(write)
        write.state = WriteState.PAUSED
        write.current_iteration = i + 1
        write.pause_requested = False
        self.stats.write_pauses += 1
        if self.obs is not None:
            self.obs.on_write_paused(write, now)
        self._write_ended(now)
        self.paused.append((job, write))
        self.kick(now)

    def _resume_paused(self, now: int) -> None:
        if not self.paused:
            return
        blocked_banks = {req.bank for req in self.rdq} if not self.in_burst else set()
        still: List[Tuple[WriteJob, WriteOperation]] = []
        for job, write in self.paused:
            bank = self.dimm.banks[write.bank]
            if write.bank in blocked_banks or not bank.is_free(now):
                still.append((job, write))
                continue
            if not self.manager.try_resume(write, now):
                still.append((job, write))
                continue
            bank.start_write(now, write)
            write.state = WriteState.ACTIVE
            self._write_started(now)
            dur = self.timing.iteration_cycles(
                write.current_iteration, write.n_reset_iterations
            )
            self.engine.schedule(
                now + dur,
                partial(
                    self._iteration_boundary, job, write,
                    write.current_iteration,
                ),
            )
        self.paused = still

    def _resume_stalled(self, now: int) -> None:
        if not self.stalled:
            return
        still: List[Tuple[WriteJob, WriteOperation]] = []
        for job, write in self.stalled:
            if self.manager.try_resume(write, now):
                write.state = WriteState.ACTIVE
                self.stats.write_stall_cycles += now - getattr(
                    write, "_stalled_at", now
                )
                dur = self.timing.iteration_cycles(
                    write.current_iteration, write.n_reset_iterations
                )
                self.engine.schedule(
                    now + dur,
                    partial(
                        self._iteration_boundary, job, write,
                        write.current_iteration,
                    ),
                )
            else:
                still.append((job, write))
        self.stalled = still

    def _start_pending_rounds(self, now: int) -> None:
        if not self.pending_rounds:
            return
        still: List[WriteJob] = []
        for job in self.pending_rounds:
            if not self._try_start_job(job, now):
                still.append(job)
            elif job.current is None and job.rounds is not None:
                pass  # finished synchronously (empty round)
        self.pending_rounds = still

    def _finish_round(self, job: WriteJob, write: WriteOperation, now: int) -> None:
        if write.state is not WriteState.ACTIVE:
            return  # cancelled between scheduling and completion
        bank = self.dimm.banks[write.bank]
        bank.finish_write(now, write)
        write.state = WriteState.DONE
        write.complete_time = now
        if self.obs is not None:
            self.obs.on_write_round_end(write, now)
        self.stats.write_rounds_done += 1
        self.stats.cells_written += write.n_changed
        if self.wear is not None and write.n_changed:
            self.wear.record_write(
                write.line_addr, write.changed_idx, offset=write.offset
            )
        self._write_ended(now)
        job.round_idx += 1
        if job.round_idx < len(job.rounds or []):
            self.pending_rounds.append(job)
        else:
            self._finish_job(job, now)
        self.kick(now)

    def _finish_job(self, job: WriteJob, now: int) -> None:
        self.stats.writes_done += 1
        self.stats.write_latency_sum += now - job.arrival
        if self.obs is not None:
            self.obs.on_write_done(job, now - job.arrival, now)
        if job.used_mr:
            self.stats.multi_reset_writes += 1
        gcp_peak = max(
            (w.gcp_peak_tokens for w in job.rounds or []), default=0.0
        )
        if gcp_peak > 0:
            self.stats.gcp_used_writes += 1
            self.stats.gcp_tokens_per_write_sum += gcp_peak
        # Each round points back at its job (``_job``): dropping the
        # rounds breaks the cycle, so refcounting frees a finished write
        # without waiting for the cycle collector.
        job.rounds.clear()

    # ------------------------------------------------------------------
    # Write-active accounting
    # ------------------------------------------------------------------
    def _write_started(self, now: int) -> None:
        if self._inflight_writes == 0:
            self._active_since = now
        self._inflight_writes += 1

    def _write_ended(self, now: int) -> None:
        self._inflight_writes -= 1
        if self._inflight_writes == 0:
            self.stats.write_active_cycles += now - self._active_since
        if self._inflight_writes < 0:
            raise SimulationError("write-active counter underflow")

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, now: int) -> None:
        """Close open accounting intervals at end of simulation."""
        if self.in_burst:
            self.stats.burst_cycles += now - self._burst_started
            self.in_burst = False
        if self._inflight_writes > 0:
            self.stats.write_active_cycles += now - self._active_since
            self._active_since = now
        self.stats.total_cycles = now
        self.stats.dimm_token_cycles = (
            self.manager.dimm_pool.mean_allocated(now) * now
        )
        if self.manager.gcp is not None:
            gcp = self.manager.gcp
            self.stats.gcp_peak_output = gcp.peak_output
            self.stats.gcp_tokens_acquired = gcp.total_acquired
            self.stats.gcp_waste_tokens = gcp.total_acquired * (
                1.0 / gcp.gcp_efficiency - 1.0
            )
