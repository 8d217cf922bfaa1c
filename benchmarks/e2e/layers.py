"""Per-layer accounting measured from outside the program.

:class:`LayerTracer` wraps public functions of each simulator layer
(plus one private boundary, ``repro.trace.generator._prewarm_l3``),
counts their calls, and accumulates inclusive and self time. Self time
comes from a per-thread call stack: a wrapped call's self time is its
duration minus the time of the wrapped calls it made. Coarse boundaries
also record wall-clock spans into a :class:`repro.obs.perfetto.
TraceBuilder`; hot per-line boundaries (``LineStore.write``,
``CoreHierarchy.access``, the power manager, the kernels) are counted
only, since a span per call would cost more than the call.

Nothing under ``src/`` changes: the tracer patches attributes while it
is installed and restores every original on :meth:`LayerTracer.close`.
Forked workers (plan and gateway pools) restore the originals as they
start, so only parent-side layers are reported there and workers run
at full speed.

Stats are keyed by ``(boundary, label)``; the runner sets ``label`` to
the kernel of the op in flight so ``cold_run`` and ``replay`` report
every kernel-level layer per kernel.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
import weakref
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cache.hierarchy import CoreHierarchy
from repro.core.policies.base import PowerManager
from repro.experiments import engine
from repro.experiments.base import Experiment
from repro.kernel.reference import ReferenceKernel
from repro.kernel.vectorized import VectorizedKernel
from repro.obs.perfetto import TraceBuilder
from repro.pcm.contents import LineStore
from repro.pcm.write_model import IterationSampler
from repro.service import app
from repro.sim import runner
from repro.sim.events import SimEngine
from repro.sim.memory_system import MemorySystem
from repro.sim.simcache import SimCache
from repro.trace import generator
from repro.trace.synthetic.base import SyntheticWorkload

KERNELS = ("reference", "vectorized")

#: Module prefixes whose ``from x import f`` bindings are re-pointed
#: at a wrapped module-level function (and restored afterwards).
_REBIND_PREFIXES = ("repro", "benchmarks.e2e")

#: Layer metrics reported once per kernel (``<name>.<kernel>``), with
#: their units. Counts repeat exactly run to run and across kernels.
PER_KERNEL_METRICS = {
    "trace.generate.s": "s",
    "trace.prewarm.s": "s",
    "trace.line_pairs.s": "s",
    "pcm.linestore_write.calls": "count",
    "pcm.linestore_write.s": "s",
    "pcm.sample.calls": "count",
    "pcm.sample.s": "s",
    "cache.access.calls": "count",
    "cache.access.s": "s",
    "sim.run.s": "s",
    "sim.events": "count",
    "sim.host_us_per_event": "us/event",
    "sim.controller.calls": "count",
    "sim.controller.self_s": "s",
    "sim.writes_done": "count",
    "sim.reads_done": "count",
    "sim.cycles": "cycles",
    "power.try_issue.calls": "count",
    "power.try_issue.success_ratio": "fraction",
    "power.acquire.s": "s",
    "power.release.s": "s",
    "power.fail.dimm": "count",
    "power.fail.chip": "count",
    "power.fail.gcp": "count",
    "kernel.plan.calls": "count",
    "kernel.plan.s": "s",
    "kernel.sample.s": "s",
}

#: Per-kernel metrics that are ratios, not per-unit totals.
_RATIOS = frozenset({"sim.host_us_per_event",
                     "power.try_issue.success_ratio"})

#: Layer metrics of the parent-side execution and service layers.
SHARED_METRICS = {
    "experiments.execute_plan.s": "s",
    "experiments.render.s": "s",
    "experiments.parallel_speedup": "x",
    "simcache.put.calls": "count",
    "simcache.put.s": "s",
    "simcache.get.s": "s",
    "simcache.bytes": "bytes",
    "service.dispatch.calls": "count",
    "service.dispatch.s": "s",
    "service.runs_per_dispatch": "runs",
    "service.coalesced_frac": "fraction",
    "service.queue_wait_ms": "ms",
    "service.warm_run_p99_ms": "ms",
    "trace_overhead_frac": "fraction",
}


def replay_op_metric(scheme: str, kernel: str) -> str:
    """``replay.op_ms.<scheme>.<kernel>`` with ``+`` (not allowed in a
    metric name) spelled ``_``."""
    return f"replay.op_ms.{scheme.replace('+', '_')}.{kernel}"


#: A hook sees the wrapped call's positional args, its result, the
#: calling thread's state and the call's duration; it runs only when the
#: call returned.
Hook = Callable[[tuple, object, "_ThreadState", float], None]


class _ThreadState:
    """One thread's call stack and accumulators (merged at the end, so
    the per-call path takes no lock)."""

    __slots__ = ("stack", "stats", "counts", "managers")

    def __init__(self) -> None:
        self.stack: List[float] = []
        #: (boundary, label) -> [calls, inclusive s, self s]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        #: (counter, label) -> value
        self.counts: Dict[Tuple[str, str], float] = {}
        #: Power managers seen since the enclosing run_simulation began.
        self.managers: Dict[int, object] = {}


def _close_in_child(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer.close()


class LayerTracer:
    """Installs the layer wrappers; use as a context manager."""

    def __init__(self, process_name: str = "benchmarks.e2e") -> None:
        self.label = ""
        self.builder = TraceBuilder()
        #: Run fingerprint -> seconds of the gateway dispatch that ran it.
        self.dispatch_s: Dict[str, float] = {}
        self._pid = os.getpid()
        self.builder.process(self._pid, process_name)
        self._wall0 = time.time() - time.perf_counter()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._active = True
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _close_in_child(ref))

    # -- installation --------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def install(self) -> None:
        self._wrap_function(generator, "generate_trace", "trace.generate",
                            span=True)
        self._wrap_function(generator, "_prewarm_l3", "trace.prewarm",
                            span=True)
        self._wrap_method(SyntheticWorkload, "prewarm_line_pairs",
                          "trace.line_pairs")
        self._wrap_method(LineStore, "write", "pcm.linestore_write")
        self._wrap_method(LineStore, "write_rows", "pcm.linestore_write")
        self._wrap_method(IterationSampler, "sample", "pcm.sample")
        self._wrap_method(CoreHierarchy, "access", "cache.access")
        self._wrap_function(runner, "run_simulation", "sim.run", span=True,
                            hook=self._on_run_done)
        self._wrap_method(SimEngine, "run", "sim.engine", span=True,
                          hook=self._on_engine_done)
        self._wrap_method(MemorySystem, "kick", "sim.controller")
        self._wrap_method(PowerManager, "try_issue", "power.try_issue",
                          hook=self._on_try_issue)
        self._wrap_method(PowerManager, "try_resume", "power.try_resume")
        self._wrap_method(PowerManager, "on_iteration_end",
                          "power.on_iteration_end")
        self._wrap_method(PowerManager, "release_all", "power.release")
        for kernel in (ReferenceKernel, VectorizedKernel):
            self._wrap_method(kernel, "plan", "kernel.plan")
            self._wrap_method(kernel, "sample_iterations", "kernel.sample")
        self._wrap_function(engine, "execute_plan",
                            "experiments.execute_plan", span=True)
        self._wrap_method(Experiment, "__call__", "experiments.render",
                          span=True)
        self._wrap_method(SimCache, "put", "simcache.put")
        self._wrap_method(SimCache, "get", "simcache.get")
        self._wrap_function(app, "plan_outcomes", "service.dispatch",
                            span=True, hook=self._on_dispatch)

    def close(self) -> None:
        """Restore every patched attribute (reverse order, so stacked
        patches of one attribute unwind to the original)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._active = False

    def _wrap_method(self, cls, attr: str, name: str, *,
                     hook: Optional[Hook] = None, span: bool = False) -> None:
        original = vars(cls)[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, span, hook))

    def _wrap_function(self, module, attr: str, name: str, *,
                       hook: Optional[Hook] = None,
                       span: bool = False) -> None:
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, span, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(_REBIND_PREFIXES):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrapper(self, fn, name: str, span: bool, hook: Optional[Hook]):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                key = (name, tracer.label)
                record = state.stats.get(key)
                if record is None:
                    record = state.stats[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - child
                if span:
                    tracer._span(name, start, duration, "layer")
            if hook is not None:
                hook(args, result, state, duration)
            return result

        return wrapper

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- hooks ---------------------------------------------------------
    def _count(self, state: _ThreadState, counter: str, value: float) -> None:
        key = (counter, self.label)
        state.counts[key] = state.counts.get(key, 0.0) + value

    def _on_try_issue(self, args, result, state, duration) -> None:
        manager = args[0]
        state.managers[id(manager)] = manager
        if result:
            self._count(state, "power.try_issue.ok", 1)

    def _on_engine_done(self, args, result, state, duration) -> None:
        self._count(state, "sim.events", args[0].events_processed)

    def _on_run_done(self, args, result, state, duration) -> None:
        self._count(state, "sim.writes_done", result.stats.writes_done)
        self._count(state, "sim.reads_done", result.stats.reads_done)
        self._count(state, "sim.cycles", result.cycles)
        for manager in state.managers.values():
            for resource, fails in manager.fail_counts.items():
                self._count(state, f"power.fail.{resource}", fails)
        state.managers.clear()

    def _on_dispatch(self, args, result, state, duration) -> None:
        requests = list(args[0])
        self._count(state, "service.dispatched_runs", len(requests))
        for request in requests:
            self.dispatch_s[request.fingerprint] = duration

    # -- spans -----------------------------------------------------------
    def _span(self, name: str, start: float, duration: float,
              category: str, args: Optional[dict] = None) -> None:
        self.builder.complete_wall(
            self._pid, threading.get_native_id(), name,
            int((self._wall0 + start) * 1e6), int(duration * 1e6),
            args=args, category=category)

    @contextlib.contextmanager
    def op(self, name: str, label: str = ""):
        """One benchmark op: sets the stats label and records an op span."""
        previous, self.label = self.label, label
        start = time.perf_counter()
        try:
            yield
        finally:
            self._span(name, start, time.perf_counter() - start, "op",
                       {"label": label} if label else None)
            self.label = previous

    # -- results -----------------------------------------------------------
    def metrics(self, units: int) -> Dict[str, float]:
        """Every layer metric this tracer can compute, per traced unit
        (the workload adds the ones it measures itself)."""
        stats: Dict[Tuple[str, str], List[float]] = {}
        counts: Dict[Tuple[str, str], float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, record in state.stats.items():
                merged = stats.setdefault(key, [0, 0.0, 0.0])
                for i, value in enumerate(record):
                    merged[i] += value
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0.0) + value

        def stat(boundary: str, label: Optional[str], column: int) -> float:
            return sum(record[column] for (name, lab), record in stats.items()
                       if name == boundary and label in (None, lab))

        def count(counter: str, label: Optional[str]) -> float:
            return sum(value for (name, lab), value in counts.items()
                       if name == counter and label in (None, lab))

        out: Dict[str, float] = {}
        for kernel in KERNELS:
            calls = functools.partial(stat, label=kernel, column=0)
            total = functools.partial(stat, label=kernel, column=1)
            self_s = functools.partial(stat, label=kernel, column=2)
            events = count("sim.events", kernel)
            issued = calls("power.try_issue")
            values = {
                "trace.generate.s": total("trace.generate"),
                "trace.prewarm.s": total("trace.prewarm"),
                "trace.line_pairs.s": total("trace.line_pairs"),
                "pcm.linestore_write.calls": calls("pcm.linestore_write"),
                "pcm.linestore_write.s": total("pcm.linestore_write"),
                "pcm.sample.calls": calls("pcm.sample"),
                "pcm.sample.s": total("pcm.sample"),
                "cache.access.calls": calls("cache.access"),
                "cache.access.s": total("cache.access"),
                "sim.run.s": total("sim.run"),
                "sim.events": events,
                "sim.host_us_per_event": (
                    1e6 * total("sim.engine") / events if events else 0.0),
                "sim.controller.calls": calls("sim.controller"),
                "sim.controller.self_s": self_s("sim.controller"),
                "sim.writes_done": count("sim.writes_done", kernel),
                "sim.reads_done": count("sim.reads_done", kernel),
                "sim.cycles": count("sim.cycles", kernel),
                "power.try_issue.calls": issued,
                "power.try_issue.success_ratio": (
                    count("power.try_issue.ok", kernel) / issued
                    if issued else 0.0),
                "power.acquire.s": (self_s("power.try_issue")
                                    + self_s("power.try_resume")
                                    + self_s("power.on_iteration_end")),
                "power.release.s": total("power.release"),
                "power.fail.dimm": count("power.fail.dimm", kernel),
                "power.fail.chip": count("power.fail.chip", kernel),
                "power.fail.gcp": count("power.fail.gcp", kernel),
                "kernel.plan.calls": calls("kernel.plan"),
                "kernel.plan.s": total("kernel.plan"),
                "kernel.sample.s": total("kernel.sample"),
            }
            for name, value in values.items():
                per_unit = value if name in _RATIOS else value / units
                out[f"{name}.{kernel}"] = per_unit

        dispatches = stat("service.dispatch", None, 0)
        shared = {
            "experiments.execute_plan.s": stat(
                "experiments.execute_plan", None, 1),
            "experiments.render.s": stat("experiments.render", None, 1),
            "simcache.put.calls": stat("simcache.put", None, 0),
            "simcache.put.s": stat("simcache.put", None, 1),
            "simcache.get.s": stat("simcache.get", None, 1),
            "service.dispatch.calls": dispatches,
            "service.dispatch.s": stat("service.dispatch", None, 1),
        }
        for name, value in shared.items():
            out[name] = value / units
        out["service.runs_per_dispatch"] = (
            count("service.dispatched_runs", None) / dispatches
            if dispatches else 0.0)
        return out


class NullTracer:
    """Stand-in while tracing is off: ops cost nothing."""

    label = ""
    dispatch_s: Mapping[str, float] = MappingProxyType({})

    @staticmethod
    def op(name: str, label: str = ""):
        return contextlib.nullcontext()
