"""Wire schemas of the simulation gateway.

The gateway speaks JSON over local HTTP. Everything a client may send
is validated here — field by field, against the same registries the CLI
uses (workloads, schemes, scales, kernels, experiments) — and
normalized into the library's own request types, so one canonical
:class:`~repro.experiments.base.RunRequest` (and hence one cache/
coalescing fingerprint) exists per distinct simulation no matter how
the JSON was spelled.

Errors are *structured*: every failure path maps to a
:class:`ServiceError` carrying an HTTP status and a machine-readable
``code``, rendered as::

    {"error": {"code": "invalid_request", "message": "...", ...}}

so clients never have to parse prose, and a failed coalesced run can
fan the *same* error object out to every waiter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from ..config.presets import baseline_config
from ..core.policies.registry import available_schemes
from ..errors import ReproError
from ..experiments.base import SCALES, RunRequest, RunScale
from ..experiments.registry import available_experiments
from ..kernel import available_kernels
from ..trace.workloads import ALL_WORKLOADS

#: Ceilings on the custom-size overrides: the gateway serves interactive
#: traffic, not the full-scale sweeps (use the CLI for those).
MAX_N_PCM_WRITES = 10_000
MAX_REFS_PER_CORE = 1_000_000

#: Default per-run wall-clock budget of ``serve --timeout``. A cold run
#: at the bounds above on the reference kernel took 10.6-29.3 s under
#: ``dimm+chip`` across the 13 workloads on a 2-vCPU host; ``sche96``,
#: the slowest scheme, took up to 37.6 s (``lbm_m``). A run still going
#: at 8x that is hung, not slow.
RUN_TIMEOUT_S = 300.0


class ServiceError(ReproError):
    """A request the gateway rejects or fails, with wire semantics."""

    status = 500
    code = "internal"
    retryable = False

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail

    def to_wire(self) -> Dict[str, object]:
        error: Dict[str, object] = {
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }
        error.update(self.detail)
        return {"error": error}


class InvalidRequestError(ServiceError):
    """The request body failed validation (client bug; never retried)."""

    status = 400
    code = "invalid_request"


class NotFoundError(ServiceError):
    status = 404
    code = "not_found"


class MethodNotAllowedError(ServiceError):
    status = 405
    code = "method_not_allowed"


class BusyError(ServiceError):
    """Admission queue full — backpressure, retry after a delay."""

    status = 429
    code = "busy"
    retryable = True

    def __init__(self, message: str, retry_after_s: int, **detail):
        super().__init__(message, retry_after_s=retry_after_s, **detail)
        self.retry_after_s = retry_after_s


class DrainingError(ServiceError):
    """The gateway is shutting down and not admitting new work."""

    status = 503
    code = "draining"
    retryable = True


class RunExecutionError(ServiceError):
    """The simulation itself failed under engine supervision. All
    coalesced waiters of the run receive this same error."""

    status = 500
    code = "run_failed"


def _require(body: Mapping, key: str, kind, choices=None):
    if key not in body:
        raise InvalidRequestError(f"missing required field {key!r}",
                                  field=key)
    return _typed(body, key, kind, choices=choices)


def _typed(body: Mapping, key: str, kind, default=None, choices=None):
    value = body.get(key, default)
    if value is default and key not in body:
        return default
    if kind is int and isinstance(value, bool):
        raise InvalidRequestError(
            f"field {key!r} must be an integer, got a boolean", field=key)
    if not isinstance(value, kind):
        raise InvalidRequestError(
            f"field {key!r} must be {kind.__name__}, got "
            f"{type(value).__name__}", field=key)
    if choices is not None and value not in choices:
        raise InvalidRequestError(
            f"field {key!r} must be one of {sorted(choices)}, got "
            f"{value!r}", field=key)
    return value


def _bounded(body: Mapping, key: str, ceiling: int) -> Optional[int]:
    value = _typed(body, key, int)
    if value is None:
        return None
    if not 1 <= value <= ceiling:
        raise InvalidRequestError(
            f"field {key!r} must be in [1, {ceiling}], got {value}",
            field=key)
    return value


def _reject_unknown(body: Mapping, known: Tuple[str, ...]) -> None:
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise InvalidRequestError(
            f"unknown field(s) {unknown}; accepted: {sorted(known)}",
            fields=unknown)


def _scale_from(body: Mapping) -> RunScale:
    scale = SCALES[_typed(body, "scale", str, default="quick",
                          choices=set(SCALES))]
    n_pcm_writes = _bounded(body, "n_pcm_writes", MAX_N_PCM_WRITES)
    max_refs = _bounded(body, "max_refs_per_core", MAX_REFS_PER_CORE)
    if n_pcm_writes is not None or max_refs is not None:
        scale = replace(
            scale,
            name="custom",
            n_pcm_writes=n_pcm_writes or scale.n_pcm_writes,
            max_refs_per_core=max_refs or scale.max_refs_per_core,
        )
    return scale


@dataclass(frozen=True)
class SimRequest:
    """A validated ``POST /run`` body, normalized to a
    :class:`RunRequest` (and so to a canonical fingerprint)."""

    workload: str
    scheme: str
    scale: RunScale
    seed: int = 1
    kernel: Optional[str] = None

    FIELDS = ("workload", "scheme", "scale", "seed", "kernel",
              "n_pcm_writes", "max_refs_per_core")

    @classmethod
    def from_wire(cls, body: object) -> "SimRequest":
        if not isinstance(body, Mapping):
            raise InvalidRequestError(
                "request body must be a JSON object")
        _reject_unknown(body, cls.FIELDS)
        workload = _require(body, "workload", str,
                            choices=set(ALL_WORKLOADS))
        scheme = _require(body, "scheme", str,
                          choices=set(available_schemes()))
        seed = _typed(body, "seed", int, default=1)
        if not 0 <= seed < 2 ** 32:
            raise InvalidRequestError(
                f"field 'seed' must be in [0, 2**32), got {seed}",
                field="seed")
        kernel = _typed(body, "kernel", str, default=None,
                        choices=set(available_kernels()))
        return cls(workload=workload, scheme=scheme,
                   scale=_scale_from(body), seed=seed, kernel=kernel)

    def to_run_request(self) -> RunRequest:
        config = baseline_config(seed=self.seed)
        if self.kernel is not None and self.kernel != config.kernel:
            config = config.with_kernel(self.kernel)
        return RunRequest(config, self.workload, self.scheme, self.scale)


@dataclass(frozen=True)
class ExperimentRequest:
    """A validated ``POST /experiment`` body."""

    exp_id: str
    scale: RunScale
    seed: int = 1
    kernel: Optional[str] = None

    FIELDS = ("experiment", "scale", "seed", "kernel",
              "n_pcm_writes", "max_refs_per_core")

    @classmethod
    def from_wire(cls, body: object) -> "ExperimentRequest":
        if not isinstance(body, Mapping):
            raise InvalidRequestError(
                "request body must be a JSON object")
        _reject_unknown(body, cls.FIELDS)
        exp_id = _require(body, "experiment", str,
                          choices=set(available_experiments()))
        seed = _typed(body, "seed", int, default=1)
        kernel = _typed(body, "kernel", str, default=None,
                        choices=set(available_kernels()))
        return cls(exp_id=exp_id, scale=_scale_from(body), seed=seed,
                   kernel=kernel)

    def config(self):
        config = baseline_config(seed=self.seed)
        if self.kernel is not None and self.kernel != config.kernel:
            config = config.with_kernel(self.kernel)
        return config


#: Points a single /explore request may evaluate; generous for smoke
#: explorations while keeping one request from monopolizing the gateway
#: (larger searches belong on the CLI, where --resume also applies).
MAX_BUDGET_POINTS = 128


@dataclass(frozen=True)
class ExploreRequest:
    """A validated ``POST /explore`` body.

    ``space`` is either a built-in space name or an inline JSON space
    definition (the same schema ``--space FILE`` accepts on the CLI).
    The request is normalized to :class:`repro.explore.ExploreSettings`,
    whose deterministic session id keys journal resume and ``/watch``
    streams.
    """

    settings: object  # repro.explore.ExploreSettings

    FIELDS = ("space", "strategy", "budget_points", "seed", "workload",
              "scheme", "scale", "n_pcm_writes", "max_refs_per_core")

    @classmethod
    def from_wire(cls, body: object) -> "ExploreRequest":
        from ..explore import (
            STRATEGIES,
            ExploreError,
            ExploreSettings,
            named_spaces,
            space_from_dict,
        )

        if not isinstance(body, Mapping):
            raise InvalidRequestError(
                "request body must be a JSON object")
        _reject_unknown(body, cls.FIELDS)
        raw_space = body.get("space")
        try:
            if isinstance(raw_space, str):
                spaces = named_spaces()
                if raw_space not in spaces:
                    raise InvalidRequestError(
                        f"field 'space' must name a built-in space "
                        f"({sorted(spaces)}) or be an inline definition",
                        field="space")
                space = spaces[raw_space]
            elif isinstance(raw_space, Mapping):
                space = space_from_dict(dict(raw_space))
            else:
                raise InvalidRequestError(
                    "field 'space' is required: a built-in name or an "
                    "inline {name, axes} object", field="space")
        except ExploreError as exc:
            raise InvalidRequestError(
                f"invalid space definition: {exc}", field="space"
            ) from None
        strategy = _typed(body, "strategy", str, default="grid",
                          choices=set(STRATEGIES))
        budget = _bounded(body, "budget_points",
                          MAX_BUDGET_POINTS) or 16
        seed = _typed(body, "seed", int, default=1)
        if not 0 <= seed < 2 ** 32:
            raise InvalidRequestError(
                f"field 'seed' must be in [0, 2**32), got {seed}",
                field="seed")
        workload = _typed(body, "workload", str, default="mix_1",
                          choices=set(ALL_WORKLOADS))
        scheme = _typed(body, "scheme", str, default="fpb")
        try:
            settings = ExploreSettings(
                space=space, strategy=strategy, budget_points=budget,
                seed=seed, workload=workload, scheme=scheme,
                scale=_scale_from(body),
            )
        except (ExploreError, ReproError) as exc:
            raise InvalidRequestError(
                f"invalid exploration settings: {exc}") from None
        return cls(settings=settings)


@dataclass
class SimResponse:
    """The wire form of one resolved simulation run."""

    request: SimRequest
    fingerprint: str
    #: Provenance: ``memory`` / ``disk`` / ``computed`` / ``coalesced``.
    source: str
    result: object = field(repr=False)

    def to_wire(self) -> Dict[str, object]:
        result = self.result
        return {
            "fingerprint": self.fingerprint,
            "result_fingerprint": result.result_fingerprint(),
            "workload": result.workload,
            "scheme": result.scheme,
            "scale": self.request.scale.name,
            "seed": self.request.seed,
            "source": self.source,
            "cycles": result.cycles,
            "cpi": result.cpi,
            "stats": result.stats.snapshot(),
            "core_instructions": list(result.stats.core_instructions),
            "core_finish_cycles": list(result.stats.core_finish_cycles),
        }


def run_failure_error(fingerprint: str, message: str) -> RunExecutionError:
    """The structured error every waiter of a failed coalesced run
    receives (the engine already folded verdict/attempts into
    ``message`` via :func:`repro.experiments.base.mark_run_failed`)."""
    return RunExecutionError(message, fingerprint=fingerprint)
