"""The engine dispatcher: one run path, fastest correct backend.

:func:`run` is the single entry point through which schedules get
executed.  Dispatch rules for ``backend="auto"``:

1. the **batched** backend whenever its kernels cover the algorithm
   (statics, SWk family, T1m/T2m) and the run starts fresh — a single
   run is a batch of one, and a streaming, untraced run takes the
   packed counts tier;
2. the **reference** replay otherwise — estimator allocators carry
   genuinely sequential state, and continued runs (``fresh=False``)
   depend on live instance state no kernel can reconstruct.

The **protocol** backend is never auto-selected (it is orders of
magnitude slower and exists to validate the wire behaviour); request it
explicitly with ``backend="protocol"``.

Containment: when a non-reference backend raises mid-run, the
dispatcher records a structured :class:`~repro.engine.base.BackendDiagnostic`
and transparently re-executes the spec on the reference backend, so one
misbehaving kernel or a chaos-run transport failure degrades a sweep's
speed, never its completion.  Pass ``fallback=False`` to let the error
propagate (the debugging posture).  An
:class:`~repro.exceptions.InvalidParameterError` is a caller error, not
a backend failure, and always propagates.
"""

from __future__ import annotations

import time
import typing
from typing import Optional, Union

from ..core.base import AllocationAlgorithm
from ..core.registry import make_algorithm
from ..costmodels.base import CostModel
from ..exceptions import InvalidParameterError, UnknownAlgorithmError
from ..types import Schedule, ensure_integer, ensure_warmup
from .base import BackendDiagnostic, EngineResult, RunSpec, get_backend
from .instrumentation import Instrumentation

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..sim.faults import FaultConfig

__all__ = ["run", "AUTO"]

#: Sentinel backend name asking the dispatcher to choose.
AUTO = "auto"

_NULL_INSTRUMENTATION = Instrumentation()


def _resolve_algorithm(algorithm: Union[str, AllocationAlgorithm]):
    """Normalize to a (configured instance, short name) pair."""
    if isinstance(algorithm, AllocationAlgorithm):
        return algorithm, algorithm.name
    if isinstance(algorithm, str):
        name = algorithm.strip().lower()
        return make_algorithm(name), name
    raise InvalidParameterError(
        f"algorithm must be a short name or an AllocationAlgorithm, "
        f"got {algorithm!r}"
    )


def run(
    algorithm: Union[str, AllocationAlgorithm],
    schedule: Schedule,
    cost_model: CostModel,
    *,
    backend: str = AUTO,
    stream: bool = False,
    warmup: int = 0,
    fresh: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    latency: float = 0.05,
    faults: Optional["FaultConfig"] = None,
    replicas: int = 1,
    fallback: bool = True,
) -> EngineResult:
    """Execute ``schedule`` against ``algorithm`` under ``cost_model``.

    Parameters
    ----------
    algorithm:
        A short name (``"sw9"``, ``"t1_15"``, ...) or a configured
        :class:`~repro.core.base.AllocationAlgorithm` instance.
    backend:
        ``"auto"`` (default) picks the fastest correct backend;
        ``"reference"``, ``"batched"`` or ``"protocol"`` force one.
    stream:
        When true, only aggregates are produced — no per-request
        ``CostEvent`` tuple is materialized, which is what keeps
        million-request Monte-Carlo sweeps in constant memory.
    warmup:
        Number of leading requests excluded from the aggregates
        (burn-in for steady-state estimates).  The requests are still
        executed and traced.
    fresh:
        Reset the algorithm before the run (the default).  Pass
        ``False`` to continue from live instance state — this pins the
        run to the reference backend.
    instrumentation:
        An :class:`~repro.engine.instrumentation.Instrumentation` whose
        hooks every backend threads; ``None`` attaches a no-op.
    latency:
        One-way link latency, used by the protocol backend only.
    faults:
        A :class:`~repro.sim.faults.FaultConfig` for the protocol
        backend: the run then exercises the reliable transport over the
        seeded faulty medium.  Requesting faults pins the run to the
        protocol backend (only the wire simulation has a channel to
        break); combining it with any other forced backend is an error.
    replicas:
        SC replica count for the protocol backend.  ``1`` (default)
        keeps the paper's single stationary computer; 2–5 runs the
        schedule against an :class:`~repro.sim.replica.SCReplicaSet`
        with failover.  Like faults, a replica set pins the run to the
        protocol backend.
    fallback:
        Contain mid-run backend failures (the default): a raising
        non-reference backend is recorded as a
        :class:`~repro.engine.base.BackendDiagnostic` on the result of
        a transparent reference re-execution.  ``False`` propagates.
        Invalid parameters (a replica count outside 1..5, node faults
        without a replica set, a fault naming a missing replica) are
        never contained: they raise
        :class:`~repro.exceptions.InvalidParameterError`.

    Returns
    -------
    EngineResult
        Uniform result: totals, per-kind counts, backend identity and
        wall-clock time; per-request events/schemes unless streaming.
    """
    instance, name = _resolve_algorithm(algorithm)
    warmup = ensure_warmup(warmup, len(schedule))
    replicas = ensure_integer(replicas, "replicas")

    if faults is not None or replicas != 1:
        what = "fault injection" if faults is not None else "a replica set"
        if backend not in (AUTO, "protocol"):
            raise InvalidParameterError(
                f"{what} runs on the wire simulation; cannot "
                f"combine it with backend {backend!r}"
            )
        if not fresh:
            raise InvalidParameterError(
                f"{what} needs a fresh protocol run; "
                "fresh=False is reference-only"
            )
        chosen = get_backend("protocol")
        reason = f"{what} pins the run to the protocol backend"
        if not chosen.supports(name):
            raise UnknownAlgorithmError(
                f"backend {chosen.name!r} cannot execute algorithm {name!r}"
            )
    elif backend == AUTO:
        batched = get_backend("batched")
        if not fresh:
            chosen = get_backend("reference")
            reason = "continued run needs live instance state"
        elif batched.supports(name):
            chosen = batched
            reason = f"batched kernel covers {name!r}"
        else:
            chosen = get_backend("reference")
            reason = f"no batched kernel for {name!r}; reference fallback"
    else:
        chosen = get_backend(backend)
        reason = f"backend {backend!r} forced by caller"
        if not fresh and chosen.name != "reference":
            raise InvalidParameterError(
                f"fresh=False needs live instance state, which only the "
                f"reference backend keeps; cannot force {backend!r}"
            )
        if not chosen.supports(name):
            raise UnknownAlgorithmError(
                f"backend {chosen.name!r} cannot execute algorithm {name!r}"
            )

    spec = RunSpec(
        algorithm=instance,
        algorithm_name=name,
        schedule=schedule,
        cost_model=cost_model,
        stream=stream,
        warmup=warmup,
        fresh=fresh,
        latency=latency,
        faults=faults,
        replicas=replicas,
    )
    instruments = (
        instrumentation if instrumentation is not None else _NULL_INSTRUMENTATION
    )
    instruments.on_run_start(name, chosen.name, len(schedule), reason)
    started = time.perf_counter()
    try:
        result = chosen.execute(spec, instruments)
    except InvalidParameterError:
        raise
    except Exception as error:
        if not fallback or chosen.name == "reference":
            raise
        diagnostic = BackendDiagnostic(
            backend_name=chosen.name,
            algorithm_name=name,
            error_type=type(error).__name__,
            error_message=str(error),
        )
        instruments.on_backend_fallback(diagnostic)
        reference = get_backend("reference")
        reason = (
            f"reference fallback after {chosen.name!r} raised "
            f"{diagnostic.error_type}"
        )
        instruments.on_run_start(name, reference.name, len(schedule), reason)
        result = reference.execute(spec, instruments)
        result.diagnostic = diagnostic
    result.elapsed_seconds = time.perf_counter() - started
    result.dispatch_reason = reason
    instruments.on_run_end(result)
    return result
