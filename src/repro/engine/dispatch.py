"""The engine dispatcher: three backends, one routing rule, one run path.

:func:`run` is the single entry point through which schedules get
executed, and :func:`route` is the one rule that picks its backend —
the sweep executor consults the same function before it groups runs
for :func:`run_batched_masks`, so a run's backend and dispatch reason
never depend on which path executed it.  For ``backend="auto"``:

1. the **batched** backend whenever its kernels cover the algorithm
   (exactly the session-hostable families: ST1/ST2, SW1, SWk including
   the unoptimized k = 1 window, T1m/T2m) and the run starts fresh — a
   single run is a batch of one, and a streaming, untraced run takes
   the packed counts tier;
2. the **batched** backend for a fresh run of the adaptive allocator,
   which it runs in two passes over the write mask
   (:meth:`~repro.core.adaptive.AdaptiveAllocator.run_mask`): the
   configuration schedule first, then each constant-configuration
   segment through the kernels;
3. the **reference** replay otherwise — estimator allocators carry
   genuinely sequential state, and continued runs (``fresh=False``)
   depend on live instance state no kernel can reconstruct.

The **protocol** backend is never auto-selected (it is orders of
magnitude slower and exists to validate the wire behaviour); request it
explicitly with ``backend="protocol"``.  Fault injection and replica
sets pin a run to it.

All three backends classify every request into the same
:class:`~repro.costmodels.base.CostEventKind` sequence — the invariant
the cross-backend equivalence test enforces — and compute totals via
:func:`~repro.engine.base.total_from_counts`, so equal classifications
give byte-identical costs.

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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.adaptive import AdaptiveAllocator
from ..core.base import AllocationAlgorithm
from ..core.batched import supports as kernels_cover
from ..core.packed import PackedMasks
from ..core.registry import make_algorithm
from ..costmodels.base import (
    EVENT_KIND_ORDER,
    CostEvent,
    CostEventKind,
    CostModel,
)
from ..exceptions import InvalidParameterError, UnknownAlgorithmError
from ..types import (
    AllocationScheme,
    Schedule,
    ensure_integer,
    ensure_warmup,
    write_bits,
)
from .base import BackendDiagnostic, EngineResult, RunSpec, total_from_counts
from .batched import _kernel_results
from .instrumentation import Instrumentation, wants_per_request

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..sim.faults import FaultConfig

__all__ = [
    "AUTO",
    "BACKENDS",
    "BatchedBackend",
    "ProtocolBackend",
    "ReferenceBackend",
    "route",
    "run",
    "run_batched_masks",
]

#: Sentinel backend name asking the dispatcher to choose.
AUTO = "auto"

_NULL_INSTRUMENTATION = Instrumentation()


# ---------------------------------------------------------------------------
# The three backends
# ---------------------------------------------------------------------------


class ReferenceBackend:
    """Object replay: the state machines of :mod:`repro.core`.

    Runs every algorithm, tracks schemes; the implementation of record.
    """

    name = "reference"

    def supports(self, algorithm_name: str) -> bool:
        """Every algorithm replays: always true."""
        return True

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
        """Replay the spec request by request on its instance."""
        algorithm = spec.algorithm
        if spec.fresh:
            algorithm.reset()
        trace = wants_per_request(instrumentation)
        price = spec.cost_model.price
        counts: Dict[CostEventKind, int] = {}
        events: List[CostEvent] = []
        schemes: List[AllocationScheme] = []
        scheme_changes = 0
        previous_scheme = None
        for index, request in enumerate(spec.schedule):
            kind = algorithm.process(request.operation)
            if index >= spec.warmup:
                counts[kind] = counts.get(kind, 0) + 1
            scheme = algorithm.scheme
            if previous_scheme is not None and scheme is not previous_scheme:
                scheme_changes += 1
            previous_scheme = scheme
            if trace:
                instrumentation.on_request(index, kind, price(kind))
            if not spec.stream:
                events.append(CostEvent(kind, price(kind)))
                schemes.append(scheme)
        return EngineResult(
            algorithm_name=spec.algorithm_name,
            backend_name=self.name,
            requests=len(spec.schedule),
            warmup=spec.warmup,
            total_cost=total_from_counts(counts, spec.cost_model),
            event_counts=counts,
            events=None if spec.stream else tuple(events),
            event_kinds=(
                None if spec.stream else tuple(event.kind for event in events)
            ),
            schemes=None if spec.stream else tuple(schemes),
            scheme_changes=scheme_changes,
        )


class ProtocolBackend:
    """The two-node wire protocol, priced from its traffic ledger.

    Runs the discrete-event simulator of :mod:`repro.sim.runner` with
    wire deciders and re-derives event kinds from actual message
    traffic.
    """

    name = "protocol"

    def supports(self, algorithm_name: str) -> bool:
        """Whether wire deciders exist for the algorithm."""
        from ..sim.policies import make_deciders

        try:
            make_deciders(algorithm_name)
        except (UnknownAlgorithmError, InvalidParameterError):
            return False
        return True

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
        """Simulate the spec on the wire and price its traffic ledger."""
        from ..sim.runner import simulate_protocol

        raw = simulate_protocol(
            spec.algorithm_name,
            spec.schedule,
            latency=spec.latency,
            faults=spec.faults,
            replicas=spec.replicas,
        )
        kinds = raw.event_kinds
        counts: Dict[CostEventKind, int] = {}
        for kind in kinds[spec.warmup:]:
            counts[kind] = counts.get(kind, 0) + 1
        if wants_per_request(instrumentation):
            for index, kind in enumerate(kinds):
                instrumentation.on_request(
                    index, kind, spec.cost_model.price(kind)
                )
        events = event_kinds = None
        if not spec.stream:
            event_kinds = kinds
            events = tuple(
                CostEvent(kind, spec.cost_model.price(kind)) for kind in kinds
            )
        return EngineResult(
            algorithm_name=spec.algorithm_name,
            backend_name=self.name,
            requests=len(spec.schedule),
            warmup=spec.warmup,
            total_cost=total_from_counts(counts, spec.cost_model),
            event_counts=counts,
            events=events,
            event_kinds=event_kinds,
            # The wire run does not expose a scheme trace; the ledger
            # classification is the observable.
            schemes=None,
            scheme_changes=None,
            raw=raw,
        )


class BatchedBackend:
    """The batch kernels as an engine backend: one run is a batch of one.

    ``backend="auto"`` picks it for every fresh run the kernels cover.
    A streaming, untraced run packs its mask and takes the packed
    counts tier; anything that needs per-request codes runs one
    unpacked tile.
    """

    name = "batched"

    def supports(self, algorithm_name: str) -> bool:
        """Whether the kernels cover it: the session-hostable families,
        plus the adaptive allocator's two-pass run."""
        return (
            kernels_cover(algorithm_name)
            or algorithm_name == AdaptiveAllocator.name
        )

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
        """Run the spec as a batch of one through the kernel tiles."""
        if spec.algorithm_name == AdaptiveAllocator.name:
            [result] = _adaptive_results(
                [spec.algorithm], write_bits(spec.schedule)[None, :],
                [spec.cost_model], warmup=spec.warmup, stream=spec.stream,
                instrumentation=instrumentation,
            )
            return result
        writes = write_bits(spec.schedule)[None, :]
        if spec.stream and not wants_per_request(instrumentation):
            writes = PackedMasks.from_bool(writes)
        [result] = _kernel_results(
            spec.algorithm_name,
            writes,
            [spec.cost_model],
            warmup=spec.warmup,
            stream=spec.stream,
            instrumentation=instrumentation,
        )
        return result


def _adaptive_results(
    algorithms: Sequence[AdaptiveAllocator],
    writes: np.ndarray,
    cost_models: Sequence[CostModel],
    *,
    warmup: int,
    stream: bool,
    instrumentation,
) -> List[EngineResult]:
    """Fresh two-pass adaptive runs, ``algorithms[b]`` on row ``b``.

    Each instance is left in the state its reference replay would
    leave; the results carry what the kernel tiles' results carry.
    """
    trace = wants_per_request(instrumentation)
    results: List[EngineResult] = []
    for algorithm, row, cost_model in zip(algorithms, writes, cost_models):
        codes, copy_after = algorithm.run_mask(row)
        counts = {
            kind: int(count)
            for kind, count in zip(
                EVENT_KIND_ORDER,
                np.bincount(codes[warmup:], minlength=len(EVENT_KIND_ORDER)),
            )
            if count
        }
        prices = [cost_model.price(kind) for kind in EVENT_KIND_ORDER]
        if trace:
            for index, code in enumerate(codes.tolist()):
                instrumentation.on_request(
                    index, EVENT_KIND_ORDER[code], prices[code]
                )

        def materialize(codes=codes, copy_after=copy_after, prices=prices):
            kinds = tuple(EVENT_KIND_ORDER[code] for code in codes.tolist())
            events = tuple(
                CostEvent(kind, prices[code])
                for kind, code in zip(kinds, codes.tolist())
            )
            schemes = tuple(
                AllocationScheme.TWO_COPIES if flag
                else AllocationScheme.ONE_COPY
                for flag in copy_after.tolist()
            )
            return events, kinds, schemes

        results.append(
            EngineResult(
                algorithm_name=AdaptiveAllocator.name,
                backend_name=BATCHED.name,
                requests=len(codes),
                warmup=warmup,
                total_cost=total_from_counts(counts, cost_model),
                event_counts=counts,
                scheme_changes=int(
                    np.count_nonzero(copy_after[1:] != copy_after[:-1])
                ),
                materialize=None if stream else materialize,
            )
        )
    return results


REFERENCE = ReferenceBackend()
PROTOCOL = ProtocolBackend()
BATCHED = BatchedBackend()

#: The backends by name, as ``backend=`` forces them.
BACKENDS = {
    backend.name: backend for backend in (REFERENCE, PROTOCOL, BATCHED)
}


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def route(
    name: str,
    backend: str = AUTO,
    *,
    fresh: bool = True,
    faults: Optional["FaultConfig"] = None,
    replicas: int = 1,
) -> Tuple[Union[ReferenceBackend, ProtocolBackend, BatchedBackend], str]:
    """The backend that runs algorithm ``name`` and the reason why.

    The one dispatch rule (see the module docstring), shared by
    :func:`run`, :func:`run_batched_masks` and the sweep executor.
    Contradictory requests raise
    :class:`~repro.exceptions.InvalidParameterError`; a backend that
    cannot execute ``name`` raises
    :class:`~repro.exceptions.UnknownAlgorithmError`.
    """
    if faults is not None or replicas != 1:
        what = "fault injection" if faults is not None else "a replica set"
        if backend not in (AUTO, PROTOCOL.name):
            raise InvalidParameterError(
                f"{what} runs on the wire simulation; cannot "
                f"combine it with backend {backend!r}"
            )
        if not fresh:
            raise InvalidParameterError(
                f"{what} needs a fresh protocol run; "
                "fresh=False is reference-only"
            )
        chosen = PROTOCOL
        reason = f"{what} pins the run to the protocol backend"
    elif backend == AUTO:
        if not fresh:
            return REFERENCE, "continued run needs live instance state"
        if name == AdaptiveAllocator.name:
            return BATCHED, "two-pass adaptive run on the batched kernels"
        if BATCHED.supports(name):
            return BATCHED, f"batched kernel covers {name!r}"
        return REFERENCE, f"no batched kernel for {name!r}; reference fallback"
    else:
        chosen = BACKENDS.get(backend)
        if chosen is None:
            raise InvalidParameterError(
                f"unknown execution backend {backend!r}; "
                f"known: {list(BACKENDS)}"
            )
        reason = f"backend {backend!r} forced by caller"
        if not fresh and chosen is not REFERENCE:
            raise InvalidParameterError(
                f"fresh=False needs live instance state, which only the "
                f"reference backend keeps; cannot force {backend!r}"
            )
    if not chosen.supports(name):
        raise UnknownAlgorithmError(
            f"backend {chosen.name!r} cannot execute algorithm {name!r}"
        )
    return chosen, reason


# ---------------------------------------------------------------------------
# Run paths
# ---------------------------------------------------------------------------


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

    chosen, reason = route(
        name, backend, fresh=fresh, faults=faults, replicas=replicas
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
        if not fallback or chosen is REFERENCE:
            raise
        diagnostic = BackendDiagnostic(
            backend_name=chosen.name,
            algorithm_name=name,
            error_type=type(error).__name__,
            error_message=str(error),
        )
        instruments.on_backend_fallback(diagnostic)
        reason = (
            f"reference fallback after {chosen.name!r} raised "
            f"{diagnostic.error_type}"
        )
        instruments.on_run_start(name, REFERENCE.name, len(schedule), reason)
        result = REFERENCE.execute(spec, instruments)
        result.diagnostic = diagnostic
    result.elapsed_seconds = time.perf_counter() - started
    result.dispatch_reason = reason
    instruments.on_run_end(result)
    return result


def run_batched_masks(
    algorithm_name: str,
    writes: Union[np.ndarray, PackedMasks],
    cost_models: Sequence[CostModel],
    *,
    warmup: int = 0,
    stream: bool = True,
    instrumentation: Optional[Instrumentation] = None,
) -> List[EngineResult]:
    """Execute one batch group straight from a ``(B, N)`` write matrix.

    The mask-level entry point: sweep workers that already hold write
    masks (unpacked from a sweep chunk or drawn from a seeded recipe)
    skip building ``Request`` objects entirely — which is where the
    batched path's large speedup over per-schedule execution comes
    from.  ``cost_models[b]`` prices row ``b``; models may differ
    across the batch (counts are model-independent).

    ``writes`` may be a :class:`~repro.core.packed.PackedMasks` (8
    requests per byte).  A packed, streaming, untraced group takes the
    popcount counts tier — aggregates computed on the packed bytes for
    every family, T1m/T2m included, with no unpacking and no ``(B, N)``
    code materialization; only a caller that needs per-request codes
    (a trace, ``stream=False``) unpacks, tile by tile.

    Grids of 2^20 elements or more fan row tiles across a thread pool
    (see :mod:`repro.engine.batched`); the results are identical to
    serial execution byte for byte.  The dispatch reason is the one an
    auto-routed lone run of the algorithm reports.
    """
    name = algorithm_name.strip().lower()
    if not isinstance(writes, PackedMasks):
        writes = np.asarray(writes)
    batch, length = writes.shape
    if len(cost_models) != batch:
        raise InvalidParameterError(
            f"{batch} schedule rows but {len(cost_models)} "
            "cost models"
        )
    instruments = (
        instrumentation if instrumentation is not None
        else _NULL_INSTRUMENTATION
    )
    chosen, reason = route(name)
    if chosen is not BATCHED:
        raise UnknownAlgorithmError(f"no kernel for {name!r}; use repro.engine")
    for _ in range(batch):
        instruments.on_run_start(name, BATCHED.name, length, reason)
    started = time.perf_counter()
    if name == AdaptiveAllocator.name:
        results = _adaptive_results(
            [make_algorithm(name) for _ in range(batch)],
            writes.to_bool() if isinstance(writes, PackedMasks) else writes,
            cost_models,
            warmup=warmup, stream=stream, instrumentation=instruments,
        )
    else:
        results = _kernel_results(
            name, writes, cost_models,
            warmup=warmup, stream=stream, instrumentation=instruments,
        )
    elapsed = (time.perf_counter() - started) / max(batch, 1)
    for result in results:
        result.elapsed_seconds = elapsed
        result.dispatch_reason = reason
        instruments.on_run_end(result)
    if batch:
        instruments.on_batch(name, batch, batch * length)
    return results
