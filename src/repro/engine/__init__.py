"""The unified execution engine: one run path, three backends.

Every way of executing a schedule — the reference object replay, the
discrete-event wire protocol and the batched ``(B, N)`` numpy kernels —
sits behind one dispatching entry point::

    from repro import engine
    from repro.costmodels import ConnectionCostModel
    from repro.workload import bernoulli_schedule

    result = engine.run("sw9", bernoulli_schedule(0.3, 1_000_000),
                        ConnectionCostModel(), backend="auto", stream=True)
    print(result.backend_name, result.mean_cost)

``backend="auto"`` routes to the batched kernels (a single run is a
batch of one) whenever they cover the algorithm and falls back to the
reference replay otherwise;
``stream=True`` aggregates without materializing a per-request event
tuple.  All backends thread the same
:mod:`~repro.engine.instrumentation` hooks and are bound by the
repository's central invariant: identical per-request event-kind
classification, enforced by the cross-backend equivalence tests.
"""

from .base import (
    BackendDiagnostic,
    EngineResult,
    ExecutionBackend,
    RunSpec,
    available_backends,
    get_backend,
    register_backend,
    total_from_counts,
)
from .cache import (
    CacheStats,
    ResultCache,
    default_cache,
    default_cache_dir,
    digest_parts,
)
from .dispatch import AUTO, run
from ..core.packed import PackedMasks, pack_write_masks
from .batched import (
    BatchSpec,
    BatchedBackend,
    execute_batch,
    run_batched_columns,
    run_batched_masks,
)
from .parallel import (
    EngineTask,
    FunctionTask,
    ScenarioSpec,
    ScheduleSpec,
    SweepExecutor,
    SweepOutcome,
    WireStats,
    serial_executor,
)
from .instrumentation import (
    CounterInstrumentation,
    Instrumentation,
    TraceInstrumentation,
    wants_per_request,
)
from .versioning import INITIAL_VALUE, INITIAL_VERSION, value_for_write

# Importing the backends module registers the reference and protocol
# backends (the batched module, imported above, registers the batched
# backend after them).
from . import backends as _backends  # noqa: F401  (import for side effect)

__all__ = [
    "AUTO",
    "run",
    "BackendDiagnostic",
    "EngineResult",
    "ExecutionBackend",
    "RunSpec",
    "available_backends",
    "get_backend",
    "register_backend",
    "total_from_counts",
    "Instrumentation",
    "CounterInstrumentation",
    "TraceInstrumentation",
    "wants_per_request",
    "INITIAL_VALUE",
    "INITIAL_VERSION",
    "value_for_write",
    "CacheStats",
    "ResultCache",
    "default_cache",
    "default_cache_dir",
    "digest_parts",
    "BatchSpec",
    "BatchedBackend",
    "PackedMasks",
    "execute_batch",
    "pack_write_masks",
    "run_batched_columns",
    "run_batched_masks",
    "EngineTask",
    "FunctionTask",
    "ScenarioSpec",
    "ScheduleSpec",
    "SweepExecutor",
    "SweepOutcome",
    "WireStats",
    "serial_executor",
]
