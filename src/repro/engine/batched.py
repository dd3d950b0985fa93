"""Batched execution: many runs, one kernel launch.

:func:`execute_batch` takes a :class:`BatchSpec` (or any sequence of
:class:`~repro.engine.base.RunSpec`), groups the batchable members by
``(algorithm, length, warmup, stream)`` and executes each group through
the ``(B, N)`` kernels of :mod:`repro.core.batched` — one numpy pass
for the whole group instead of one dispatch per run.  Specs the batch
path cannot take — fault injection, continued runs, algorithms without
a kernel — fall back per-spec to the ordinary dispatcher, so a mixed
batch always completes and every member is byte-identical to what a
lone :func:`repro.engine.run` would have produced.

Ragged batches are not an error: grouping by length simply yields more
groups.  A group of one still executes on the batched path — the
backend name and dispatch reason of a run must not depend on which
other runs happened to share its chunk (the sweep executor's
serial-equals-parallel contract).

Two execution tiers sit under :func:`run_batched_masks`:

* **Packed counts.**  When the caller hands a
  :class:`~repro.core.packed.PackedMasks` (8 requests per byte) and
  only aggregates are observable — streaming, no per-request trace —
  the per-kind counts and scheme flips come straight off the packed
  bytes via popcounts, never materializing a ``(B, N)`` code matrix.
* **Threaded row tiles.**  The ``(B, N)`` grid splits into row tiles
  of about 2^20 elements (never fewer than 32 rows), fanned across a
  ``ThreadPoolExecutor`` — the kernels are
  embarrassingly parallel over rows and numpy releases the GIL, so
  threads scale on real cores (1.37x on 2 cores for a 256 x 250k sweep
  grid).  The budget is the core count, capped at 8; a launch below
  2^20 grid elements stays serial, and sweep worker processes run one
  kernel thread each.  Tiles cover disjoint rows, so serial and
  threaded results are identical by construction.

:class:`BatchedBackend` registers the same kernels as an engine backend
(``backend="batched"``), and it is what ``backend="auto"`` picks for
every fresh run the kernels cover: a single run is a batch of one.
Streaming, untraced runs pack their mask and take the counts tier.

:func:`run_batched_columns` is the same kernel pass with whole columns
out and no per-row result — for callers that keep per-row state.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.batched import (
    batched_counts,
    batched_run_arrays,
    stack_write_masks,
)
from ..core.batched import supports as batched_supports
from ..core.packed import PackedMasks, packed_run_counts
from ..costmodels.base import EVENT_KIND_ORDER, CostEvent, CostModel
from ..exceptions import InvalidParameterError
from ..types import AllocationScheme, ensure_warmup, write_bits
from .base import (
    EngineResult,
    ExecutionBackend,
    RunSpec,
    register_backend,
    total_from_counts,
)
from .dispatch import run as dispatch_run
from .instrumentation import Instrumentation, wants_per_request

# The per-schedule backends must register before the batched one so
# ``available_backends()`` order is stable regardless of which engine
# submodule a caller imports first.
from . import backends as _backends  # noqa: F401  (import for side effect)

__all__ = [
    "BatchSpec",
    "BatchedBackend",
    "execute_batch",
    "run_batched_columns",
    "run_batched_masks",
    "supports",
]

#: Batched coverage is exactly the core kernels'.
supports = batched_supports

_NULL_INSTRUMENTATION = Instrumentation()

#: The fixed dispatch reason of a batched run.  Deliberately does not
#: mention the batch size: a run's outcome (including this string) must
#: be a pure function of the run alone, not of its chunk-mates.
_REASON = "batched kernel covers {name!r}"

#: Grid elements per tile; small enough that a tile's transient arrays
#: stay cache-friendly, large enough that tile dispatch is noise.
_TILE_ELEMENTS = 1 << 20

#: Rows per tile at least, however long the rows.
_TILE_ROWS = 32

#: Below this many grid elements a launch stays serial — pool startup
#: would dwarf the kernels.
_MIN_PARALLEL_ELEMENTS = 1 << 20

#: The thread budget caps here even on wider boxes; past it the kernels
#: are memory-bandwidth bound.
_MAX_THREADS = 8


def _thread_budget(elements: int) -> int:
    """Kernel threads for one launch over ``elements`` grid cells."""
    if elements < _MIN_PARALLEL_ELEMENTS:
        return 1
    return min(os.cpu_count() or 1, _MAX_THREADS)


def _single_kernel_thread() -> None:
    """Process-pool initializer: one kernel thread per worker.

    The pool already claims the cores; jobs x threads oversubscription
    only thrashes.
    """
    global _MAX_THREADS
    _MAX_THREADS = 1


@dataclass(frozen=True)
class BatchSpec:
    """A set of runs offered for batched execution together."""

    runs: Tuple[RunSpec, ...]

    def __post_init__(self):
        for spec in self.runs:
            if not isinstance(spec, RunSpec):
                raise InvalidParameterError(
                    f"BatchSpec takes RunSpec members, got {spec!r}"
                )

    def __len__(self) -> int:
        return len(self.runs)


def _spec_batchable(spec: RunSpec) -> bool:
    return (
        spec.fresh
        and spec.faults is None
        and batched_supports(spec.algorithm_name)
    )


def _row_tiles(
    batch: int, length: int, threads: int
) -> List[Tuple[int, int]]:
    """Split ``batch`` rows of ``length`` requests into ``[start, stop)``
    tiles.

    Tiles hold about :data:`_TILE_ELEMENTS` elements and at least
    :data:`_TILE_ROWS` rows, shrunk so a small batch still yields one
    tile per thread; an empty batch is one empty tile, so the outputs
    keep their shapes.
    """
    height = max(_TILE_ROWS, _TILE_ELEMENTS // max(length, 1))
    rows = max(1, min(height, -(-batch // threads)))
    return [
        (start, min(start + rows, batch))
        for start in range(0, max(batch, 1), rows)
    ]


def _map_tiles(compute_tile, tiles: List[Tuple[int, int]], threads: int):
    """Run ``compute_tile(start, stop)`` over the tiles; stack the rows.

    A single tile's arrays are returned as they are, without a copy.
    Tiles cover disjoint rows and are stacked in row order, so the
    execution order — and therefore the thread count — cannot change
    any result byte.  Exceptions propagate (``pool.map`` re-raises).
    """
    if len(tiles) == 1:
        return compute_tile(*tiles[0])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(tiles))) as pool:
            blocks = list(pool.map(lambda tile: compute_tile(*tile), tiles))
    else:
        blocks = [compute_tile(*tile) for tile in tiles]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _kernel_results(
    algorithm_name: str,
    writes,
    cost_models: Sequence[CostModel],
    *,
    warmup: int,
    stream: bool,
    instrumentation,
) -> List[EngineResult]:
    """Run the batch kernels and build one result per row.

    ``writes`` is a ``(B, N)`` bool matrix or a
    :class:`~repro.core.packed.PackedMasks`.  Fires only the
    per-request trace hook (when an instrument listens); run lifecycle
    hooks, timing and dispatch reasons belong to the callers — the
    dispatcher for single runs, :func:`run_batched_masks` for whole
    groups.
    """
    packed = writes if isinstance(writes, PackedMasks) else None
    batch, length = writes.shape
    warmup = ensure_warmup(warmup, length)
    trace = wants_per_request(instrumentation)
    need_codes = trace or not stream
    threads = _thread_budget(batch * length)

    if packed is not None and not need_codes:
        # Packed counts tier: aggregates straight off the bits.
        def compute_tile(start: int, stop: int):
            return packed_run_counts(
                algorithm_name, packed.rows(start, stop), warmup
            )
    else:
        def compute_tile(start: int, stop: int):
            tile = (
                packed.rows(start, stop).to_bool()
                if packed is not None
                else writes[start:stop]
            )
            codes, copy_after = batched_run_arrays(algorithm_name, tile)
            flips = np.count_nonzero(
                copy_after[:, 1:] != copy_after[:, :-1], axis=1
            )
            return batched_counts(codes, warmup), flips, codes, copy_after

    counts_matrix, flips, *arrays = _map_tiles(
        compute_tile, _row_tiles(batch, length, threads), threads
    )
    codes, copy_after = arrays or (None, None)

    results: List[EngineResult] = []
    for row in range(batch):
        cost_model = cost_models[row]
        counts = {
            kind: int(count)
            for kind, count in zip(EVENT_KIND_ORDER, counts_matrix[row])
            if count
        }
        # Per-kind prices are only consumed by the trace hook and the
        # materialized per-request tuples; streamed untraced runs skip
        # pricing entirely (totals price counts, not events).
        prices = (
            [cost_model.price(kind) for kind in EVENT_KIND_ORDER]
            if trace or not stream
            else None
        )
        if trace:
            for index, code in enumerate(codes[row]):
                instrumentation.on_request(
                    index, EVENT_KIND_ORDER[code], prices[code]
                )
        materialize = None
        if not stream:
            # Row views stay arrays until a caller actually reads the
            # per-request tuples, so a plain run() over a million
            # requests stays at array speed.
            def materialize(codes=codes[row], copy_after=copy_after[row],
                            prices=prices):
                event_kinds = tuple(EVENT_KIND_ORDER[code] for code in codes)
                events = tuple(
                    CostEvent(kind, prices[code])
                    for kind, code in zip(event_kinds, codes)
                )
                schemes = tuple(
                    AllocationScheme.TWO_COPIES
                    if flag
                    else AllocationScheme.ONE_COPY
                    for flag in copy_after
                )
                return events, event_kinds, schemes

        results.append(
            EngineResult(
                algorithm_name=algorithm_name,
                backend_name=BatchedBackend.name,
                requests=length,
                warmup=warmup,
                total_cost=total_from_counts(counts, cost_model),
                event_counts=counts,
                scheme_changes=int(flips[row]),
                materialize=materialize,
            )
        )
    return results


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
    popcount counts tier — aggregates computed on the packed bytes, no
    ``(B, N)`` code materialization; anything that needs per-request
    codes unpacks tile by tile.

    Grids of 2^20 elements or more fan row tiles across a thread pool
    (see the module docstring); the results are identical to serial
    execution byte for byte.
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
    reason = _REASON.format(name=name)
    for _ in range(batch):
        instruments.on_run_start(name, BatchedBackend.name, length, reason)
    started = time.perf_counter()
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


def run_batched_columns(
    algorithm_name: str, writes: np.ndarray, warmup: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One kernel pass over a ``(B, N)`` write block, columns out.

    Returns ``(counts, copy, codes)``: the ``(B, 6)`` event counts over
    requests ``warmup..N``, each row's replica flag after its last
    request and the ``(B, N - warmup)`` codes of those requests.  No
    per-row result, no pricing, no hook.  The allocation service feeds
    ``[carry | block]`` with ``warmup`` = the carry length.
    """
    writes = np.asarray(writes, dtype=bool)
    batch, length = writes.shape
    warmup = ensure_warmup(warmup, length)
    if length == 0:
        raise InvalidParameterError("a column block needs at least one request")
    threads = _thread_budget(batch * length)

    def compute_tile(start: int, stop: int):
        codes, copy_after = batched_run_arrays(
            algorithm_name, writes[start:stop]
        )
        return (
            batched_counts(codes, warmup), copy_after[:, -1], codes[:, warmup:]
        )

    return _map_tiles(
        compute_tile, _row_tiles(batch, length, threads), threads
    )


def execute_batch(
    batch: Union[BatchSpec, Sequence[RunSpec]],
    instrumentation: Optional[Instrumentation] = None,
) -> List[EngineResult]:
    """Execute a batch of run specs; results in member order.

    Batchable specs (fresh, fault-free, kernel-covered) group by
    ``(algorithm, length, warmup, stream)`` and execute one group per
    kernel launch; everything else falls back per-spec to
    :func:`repro.engine.run` with auto dispatch.  Every member's result
    is byte-identical to running it alone.
    """
    specs = tuple(batch.runs if isinstance(batch, BatchSpec) else batch)
    results: List[Optional[EngineResult]] = [None] * len(specs)
    groups: Dict[Tuple, List[int]] = {}
    for index, spec in enumerate(specs):
        if _spec_batchable(spec):
            key = (
                spec.algorithm_name.strip().lower(),
                len(spec.schedule),
                spec.warmup,
                spec.stream,
            )
            groups.setdefault(key, []).append(index)
        else:
            results[index] = dispatch_run(
                spec.algorithm,
                spec.schedule,
                spec.cost_model,
                stream=spec.stream,
                warmup=spec.warmup,
                fresh=spec.fresh,
                latency=spec.latency,
                faults=spec.faults,
                instrumentation=instrumentation,
            )
    for (name, _length, warmup, stream), members in groups.items():
        writes = stack_write_masks([specs[i].schedule for i in members])
        group_results = run_batched_masks(
            name,
            writes,
            [specs[i].cost_model for i in members],
            warmup=warmup,
            stream=stream,
            instrumentation=instrumentation,
        )
        for index, result in zip(members, group_results):
            results[index] = result
    return results  # type: ignore[return-value]


class BatchedBackend(ExecutionBackend):
    """The batch kernels as an engine backend: one run is a batch of one.

    ``backend="auto"`` picks it for every fresh run the kernels cover.
    A streaming, untraced run packs its mask and takes the packed
    counts tier; anything that needs per-request codes runs one
    unpacked tile.
    """

    name = "batched"

    def supports(self, algorithm_name: str) -> bool:
        return batched_supports(algorithm_name)

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
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


register_backend(BatchedBackend())
