"""The kernel tile pass: one ``(B, N)`` launch, row tile by row tile.

Every batched run in the engine — a single run (a batch of one), a
sweep group, a service drain — executes here.  Two tiers sit under
:func:`_kernel_results`:

* **Packed counts.**  When the caller hands a
  :class:`~repro.core.packed.PackedMasks` (8 requests per byte) and
  only aggregates are observable — streaming, no per-request trace —
  the per-kind counts and scheme flips come straight off the packed
  bytes via popcounts, never materializing a ``(B, N)`` code matrix.
* **Bool tiles.**  Everything else takes the shared bool-tile pass
  (:func:`_bool_tiles`): each tile is unpacked if packed, classified by
  :func:`~repro.core.batched.batched_run_arrays` and counted; the
  caller projects the columns it needs.  :func:`run_batched_columns`
  is the same pass with whole columns out and no per-row result, for
  callers that keep per-row state (the allocation service).

The ``(B, N)`` grid splits into row tiles of at most 2^20 elements and
at least one row (a 250k-request sweep row tiles 4 high), fanned across
a ``ThreadPoolExecutor`` — the kernels are embarrassingly parallel over
rows and numpy releases the GIL, so threads scale on real cores (1.37x on 2 cores for a 256 x 250k
sweep grid).  The budget is the core count, capped at 8; a launch below
2^20 grid elements stays serial, and sweep worker processes run one
kernel thread each.  Tiles cover disjoint rows, so serial and threaded
results are identical by construction.

Run lifecycle — routing, hooks, timing, dispatch reasons — belongs to
:mod:`repro.engine.dispatch`, whose ``batched`` backend and
:func:`~repro.engine.dispatch.run_batched_masks` call in here.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from ..core.batched import batched_counts, batched_run_arrays
from ..core.packed import PackedMasks, packed_run_counts
from ..costmodels.base import EVENT_KIND_ORDER, CostEvent, CostModel
from ..exceptions import InvalidParameterError
from ..types import AllocationScheme, ensure_warmup
from .base import EngineResult, total_from_counts
from .instrumentation import wants_per_request

__all__ = ["run_batched_columns"]

#: Grid elements per tile (a tile holds at least one row, however
#: long); small enough that a tile's transient arrays stay
#: cache-friendly, large enough that tile dispatch is noise.
_TILE_ELEMENTS = 1 << 20

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


def _row_tiles(
    batch: int, length: int, threads: int
) -> List[Tuple[int, int]]:
    """Split ``batch`` rows of ``length`` requests into ``[start, stop)``
    tiles.

    Tiles hold at most :data:`_TILE_ELEMENTS` elements and at least one
    row, shrunk so a small batch still yields one tile per thread; an
    empty batch is one empty tile, so the outputs keep their shapes.
    """
    height = max(1, _TILE_ELEMENTS // max(length, 1))
    rows = max(1, min(height, -(-batch // threads)))
    return [
        (start, min(start + rows, batch))
        for start in range(0, max(batch, 1), rows)
    ]


def _map_tiles(compute_tile, batch: int, length: int):
    """Run ``compute_tile(start, stop)`` over the row tiles of a
    ``(batch, length)`` launch on its thread budget; stack the rows.

    A single tile's arrays are returned as they are, without a copy.
    Tiles cover disjoint rows and are stacked in row order, so the
    execution order — and therefore the thread count — cannot change
    any result byte.  Exceptions propagate (``pool.map`` re-raises).
    """
    threads = _thread_budget(batch * length)
    tiles = _row_tiles(batch, length, threads)
    if len(tiles) == 1:
        return compute_tile(*tiles[0])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(tiles))) as pool:
            blocks = list(pool.map(lambda tile: compute_tile(*tile), tiles))
    else:
        blocks = [compute_tile(*tile) for tile in tiles]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _bool_tiles(
    algorithm_name: str,
    writes: Union[np.ndarray, PackedMasks],
    warmup: int,
    project: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]],
) -> Tuple[np.ndarray, ...]:
    """The shared bool-tile pass over ``(B, N)`` write rows.

    Each tile (unpacked first when ``writes`` is packed) runs through
    :func:`~repro.core.batched.batched_run_arrays` and
    :func:`~repro.core.batched.batched_counts`; returns the stacked
    ``(counts, *project(codes, copy_after))`` columns.
    """
    packed = isinstance(writes, PackedMasks)

    def compute_tile(start: int, stop: int):
        tile = (
            writes.rows(start, stop).to_bool() if packed
            else writes[start:stop]
        )
        codes, copy_after = batched_run_arrays(algorithm_name, tile)
        return (batched_counts(codes, warmup),) + project(codes, copy_after)

    return _map_tiles(compute_tile, *writes.shape)


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
    hooks, timing and dispatch reasons belong to the callers in
    :mod:`repro.engine.dispatch`.
    """
    batch, length = writes.shape
    warmup = ensure_warmup(warmup, length)
    trace = wants_per_request(instrumentation)
    need_codes = trace or not stream
    codes = copy_after = None
    if isinstance(writes, PackedMasks) and not need_codes:
        # Packed counts tier: aggregates straight off the bits.
        counts_matrix, flips = _map_tiles(
            lambda start, stop: packed_run_counts(
                algorithm_name, writes.rows(start, stop), warmup
            ),
            batch,
            length,
        )
    else:
        counts_matrix, flips, codes, copy_after = _bool_tiles(
            algorithm_name, writes, warmup,
            lambda codes, copy_after: (
                np.count_nonzero(
                    copy_after[:, 1:] != copy_after[:, :-1], axis=1
                ),
                codes,
                copy_after,
            ),
        )

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
            if need_codes
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
                backend_name="batched",
                requests=length,
                warmup=warmup,
                total_cost=total_from_counts(counts, cost_model),
                event_counts=counts,
                scheme_changes=int(flips[row]),
                materialize=materialize,
            )
        )
    return results


def run_batched_columns(
    algorithm_name: str, writes: np.ndarray, warmup: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One kernel pass over a ``(B, N)`` write block, columns out.

    Returns ``(counts, copy, codes)``: the ``(B, 6)`` event counts over
    requests ``warmup..N``, each row's replica flag after its last
    request and the ``(B, N - warmup)`` codes of those requests.  No
    per-row result, no pricing, no hook.  The allocation service feeds
    ``[carry | block]`` with ``warmup`` = the carry length.  ``writes``
    must hold bools (a bool array or nested lists of bools); any other
    dtype raises rather than being cast.
    """
    writes = np.asarray(writes)
    if writes.dtype != np.bool_:
        raise InvalidParameterError(
            f"writes must be a bool block, got dtype {writes.dtype}"
        )
    batch, length = writes.shape
    warmup = ensure_warmup(warmup, length)
    if length == 0:
        raise InvalidParameterError("a column block needs at least one request")
    return _bool_tiles(
        algorithm_name, writes, warmup,
        lambda codes, copy_after: (copy_after[:, -1], codes[:, warmup:]),
    )
