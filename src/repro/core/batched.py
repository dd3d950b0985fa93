"""Batched kernels: B same-length schedules in one numpy pass.

Every SWk decision is a function of the last k requests and every
T1m/T2m decision a function of the current run length, so the whole
decision sequence of a run falls out of a few array operations — no
per-request Python loop.  This module goes one step further and removes
the per-schedule loop too: B schedules of common length N stack into a
``(B, N)`` write matrix and every kernel works along ``axis=1``, so a
whole sweep chunk is a handful of array ops regardless of B.  A single
run is simply B = 1.

On top of the batch sit *sufficient-statistic parameter scans*.  The
cost of SWk depends only on prefix-summed window write counts, the cost
of T1m/T2m only on read/write run lengths, and the message-model cost
is affine in ω given per-kind event counts — so one pass over the batch
yields, for free or nearly so, the event-count matrix of *every* k, m
and ω in a range:

* :func:`scan_window_counts` — one shared prefix sum; each additional k
  costs a slice-subtract-compare, never a re-derivation of the batch;
* :func:`scan_threshold_counts` — run-length histograms make each
  additional m an O(B) cumulative-histogram lookup;
* :func:`scan_omega_totals` — each additional ω is an O(B) kind-order
  accumulation over the fixed ``(B, 6)`` count matrix.

The contract is exact equality with the reference replay, row by row,
event kind by event kind; totals go through the same kind-order
accumulation as :func:`repro.engine.base.total_from_counts`, so equal
counts give byte-identical floats.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..costmodels.base import EVENT_KIND_ORDER, CostModel
from ..costmodels.message import MessageCostModel
from ..exceptions import InvalidParameterError
from ..types import ensure_odd_window, ensure_warmup
from .packed import (
    _LOCAL_READ,
    _REMOTE_READ,
    _WRITE_DELETE_REQUEST,
    _WRITE_NO_COPY,
    _WRITE_PROPAGATED,
    _WRITE_PROPAGATED_DEALLOCATE,
    _window_copy_after,
    accumulator_dtype,
    kernel_spec,
)
from .session import AlgorithmSpec, ensure_threshold

__all__ = [
    "batched_run_arrays",
    "batched_counts",
    "batched_totals",
    "scan_window_counts",
    "scan_threshold_counts",
    "scan_omega_totals",
]

_NUM_KINDS = len(EVENT_KIND_ORDER)


def _as_matrix(writes: np.ndarray) -> np.ndarray:
    writes = np.asarray(writes)
    if writes.ndim != 2 or writes.dtype != np.bool_:
        raise InvalidParameterError(
            f"expected a (B, N) bool write matrix, got "
            f"{writes.dtype} {writes.shape}"
        )
    return writes


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------


def _batched_static_one(writes):
    codes = np.where(writes, _WRITE_NO_COPY, _REMOTE_READ)
    return codes, np.zeros(writes.shape, dtype=bool)


def _batched_static_two(writes):
    codes = np.where(writes, _WRITE_PROPAGATED, _LOCAL_READ)
    return codes, np.ones(writes.shape, dtype=bool)


def _batched_sw1(writes):
    had_copy = np.empty_like(writes)
    had_copy[:, 0] = False
    np.logical_not(writes[:, :-1], out=had_copy[:, 1:])
    codes = np.select(
        [
            ~writes & had_copy,
            ~writes & ~had_copy,
            writes & ~had_copy,
        ],
        [_LOCAL_READ, _REMOTE_READ, _WRITE_NO_COPY],
        default=_WRITE_DELETE_REQUEST,
    )
    return codes, ~writes


def _swk_codes_from_copy(writes, copy_after):
    had_copy = np.empty(writes.shape, dtype=bool)
    had_copy[:, 0] = False  # initial window is all writes
    had_copy[:, 1:] = copy_after[:, :-1]
    had = had_copy.view(np.int8)
    codes = np.where(
        writes,
        _WRITE_NO_COPY + had + (had_copy & ~copy_after),
        _REMOTE_READ - had,
    )
    return codes, copy_after


def _batched_swk(writes, k: int):
    # The accumulator dtype is int32 on every realistic length, promoted
    # to int64 once window counts could no longer provably fit.
    cumulative = np.cumsum(
        writes, axis=1, dtype=accumulator_dtype(writes.shape[1])
    )
    return _swk_codes_from_copy(writes, _window_copy_after(cumulative, k))


def _read_run_positions_matrix(writes) -> np.ndarray:
    """1-based position of each request within its current read run."""
    indices = np.arange(writes.shape[1], dtype=np.int64)
    last_write = np.maximum.accumulate(
        np.where(writes, indices[None, :], -1), axis=1
    )
    return indices[None, :] - last_write


def _write_run_positions_matrix(writes) -> np.ndarray:
    """1-based position of each request within its current write run."""
    indices = np.arange(writes.shape[1], dtype=np.int64)
    last_read = np.maximum.accumulate(
        np.where(writes, -1, indices[None, :]), axis=1
    )
    return indices[None, :] - last_read


def _batched_t1(writes, m: int):
    # T1m is a pure function of the read-run position: the first m
    # reads of a run go remote (the m-th piggybacks the copy), the rest
    # are local; a write deallocates via delete-request iff it directly
    # follows a read run of length >= m.
    position = _read_run_positions_matrix(writes)
    read_codes = np.where(position <= m, _REMOTE_READ, _LOCAL_READ)
    follows_saturated_run = np.zeros(writes.shape, dtype=bool)
    follows_saturated_run[:, 1:] = ~writes[:, :-1] & (position[:, :-1] >= m)
    write_codes = np.where(
        follows_saturated_run, _WRITE_DELETE_REQUEST, _WRITE_NO_COPY
    )
    codes = np.where(writes, write_codes, read_codes)
    copy_after = ~writes & (position >= m)
    return codes, copy_after


def _batched_t2(writes, m: int):
    # T2m is the write-run mirror: writes 1..m-1 of a run propagate, the
    # m-th propagates and deallocates, later ones find no copy; a read
    # is remote iff the write run directly before it reached m.
    position = _write_run_positions_matrix(writes)
    write_codes = np.select(
        [position < m, position == m],
        [_WRITE_PROPAGATED, _WRITE_PROPAGATED_DEALLOCATE],
        default=_WRITE_NO_COPY,
    )
    lost_copy = np.zeros(writes.shape, dtype=bool)
    lost_copy[:, 1:] = writes[:, :-1] & (position[:, :-1] >= m)
    read_codes = np.where(lost_copy, _REMOTE_READ, _LOCAL_READ)
    codes = np.where(writes, write_codes, read_codes)
    copy_after = np.where(writes, position < m, True)
    return codes, copy_after


def batched_run_arrays(
    algorithm: Union[str, AlgorithmSpec], writes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Event-kind codes and replica flags for a whole batch at once.

    ``writes`` is a ``(B, N)`` bool matrix (row = schedule); the return
    is ``(codes, copy_after)``, both ``(B, N)``: ``codes[b, i]`` indexes
    :data:`~repro.costmodels.base.EVENT_KIND_ORDER` and
    ``copy_after[b, i]`` says whether the MC holds a replica after
    request ``i`` of schedule ``b``.  ``algorithm`` is a name or a
    parsed spec (see :func:`~repro.core.packed.kernel_spec`).
    """
    spec = kernel_spec(algorithm)
    writes = _as_matrix(writes)
    if writes.shape[1] == 0:
        return (
            np.empty(writes.shape, dtype=np.int64),
            np.empty(writes.shape, dtype=bool),
        )
    if spec.family == "st1":
        return _batched_static_one(writes)
    if spec.family == "st2":
        return _batched_static_two(writes)
    if spec.family == "sw1":
        return _batched_sw1(writes)
    if spec.family == "swk":
        return _batched_swk(writes, spec.param)
    if spec.family == "t1":
        return _batched_t1(writes, spec.param)
    return _batched_t2(writes, spec.param)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def batched_counts(codes: np.ndarray, warmup: int = 0) -> np.ndarray:
    """Per-row event-kind counts: ``(B, N)`` codes → ``(B, 6)`` int64.

    One flattened bincount with per-row bin offsets replaces B separate
    bincount calls; row ``b`` equals the per-schedule backend's counts
    over requests ``warmup..N``.
    """
    if codes.ndim != 2:
        raise InvalidParameterError(
            f"expected a (B, N) code matrix, got shape {codes.shape}"
        )
    batch = codes.shape[0]
    counted = codes[:, ensure_warmup(warmup, codes.shape[1]):]
    if batch == 0 or counted.shape[1] == 0:
        return np.zeros((batch, _NUM_KINDS), dtype=np.int64)
    if batch > 1:
        counted = counted + (
            np.arange(batch, dtype=np.int64) * _NUM_KINDS
        )[:, None]
    flat = np.bincount(counted.ravel(), minlength=batch * _NUM_KINDS)
    return flat.reshape(batch, _NUM_KINDS).astype(np.int64, copy=False)


def batched_totals(counts: np.ndarray, cost_model: CostModel) -> np.ndarray:
    """Total cost per row, byte-identical to ``total_from_counts``.

    Accumulates ``count · price`` in the canonical kind order — the
    same association as the scalar helper, so equal counts give equal
    floats bit for bit (never ``np.dot``, whose pairwise summation
    associates differently).
    """
    counts = np.asarray(counts)
    totals = np.zeros(counts.shape[:-1], dtype=np.float64)
    for column, kind in enumerate(EVENT_KIND_ORDER):
        totals += counts[..., column] * cost_model.price(kind)
    return totals


# ---------------------------------------------------------------------------
# Sufficient-statistic parameter scans
# ---------------------------------------------------------------------------


def scan_window_counts(
    writes: np.ndarray, ks: Sequence[int], warmup: int = 0
) -> np.ndarray:
    """Event counts of SWk for every k in ``ks``: ``(len(ks), B, 6)``.

    The row-wise prefix sum over the write matrix — the sufficient
    statistic for *every* window size — is computed once; each k then
    costs one slice-subtract-compare to recover its window majorities.
    ``k = 1`` routes through the SW1 kernel (its delete-request
    optimization is not the k-window recurrence at k=1).
    """
    ks = [ensure_odd_window(k) for k in ks]
    writes = _as_matrix(writes)
    warmup = ensure_warmup(warmup, writes.shape[1])
    out = np.empty((len(ks), writes.shape[0], _NUM_KINDS), dtype=np.int64)
    if writes.shape[1] == 0:
        out[:] = 0
        return out
    cumulative = np.cumsum(
        writes, axis=1, dtype=accumulator_dtype(writes.shape[1])
    )
    for slot, k in enumerate(ks):
        if k == 1:
            codes, _copy = _batched_sw1(writes)
        else:
            codes, _copy = _swk_codes_from_copy(
                writes, _window_copy_after(cumulative, k)
            )
        out[slot] = batched_counts(codes, warmup)
    return out


def _offset_bincount(values: np.ndarray, bins: int) -> np.ndarray:
    """Row-wise histogram of small non-negative ints: ``(B, bins)``."""
    batch = values.shape[0]
    if batch == 0 or values.shape[1] == 0:
        return np.zeros((batch, bins), dtype=np.int64)
    offsets = (np.arange(batch, dtype=np.int64) * bins)[:, None]
    flat = np.bincount((values + offsets).ravel(), minlength=batch * bins)
    return flat.reshape(batch, bins).astype(np.int64, copy=False)


def scan_threshold_counts(
    method: str,
    writes: np.ndarray,
    ms: Sequence[int],
    warmup: int = 0,
) -> np.ndarray:
    """Event counts of T1m/T2m for every m: ``(len(ms), B, 6)``.

    T1m's classification of a request depends only on its position in
    the current read run (and, for writes, on the length of the
    directly preceding read run); T2m is the write-run mirror.  Two
    clipped run-length histograms per row are therefore a sufficient
    statistic for *all* thresholds at once:

    * reads with position ``p``: remote iff ``p <= m`` (T1m) — a
      cumulative histogram lookup per m;
    * writes after a read run of length ``l``: delete-request iff
      ``l >= m`` (T1m) — a suffix-sum lookup per m;

    and symmetrically for T2m (propagate if ``q < m``, propagate+
    deallocate if ``q == m``, remote read iff the preceding write run
    reached m).  Run positions are computed over the *full* schedule
    (run structure crosses the warmup boundary); histograms cover only
    the counted region ``warmup..N``.
    """
    writes = _as_matrix(writes)
    method = method.strip().lower()
    if method not in ("t1", "t2"):
        raise InvalidParameterError(
            f"threshold method must be 't1' or 't2', got {method!r}"
        )
    ms = [ensure_threshold(m) for m in ms]
    batch, length = writes.shape
    warmup = ensure_warmup(warmup, length)
    out = np.zeros((len(ms), batch, _NUM_KINDS), dtype=np.int64)
    if warmup == length:
        return out
    max_m = max(ms) if ms else 1
    bins = max_m + 2  # positions clip at max_m + 1; bin 0 is "not ours"

    if method == "t1":
        position = _read_run_positions_matrix(writes)
        run_mask, opposite = ~writes, writes
    else:
        position = _write_run_positions_matrix(writes)
        run_mask, opposite = writes, ~writes
    clipped = np.minimum(position, max_m + 1)

    # Histogram H[p]: requests *of the run's operation* at position p
    # (reads for T1, writes for T2), counted region only.  Bin 0 holds
    # the opposite-operation filler and is zeroed before accumulation
    # (real run positions are 1-based).
    own = np.where(run_mask, clipped, 0)[:, warmup:]
    hist = _offset_bincount(own, bins)
    hist[:, 0] = 0
    cum_hist = np.cumsum(hist, axis=1)
    total_own = cum_hist[:, -1]

    # Histogram G[l]: requests of the *opposite* operation directly
    # following a run of length l (the boundary statistic).
    boundary = np.zeros(writes.shape, dtype=np.int64)
    boundary[:, 1:] = np.where(
        opposite[:, 1:] & run_mask[:, :-1], clipped[:, :-1], 0
    )
    boundary = boundary[:, warmup:]
    ghist = _offset_bincount(boundary, bins)
    ghist[:, 0] = 0
    gcum = np.cumsum(ghist, axis=1)
    gtotal = gcum[:, -1]
    total_opposite = np.count_nonzero(opposite[:, warmup:], axis=1).astype(
        np.int64
    )

    for slot, m in enumerate(ms):
        saturated_boundary = gtotal - gcum[:, m - 1]  # runs of length >= m
        if method == "t1":
            remote = cum_hist[:, m]  # reads with p <= m
            out[slot, :, _REMOTE_READ] = remote
            out[slot, :, _LOCAL_READ] = total_own - remote
            out[slot, :, _WRITE_DELETE_REQUEST] = saturated_boundary
            out[slot, :, _WRITE_NO_COPY] = total_opposite - saturated_boundary
        else:
            propagated = cum_hist[:, m - 1]  # writes with q < m
            deallocate = hist[:, m]  # writes with q == m
            out[slot, :, _WRITE_PROPAGATED] = propagated
            out[slot, :, _WRITE_PROPAGATED_DEALLOCATE] = deallocate
            out[slot, :, _WRITE_NO_COPY] = total_own - propagated - deallocate
            out[slot, :, _REMOTE_READ] = saturated_boundary
            out[slot, :, _LOCAL_READ] = total_opposite - saturated_boundary
    return out


def scan_omega_totals(
    counts: np.ndarray, omegas: Sequence[float]
) -> np.ndarray:
    """Message-model totals for every ω: ``(len(omegas), B)``.

    Under :class:`~repro.costmodels.message.MessageCostModel` every
    price is ``data_weight + ω·control_weight``, so the per-kind count
    matrix is a sufficient statistic for the whole ω axis — each ω is
    an O(B) kind-order accumulation, byte-identical to pricing the
    counts under ``MessageCostModel(ω)`` directly.
    """
    counts = np.asarray(counts)
    out = np.empty((len(omegas), *counts.shape[:-1]), dtype=np.float64)
    for slot, omega in enumerate(omegas):
        out[slot] = batched_totals(counts, MessageCostModel(float(omega)))
    return out
