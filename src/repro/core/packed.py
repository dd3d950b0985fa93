"""Bit-packed write masks and popcount kernels.

The batched kernels of :mod:`repro.core.batched` operate on ``(B, N)``
boolean write matrices — one byte per request.  A parameter grid of
256 schedules × 100k requests is therefore 25.6 MB of mask before any
kernel runs.  This module stores the same information 8 requests per
byte (:class:`PackedMasks`, ``np.packbits`` layout, 3.2 MB for the
same grid) and evaluates the hot aggregations *directly on the packed
bytes* with popcounts:

* per-kind event **counts** for ST1/ST2/SW1/SWk (including the
  unoptimized k = 1 window, ``sw1-unoptimized``) are boolean
  combinations of the write mask, the replica flags and their
  one-request shift — each combination is a masked popcount over
  ``N/8`` bytes instead of a ``(B, N)`` int64 code materialization
  plus a bincount;
* the SWk **rolling window count** comes from a packed prefix sum: a
  per-byte popcount cumsum plus a 256×8 within-byte prefix lookup
  table recovers the per-position cumulative write count without ever
  unpacking the mask (``np.bitwise_count`` when numpy provides it,
  the lookup table otherwise);
* T1m/T2m decide on **run products**: a request's event depends only
  on whether the last ``m`` (or ``m + 1``) requests were all reads (or
  all writes), which is the AND of ``m`` shifted copies of the packed
  row, built by doubling in O(log m) shifts;
* **scheme flips** are the popcount of the replica-flag sequence XOR
  its one-bit shift.

No family unpacks.  Every count needs only a handful of packed-sized
temporaries, whatever ``m`` is; SWk's prefix sum is the one array with
an entry per request.

The contract is the usual one: every number produced here is equal —
bit for bit once priced — to the per-schedule reference replay.  The
byte-identity suite in ``tests/test_packed.py`` sweeps packed against
unpacked against the engine for every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..costmodels.base import EVENT_KIND_ORDER
from ..exceptions import InvalidParameterError, UnknownAlgorithmError
from ..types import ensure_warmup
from .session import AlgorithmSpec, parse_algorithm_name

__all__ = [
    "PackedMasks",
    "pack_write_masks",
    "popcount_bytes",
    "packed_cumulative",
    "packed_run_counts",
    "accumulator_dtype",
    "kernel_spec",
]

_NUM_KINDS = len(EVENT_KIND_ORDER)

#: Integer event codes: each kind's index in ``EVENT_KIND_ORDER``.
_LOCAL_READ, _REMOTE_READ, _WRITE_NO_COPY = 0, 1, 2
_WRITE_PROPAGATED, _WRITE_PROPAGATED_DEALLOCATE = 3, 4
_WRITE_DELETE_REQUEST = 5

#: ``np.bitwise_count`` landed in numpy 2.0; older numpys fall back to
#: a 256-entry lookup table (same result, one extra gather).
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT_LUT = np.array(
    [value.bit_count() for value in range(256)], dtype=np.uint8
)

#: ``_PREFIX_LUT[byte, j]`` = popcount of the byte's first ``j + 1``
#: bits in packbits order (MSB = earliest request).  The within-byte
#: half of the packed prefix sum.
_PREFIX_LUT = np.zeros((256, 8), dtype=np.uint8)
for _value in range(256):
    _running = 0
    for _bit in range(8):
        _running += (_value >> (7 - _bit)) & 1
        _PREFIX_LUT[_value, _bit] = _running
del _value, _running, _bit

#: Longest schedule whose SWk window counts provably fit int32: the
#: count never exceeds ``length + k`` and ``k <= length``, so staying
#: below half the int32 range keeps every accumulator exact.  Longer
#: schedules promote to int64 (see :func:`accumulator_dtype`) instead
#: of overflowing silently — the counting mirror of the simulator's
#: ``max_events`` runaway guard.
_INT32_SAFE_LENGTH = (2**31 - 1) // 2


def accumulator_dtype(length: int):
    """int32 while provably exact for ``length``, int64 past that."""
    if length < 0:
        raise InvalidParameterError(f"length must be >= 0, got {length}")
    return np.int32 if length <= _INT32_SAFE_LENGTH else np.int64


def popcount_bytes(values: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a uint8 array."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(values)
    return _POPCOUNT_LUT[values]


@dataclass(frozen=True)
class PackedMasks:
    """``(B, N)`` write masks stored 8-per-byte (``np.packbits`` order).

    ``bits[b, i // 8]`` holds requests ``8i .. 8i + 7`` of row ``b``,
    earliest request in the most significant bit; pad bits past
    ``length`` are zero.  Rows slice without copying (:meth:`rows`),
    so the tile scheduler hands threads views of one shared buffer.
    """

    bits: np.ndarray
    length: int

    def __post_init__(self):
        bits = self.bits
        if bits.ndim != 2 or bits.dtype != np.uint8:
            raise InvalidParameterError(
                f"packed masks must be (B, ceil(N/8)) uint8, got "
                f"{bits.dtype} {bits.shape}"
            )
        if bits.shape[1] != (self.length + 7) // 8:
            raise InvalidParameterError(
                f"{bits.shape[1]} packed bytes cannot hold length "
                f"{self.length} (expected {(self.length + 7) // 8})"
            )

    @property
    def batch(self) -> int:
        return self.bits.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        """The logical ``(B, N)`` shape of the unpacked matrix."""
        return (self.bits.shape[0], self.length)

    @property
    def nbytes(self) -> int:
        """Packed footprint in bytes (the 1/8 of the bool matrix)."""
        return self.bits.nbytes

    @classmethod
    def from_bool(cls, writes: np.ndarray) -> "PackedMasks":
        writes = np.asarray(writes)
        if writes.ndim != 2 or writes.dtype != np.bool_:
            raise InvalidParameterError(
                f"expected a (B, N) bool write matrix, got "
                f"{writes.dtype} {writes.shape}"
            )
        return cls(np.packbits(writes, axis=1), writes.shape[1])

    def to_bool(self) -> np.ndarray:
        """Unpack back to the ``(B, N)`` bool matrix (a copy)."""
        if self.length == 0:
            return np.empty((self.batch, 0), dtype=bool)
        flat = np.unpackbits(self.bits, axis=1, count=self.length)
        return flat.view(np.bool_)

    def rows(self, start: int, stop: int) -> "PackedMasks":
        """A zero-copy view of rows ``start..stop`` (tile slicing)."""
        return PackedMasks(self.bits[start:stop], self.length)


def pack_write_masks(writes: np.ndarray) -> PackedMasks:
    """Pack a ``(B, N)`` bool matrix 8-per-byte."""
    return PackedMasks.from_bool(writes)


def kernel_spec(algorithm: Union[str, AlgorithmSpec]) -> AlgorithmSpec:
    """The kernel spec of ``algorithm``: the one place a name is parsed.

    An :class:`~repro.core.session.AlgorithmSpec` is returned unchanged,
    so callers that already hold one (a service group, the adaptive
    allocator's candidates) never re-parse; a name is parsed, and an
    uncovered one raises :class:`~repro.exceptions.UnknownAlgorithmError`.
    The kernels cover exactly the session-hostable families —
    ``sw1-unoptimized`` is SWk at k = 1 — so every algorithm the
    allocation service can host, the kernels can decide.  The
    estimators carry sequential state and stay on the reference replay;
    the adaptive allocator is not a kernel family either, but its fresh
    runs reach the batched kernels through its two-pass ``run_mask``.
    """
    if isinstance(algorithm, AlgorithmSpec):
        return algorithm
    spec = parse_algorithm_name(algorithm)
    if spec is None:
        raise UnknownAlgorithmError(
            f"no kernel for {algorithm!r}; use repro.engine"
        )
    return spec


# ---------------------------------------------------------------------------
# Bit plumbing
# ---------------------------------------------------------------------------


def _range_mask(length: int, start: int, nbytes: int) -> np.ndarray:
    """Packed ``(nbytes,)`` mask selecting positions ``start..length-1``."""
    flags = np.zeros(nbytes * 8, dtype=bool)
    flags[min(start, length):length] = True
    return np.packbits(flags)


def _shift_right(bits: np.ndarray, s: int, fill: bool = False) -> np.ndarray:
    """The bit sequence delayed by ``s`` positions (``out[i] = in[i-s]``).

    ``fill`` supplies positions ``0..s-1``.  Bits only ever move to later
    positions, so pad bits never reach a real request — and every
    consumer masks with a range mask before popcounting anyway.
    """
    nbytes = bits.shape[1]
    whole, part = divmod(s, 8)
    out = np.full(bits.shape, 0xFF if fill else 0, dtype=np.uint8)
    if whole >= nbytes:
        return out
    source = bits[:, :nbytes - whole]
    target = out[:, whole:]
    if not part:
        target[...] = source
        return out
    np.right_shift(source, part, out=target)
    target[:, 1:] |= (source[:, :-1] & ((1 << part) - 1)) << (8 - part)
    if fill:
        target[:, 0] |= (0xFF << (8 - part)) & 0xFF
    return out


def _all_set_runs(bits: np.ndarray, m: int) -> np.ndarray:
    """``out[i]`` = bits ``i-m+1 .. i`` are all set (``m >= 1``).

    Positions before 0 count as unset.  Built by doubling, in
    O(log m) shifts: the run of ``a + b`` ends at ``i`` iff the run of
    ``a`` does and the run of ``b`` ends at ``i - a``.
    """
    run, run_length = None, 0
    power, power_length = bits, 1
    while True:
        if m & power_length:
            run = (
                power if run is None
                else run & _shift_right(power, run_length)
            )
            run_length += power_length
            if run_length == m:
                return run
        power = power & _shift_right(power, power_length)
        power_length *= 2


def _masked_popcount(operand: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Row popcounts of ``operand & valid``: ``(B,)`` int64."""
    return popcount_bytes(operand & valid).sum(axis=1, dtype=np.int64)


def packed_cumulative(packed: PackedMasks, dtype=None) -> np.ndarray:
    """Per-position inclusive write count from the packed bytes.

    ``out[b, i]`` equals ``np.cumsum(writes[b])[i]`` — computed as a
    per-byte popcount cumsum (the across-byte half) plus the 256×8
    within-byte prefix table (the within-byte half), never touching an
    unpacked mask.  This is the sufficient statistic for every SWk
    window size and the packed replacement for the bool cumsum.
    """
    if dtype is None:
        dtype = accumulator_dtype(packed.length)
    batch, length = packed.shape
    if length == 0:
        return np.empty((batch, 0), dtype=dtype)
    byte_pop = popcount_bytes(packed.bits).astype(dtype)
    exclusive = np.cumsum(byte_pop, axis=1, dtype=dtype)
    exclusive -= byte_pop
    within = _PREFIX_LUT[packed.bits]
    cumulative = (exclusive[:, :, None] + within).reshape(
        batch, 8 * packed.bits.shape[1]
    )
    return cumulative[:, :length]


def _window_copy_after(cumulative: np.ndarray, k: int) -> np.ndarray:
    """SWk replica flags from a shared cumulative write count.

    Same recurrence as the unpacked kernel: the window right after
    request ``i`` holds a copy iff its write majority fails, with
    virtual leading writes filling the initial window.
    """
    n = (k - 1) // 2
    length = cumulative.shape[1]
    count_after = np.empty(cumulative.shape, dtype=cumulative.dtype)
    count_after[:, k:] = cumulative[:, k:] - cumulative[:, :-k]
    lead = min(k, length)
    count_after[:, :lead] = cumulative[:, :lead] + np.arange(
        k - 1, k - 1 - lead, -1, dtype=cumulative.dtype
    )
    return count_after <= n


# ---------------------------------------------------------------------------
# Popcount count kernels
# ---------------------------------------------------------------------------


def _flips(copy_bits: np.ndarray, nbytes: int, length: int) -> np.ndarray:
    """Scheme changes per row: popcount of flags XOR their shift."""
    if length <= 1:
        return np.zeros(copy_bits.shape[0], dtype=np.int64)
    interior = _range_mask(length, 1, nbytes)
    return _masked_popcount(copy_bits ^ _shift_right(copy_bits, 1), interior)


def _static_counts(packed: PackedMasks, warmup: int, two_copies: bool):
    bits = packed.bits
    valid = _range_mask(packed.length, warmup, bits.shape[1])
    counts = np.zeros((packed.batch, _NUM_KINDS), dtype=np.int64)
    write_kind = _WRITE_PROPAGATED if two_copies else _WRITE_NO_COPY
    read_kind = _LOCAL_READ if two_copies else _REMOTE_READ
    counts[:, write_kind] = _masked_popcount(bits, valid)
    counts[:, read_kind] = _masked_popcount(~bits, valid)
    flips = np.zeros(packed.batch, dtype=np.int64)
    return counts, flips


def _sw1_counts(packed: PackedMasks, warmup: int):
    bits = packed.bits
    nbytes = bits.shape[1]
    valid = _range_mask(packed.length, warmup, nbytes)
    # had_copy[i] = not writes[i-1]; the initial window is all writes.
    had = _shift_right(~bits, 1)
    counts = np.zeros((packed.batch, _NUM_KINDS), dtype=np.int64)
    counts[:, _LOCAL_READ] = _masked_popcount(~bits & had, valid)
    counts[:, _REMOTE_READ] = _masked_popcount(~bits & ~had, valid)
    counts[:, _WRITE_NO_COPY] = _masked_popcount(bits & ~had, valid)
    counts[:, _WRITE_DELETE_REQUEST] = _masked_popcount(bits & had, valid)
    # copy_after = ~writes; ~W XOR shift(~W) == W XOR shift(W) on the
    # interior positions the flip mask keeps.
    return counts, _flips(~bits, nbytes, packed.length)


def _swk_counts_from_copy(
    packed: PackedMasks, copy_bits: np.ndarray, warmup: int
):
    """SWk per-kind counts from packed writes + packed replica flags.

    The SWk code of a request is a pure function of (write?, had
    copy?, copy after?) — each of the five reachable combinations is
    one masked popcount.
    """
    bits = packed.bits
    nbytes = bits.shape[1]
    valid = _range_mask(packed.length, warmup, nbytes)
    had = _shift_right(copy_bits, 1)
    counts = np.zeros((packed.batch, _NUM_KINDS), dtype=np.int64)
    counts[:, _LOCAL_READ] = _masked_popcount(~bits & had, valid)
    counts[:, _REMOTE_READ] = _masked_popcount(~bits & ~had, valid)
    counts[:, _WRITE_NO_COPY] = _masked_popcount(bits & ~had, valid)
    counts[:, _WRITE_PROPAGATED] = _masked_popcount(
        bits & had & copy_bits, valid
    )
    counts[:, _WRITE_PROPAGATED_DEALLOCATE] = _masked_popcount(
        bits & had & ~copy_bits, valid
    )
    return counts, _flips(copy_bits, nbytes, packed.length)


def _swk_counts(packed: PackedMasks, k: int, warmup: int):
    cumulative = packed_cumulative(packed)
    copy_bits = np.packbits(_window_copy_after(cumulative, k), axis=1)
    return _swk_counts_from_copy(packed, copy_bits, warmup)


def _t1_counts(packed: PackedMasks, m: int, warmup: int):
    """T1m from the reads' run products.

    ``R_m[i]`` says requests ``i-m+1 .. i`` were all reads: the MC holds
    a copy after ``i`` iff ``R_m[i]``, a read is local iff it extends a
    read run past ``m`` (``R_{m+1}``), and a write sends a delete
    request iff a copy was held before it.
    """
    bits = packed.bits
    nbytes = bits.shape[1]
    valid = _range_mask(packed.length, warmup, nbytes)
    reads = ~bits
    copy_bits = _all_set_runs(reads, m)
    local = copy_bits & _shift_right(reads, m)
    had = _shift_right(copy_bits, 1)
    counts = np.zeros((packed.batch, _NUM_KINDS), dtype=np.int64)
    counts[:, _LOCAL_READ] = _masked_popcount(local, valid)
    counts[:, _REMOTE_READ] = _masked_popcount(reads & ~local, valid)
    counts[:, _WRITE_DELETE_REQUEST] = _masked_popcount(bits & had, valid)
    counts[:, _WRITE_NO_COPY] = _masked_popcount(bits & ~had, valid)
    return counts, _flips(copy_bits, nbytes, packed.length)


def _t2_counts(packed: PackedMasks, m: int, warmup: int):
    """T2m, the mirror: run products of the writes.

    ``W_m[i]`` says requests ``i-m+1 .. i`` were all writes: the write
    closing a run of ``m`` propagates and deallocates, later ones find
    no copy, earlier ones propagate, and a read is remote iff the copy
    was lost before it (the MC holds one after ``i`` iff not ``W_m[i]``).
    """
    bits = packed.bits
    nbytes = bits.shape[1]
    valid = _range_mask(packed.length, warmup, nbytes)
    lost = _all_set_runs(bits, m)
    beyond = lost & _shift_right(bits, m)
    lost_before = _shift_right(lost, 1)
    reads = ~bits
    counts = np.zeros((packed.batch, _NUM_KINDS), dtype=np.int64)
    counts[:, _WRITE_PROPAGATED] = _masked_popcount(bits & ~lost, valid)
    counts[:, _WRITE_PROPAGATED_DEALLOCATE] = _masked_popcount(
        lost & ~beyond, valid
    )
    counts[:, _WRITE_NO_COPY] = _masked_popcount(beyond, valid)
    counts[:, _REMOTE_READ] = _masked_popcount(reads & lost_before, valid)
    counts[:, _LOCAL_READ] = _masked_popcount(reads & ~lost_before, valid)
    # The copy flags are ~W_m, which flips exactly where W_m does.
    return counts, _flips(lost, nbytes, packed.length)


def packed_run_counts(
    algorithm: Union[str, AlgorithmSpec], packed: PackedMasks, warmup: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-kind event counts and scheme flips, straight off the bits.

    Returns ``(counts, flips)`` — ``(B, 6)`` int64 counts over
    requests ``warmup..N`` (row ``b`` equal to the per-schedule
    backends' counts) and ``(B,)`` int64 scheme-change totals over the
    full rows.  This is the streaming aggregation a counts-only batch
    needs, with no ``(B, N)`` code matrix in between.  ``algorithm``
    is a name or a parsed spec (see :func:`kernel_spec`).
    """
    if not isinstance(packed, PackedMasks):
        raise InvalidParameterError(
            f"packed_run_counts takes PackedMasks, got {type(packed).__name__}"
        )
    spec = kernel_spec(algorithm)
    warmup = ensure_warmup(warmup, packed.length)
    if packed.length == 0:
        return (
            np.zeros((packed.batch, _NUM_KINDS), dtype=np.int64),
            np.zeros(packed.batch, dtype=np.int64),
        )
    if spec.family in ("st1", "st2"):
        return _static_counts(packed, warmup, two_copies=spec.family == "st2")
    if spec.family == "sw1":
        return _sw1_counts(packed, warmup)
    if spec.family == "swk":
        return _swk_counts(packed, spec.param, warmup)
    if spec.family == "t1":
        return _t1_counts(packed, spec.param, warmup)
    return _t2_counts(packed, spec.param, warmup)
