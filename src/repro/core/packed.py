"""Bit-packed write masks and popcount kernels.

The batched kernels of :mod:`repro.core.batched` operate on ``(B, N)``
boolean write matrices — one byte per request.  A parameter grid of
256 schedules × 100k requests is therefore 25.6 MB of mask before any
kernel runs.  This module stores the same information 8 requests per
byte (:class:`PackedMasks`, ``np.packbits`` layout, 3.2 MB for the
same grid) and evaluates the hot aggregations *directly on the packed
bytes* with popcounts:

* per-kind event **counts** for ST1/ST2/SW1/SWk are boolean
  combinations of the write mask, the replica flags and their
  one-request shift — each combination is a masked popcount over
  ``N/8`` bytes instead of a ``(B, N)`` int64 code materialization
  plus a bincount;
* the SWk **rolling window count** comes from a packed prefix sum: a
  per-byte popcount cumsum plus a 256×8 within-byte prefix lookup
  table recovers the per-position cumulative write count without ever
  unpacking the mask (``np.bitwise_count`` when numpy provides it,
  the lookup table otherwise);
* **scheme flips** are the popcount of the replica-flag sequence XOR
  its one-bit shift.

T1m/T2m classification depends on run *positions* (an inherently
per-position statistic), so their packed variants unpack tile-by-tile
and reuse the batched kernels — packed storage still pays for the
transport and the footprint, just not for the arithmetic.

The contract is the usual one: every number produced here is equal —
bit for bit once priced — to the per-schedule reference replay.  The
byte-identity suite in ``tests/test_packed.py`` sweeps packed against
unpacked against the engine for every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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
    """Pack a ``(B, N)`` bool matrix 8-per-byte.

    Schedules stack first through
    :func:`repro.core.batched.stack_write_masks`.
    """
    return PackedMasks.from_bool(writes)


def kernel_spec(algorithm_name: str) -> AlgorithmSpec:
    """Parse a kernel-covered algorithm name; raise if no kernel covers it.

    Raises :class:`~repro.exceptions.UnknownAlgorithmError` for uncovered
    names.  The kernels cover every session-hostable family except
    ``sw1-unoptimized``; the estimators and the adaptive allocator carry
    sequential state and stay on the reference replay.
    """
    spec = parse_algorithm_name(algorithm_name)
    if spec is None or spec.name == "sw1-unoptimized":
        raise UnknownAlgorithmError(
            f"no kernel for {algorithm_name!r}; use repro.engine"
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


def _shift_right_one(bits: np.ndarray, fill: bool = False) -> np.ndarray:
    """The bit sequence delayed by one position (``out[i] = in[i-1]``).

    ``fill`` supplies position 0.  Pad bits degrade gracefully — every
    consumer masks with a range mask before popcounting.
    """
    out = bits >> 1
    if bits.shape[1] > 1:
        out[:, 1:] |= (bits[:, :-1] & 1) << 7
    if fill and bits.shape[1]:
        out[:, 0] |= 0x80
    return out


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
    return _masked_popcount(copy_bits ^ _shift_right_one(copy_bits), interior)


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
    had = _shift_right_one(~bits, fill=False)
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
    had = _shift_right_one(copy_bits, fill=False)
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


def _threshold_counts(packed: PackedMasks, name: str, warmup: int):
    """T1m/T2m via tile unpack — run positions are per-position data."""
    from .batched import batched_counts, batched_run_arrays

    writes = packed.to_bool()
    codes, copy_after = batched_run_arrays(name, writes)
    counts = batched_counts(codes, warmup)
    if packed.length:
        flips = (copy_after[:, 1:] != copy_after[:, :-1]).sum(
            axis=1, dtype=np.int64
        )
    else:
        flips = np.zeros(packed.batch, dtype=np.int64)
    return counts, flips


def packed_run_counts(
    algorithm_name: str, packed: PackedMasks, warmup: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-kind event counts and scheme flips, straight off the bits.

    Returns ``(counts, flips)`` — ``(B, 6)`` int64 counts over
    requests ``warmup..N`` (row ``b`` equal to the per-schedule
    backends' counts) and ``(B,)`` int64 scheme-change totals over the
    full rows.  This is the streaming aggregation a counts-only batch
    needs, with no ``(B, N)`` code matrix in between.
    """
    if not isinstance(packed, PackedMasks):
        raise InvalidParameterError(
            f"packed_run_counts takes PackedMasks, got {type(packed).__name__}"
        )
    spec = kernel_spec(algorithm_name)
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
    return _threshold_counts(packed, spec.name, warmup)
