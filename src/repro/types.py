"""Domain types shared across the library.

The paper's model (section 3) deals with a single data item ``x``, a
mobile computer (MC) and a stationary computer (SC).  The *relevant*
requests are reads issued at the MC and writes issued at the SC; all
other requests have a fixed cost regardless of the allocation scheme
and are therefore ignored by the analysis.  A :class:`Schedule` is a
finite sequence of relevant requests.

The multi-object extension (section 7.2) generalizes a request to an
operation over a *set* of objects; :class:`Request` carries an optional
frozenset of object names for that case and leaves it empty for the
single-object model.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import InvalidParameterError, InvalidScheduleError

__all__ = [
    "Operation",
    "Origin",
    "AllocationScheme",
    "Request",
    "Schedule",
    "READ",
    "WRITE",
    "write_bits",
]


class Operation(enum.Enum):
    """The two relevant operation kinds of the paper's model."""

    READ = "r"
    WRITE = "w"

    @property
    def symbol(self) -> str:
        """Single-character symbol used in compact schedule strings."""
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operation":
        """Parse ``'r'``/``'w'`` (case-insensitive) into an operation."""
        lowered = symbol.lower()
        if lowered == "r":
            return cls.READ
        if lowered == "w":
            return cls.WRITE
        raise InvalidScheduleError(
            f"unknown operation symbol {symbol!r}; expected 'r' or 'w'"
        )

    def __str__(self) -> str:
        return self.value


#: Convenience aliases so call sites can say ``READ``/``WRITE`` directly.
READ = Operation.READ
WRITE = Operation.WRITE


class Origin(enum.Enum):
    """Where a request is issued.

    In the single-object model the origin is implied by the operation
    (reads come from the mobile computer, writes from the stationary
    computer), but the protocol simulator needs it explicitly.
    """

    MOBILE = "mc"
    STATIONARY = "sc"


class AllocationScheme(enum.Enum):
    """The two possible allocation schemes for a data item (section 1).

    ``ONE_COPY``  — only the stationary computer holds ``x``.
    ``TWO_COPIES`` — both the stationary and the mobile computer hold it.
    """

    ONE_COPY = 1
    TWO_COPIES = 2

    @property
    def mobile_has_copy(self) -> bool:
        """Whether the mobile computer holds a replica under this scheme."""
        return self is AllocationScheme.TWO_COPIES


@dataclass(frozen=True)
class Request:
    """One relevant request.

    Attributes
    ----------
    operation:
        :data:`READ` or :data:`WRITE`.
    timestamp:
        Logical or simulated-clock time at which the request is issued.
        Purely informational for the abstract cost analysis; the
        discrete-event simulator fills it with arrival times.
    objects:
        Names of the objects touched by the operation.  Empty for the
        single-object model (the implicit item ``x``).
    """

    operation: Operation
    timestamp: float = 0.0
    objects: Tuple[str, ...] = ()

    @property
    def is_read(self) -> bool:
        return self.operation is Operation.READ

    @property
    def is_write(self) -> bool:
        return self.operation is Operation.WRITE

    @property
    def origin(self) -> Origin:
        """Implied origin: reads at the MC, writes at the SC (section 3)."""
        return Origin.MOBILE if self.is_read else Origin.STATIONARY

    def __str__(self) -> str:
        return self.operation.symbol


class Schedule(Sequence[Request]):
    """An immutable finite sequence of relevant requests (section 3).

    Schedules support the compact string notation used throughout the
    paper, e.g. ``Schedule.from_string("wrrrwrw")`` builds the example
    schedule ``w, r, r, r, w, r, w`` from section 3.
    """

    __slots__ = ("_requests", "_write_mask", "_content_digest")

    def __init__(self, requests: Iterable[Request] = ()):
        self._requests: Tuple[Request, ...] = tuple(requests)
        self._write_mask: Optional[np.ndarray] = None
        self._content_digest: Optional[str] = None
        for position, request in enumerate(self._requests):
            if not isinstance(request, Request):
                raise InvalidScheduleError(
                    f"schedule element {position} is {type(request).__name__}, "
                    "expected Request"
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Schedule":
        """Build a schedule from a string of ``r``/``w`` symbols.

        Whitespace, commas and semicolons are ignored so that the
        paper's notation ``"w; r; r; r; w; r; w"`` parses directly.
        """
        cleaned = (c for c in text if c not in " ,;\t\n")
        return cls(Request(Operation.from_symbol(c)) for c in cleaned)

    @classmethod
    def from_operations(cls, operations: Iterable[Operation]) -> "Schedule":
        """Build a schedule from bare operations (timestamps all zero)."""
        return cls(Request(op) for op in operations)

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Schedule(self._requests[index])
        return self._requests[index]

    def __add__(self, other: "Schedule") -> "Schedule":
        if not isinstance(other, Schedule):
            return NotImplemented
        return Schedule(self._requests + other._requests)

    def __mul__(self, repeats: int) -> "Schedule":
        if not isinstance(repeats, int):
            return NotImplemented
        if repeats < 0:
            raise InvalidScheduleError("cannot repeat a schedule a negative number of times")
        return Schedule(self._requests * repeats)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.operations() == other.operations()

    def __hash__(self) -> int:
        return hash(self.operations())

    def __repr__(self) -> str:
        return f"Schedule({self.to_string()!r})"

    # -- accessors -----------------------------------------------------

    def to_string(self) -> str:
        """Compact ``r``/``w`` string form."""
        return "".join(r.operation.symbol for r in self._requests)

    def operations(self) -> Tuple[Operation, ...]:
        """The bare operation sequence (no timestamps/objects)."""
        return tuple(r.operation for r in self._requests)

    def write_mask(self) -> np.ndarray:
        """Read-only boolean array, one ``True`` per write.

        This is the input the batched kernels consume.  It is
        computed once and cached (the schedule is immutable); the bulk
        workload generators pre-fill it at construction, so million-
        request sweeps never pay a per-request Python conversion loop.
        """
        if self._write_mask is None:
            mask = np.fromiter(
                (r.operation is Operation.WRITE for r in self._requests),
                dtype=bool,
                count=len(self._requests),
            )
            mask.setflags(write=False)
            self._write_mask = mask
        return self._write_mask

    def _prefill_write_mask(self, mask: np.ndarray) -> None:
        """Install a precomputed write mask (workload generators only).

        The caller vouches that ``mask[i]`` is true iff request ``i``
        is a write; the array is frozen to protect the cache.
        """
        if mask.shape != (len(self._requests),) or mask.dtype != np.bool_:
            raise InvalidScheduleError(
                f"write mask must be a bool array of length "
                f"{len(self._requests)}, got {mask.dtype} {mask.shape}"
            )
        mask = mask.copy()
        mask.setflags(write=False)
        self._write_mask = mask

    def content_digest(self) -> str:
        """SHA-256 over the schedule's content; cached (immutability).

        Covers the operation sequence (bit-packed write mask), the
        timestamps when any are non-zero, and the object sets when any
        request names objects — everything an execution backend can
        observe.  This is the schedule half of the content-addressed
        result-cache key.
        """
        if self._content_digest is None:
            import hashlib

            digest = hashlib.sha256(b"repro-schedule/1")
            digest.update(str(len(self._requests)).encode())
            digest.update(b";")
            digest.update(np.packbits(self.write_mask()).tobytes())
            if any(r.timestamp for r in self._requests):
                digest.update(b"|ts|")
                times = np.fromiter(
                    (r.timestamp for r in self._requests),
                    dtype=np.float64,
                    count=len(self._requests),
                )
                digest.update(times.tobytes())
            if any(r.objects for r in self._requests):
                digest.update(b"|obj|")
                digest.update(
                    repr(tuple(r.objects for r in self._requests)).encode()
                )
            self._content_digest = digest.hexdigest()
        return self._content_digest

    @property
    def read_count(self) -> int:
        return sum(1 for r in self._requests if r.is_read)

    @property
    def write_count(self) -> int:
        return sum(1 for r in self._requests if r.is_write)

    @property
    def write_fraction(self) -> float:
        """Empirical write fraction; the finite-sample analogue of θ."""
        if not self._requests:
            raise InvalidScheduleError("write fraction of an empty schedule is undefined")
        return self.write_count / len(self._requests)

    def with_timestamps(self, timestamps: Sequence[float]) -> "Schedule":
        """Return a copy whose requests carry the given arrival times."""
        if len(timestamps) != len(self._requests):
            raise InvalidScheduleError(
                f"got {len(timestamps)} timestamps for {len(self._requests)} requests"
            )
        previous = float("-inf")
        stamped: List[Request] = []
        for request, time in zip(self._requests, timestamps):
            if time < previous:
                raise InvalidScheduleError("timestamps must be non-decreasing")
            previous = time
            stamped.append(Request(request.operation, float(time), request.objects))
        return Schedule(stamped)


def write_bits(schedule) -> np.ndarray:
    """Boolean write mask of any request sequence — the one conversion.

    For a :class:`Schedule` this is the cached (immutable) mask; for a
    bare sequence of requests it is computed on the fly.  Every mask
    consumer — the batched kernels, the sweep executor's wire form, the
    protocol verifier — goes through here so the uint8/bool conversion
    exists in exactly one place.
    """
    if isinstance(schedule, Schedule):
        return schedule.write_mask()
    return np.fromiter(
        (request.is_write for request in schedule),
        dtype=bool,
        count=len(schedule),
    )


def ensure_integer(value, name: str) -> int:
    """``value`` as a plain int; numpy integers pass, floats and bools raise.

    ``operator.index`` instead of ``int()``: a float parameter such as
    ``3.7`` is a caller error, never a silent truncation to 3.
    """
    if isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be an int, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(
            f"{name} must be an int, got {value!r}"
        ) from None


def ensure_odd_window(k: int) -> int:
    """Validate a sliding-window size (the paper assumes odd ``k``).

    Returns ``k`` as a plain int so call sites can write
    ``self._k = ensure_odd_window(k)``.
    """
    k = ensure_integer(k, "window size")
    if k < 1:
        raise InvalidParameterError(f"window size must be >= 1, got {k}")
    if k % 2 == 0:
        raise InvalidParameterError(
            f"window size must be odd (section 4 of the paper), got {k}"
        )
    return k


def ensure_warmup(warmup: int, length: int) -> int:
    """Validate a warmup: an int with ``0 <= warmup <= length``."""
    warmup = ensure_integer(warmup, "warmup")
    if warmup < 0:
        raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
    if warmup > length:
        raise InvalidParameterError(
            f"warmup {warmup} exceeds the schedule length {length}"
        )
    return warmup


def ensure_probability(value: float, name: str = "theta") -> float:
    """Validate that ``value`` lies in the closed unit interval."""
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
    return number
