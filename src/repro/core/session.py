"""Incremental allocation sessions: one decision core, many hosts.

The ST/SW/T decision rules are hosted by the per-schedule online
algorithms of this package, the message-driven protocol deciders of
:mod:`repro.sim.policies`, the adaptive allocator of
:mod:`repro.core.adaptive` and the sharded allocation service of
:mod:`repro.service`.  This module is their single incremental core.

An :class:`AllocationSession` is one live state machine for one
(client, object) pair.  Its whole decision state is one encoding: the
*carry*, the last L request bits as an ``int`` (1 = write, the newest
request in bit 0, a shorter history padded per
:attr:`AlgorithmSpec.carry_fill`), plus the copy bit.  Section 4 of
the paper defines the SWk window as exactly such a bit sequence, and
the §7.1 threshold rules depend only on the current run.
``feed(op)`` shifts the request's bit into the carry and applies the
family rule — SWk's majority is a popcount of the carry, T1m allocates
when its m bits are all reads, T2m deallocates when they are all
writes — and returns one of a few interned :class:`Decision`
constants: the classified cost event plus the allocation transition.
The session's decision sequence is byte-identical to
:meth:`repro.core.base.AllocationAlgorithm.process` and, therefore, to
every engine backend.

The same ``(carry, copy)`` pair is what the service keeps in its
``carry``/``copy`` columns, what the SWk protocol deciders hand across
the wire when charge moves between the computers, and what the
adaptive allocator re-seeds a session from when it switches
configuration.  :meth:`AllocationSession.carry_bits` unpacks it for
the kernels: running the (stateless) batched kernels on
``[carry | chunk]`` and discarding the first L outputs classifies
``chunk`` exactly as feeding it op-by-op would — and the last L bits
of ``[carry | chunk]`` are the next carry.  The family-by-family
argument:

* ST1/ST2 are stateless (L = 0).
* SW1's scheme is "last request was a read" (L = 1); its rule is T1m's
  with m = 1.
* SWk classifies from the window of the last k requests; a fresh
  session's all-writes window is exactly the kernels' virtual-write
  convention for the first k positions, so left-padding a short
  history with writes reproduces it (L = k).
* T1m classifies reads from the position in the current read run,
  clipped at m (every position ≥ m behaves identically: the copy is
  held), and writes from whether the preceding read run reached m.
  The last m raw bits determine both clipped statistics; padding a
  short history with writes matches the fresh "broken run, no copy"
  state (L = m).
* T2m is the write-run mirror; padding with *reads* matches its fresh
  "copy held, run broken" state (L = m, fill = read).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..costmodels.base import CostEventKind
from ..exceptions import InvalidParameterError
from ..types import (
    AllocationScheme,
    Operation,
    ensure_integer,
    ensure_odd_window,
)

__all__ = [
    "AlgorithmSpec",
    "AllocationSession",
    "Decision",
    "ensure_threshold",
    "parse_algorithm_name",
    "popcount",
    "window_operations",
]

_SW_PATTERN = re.compile(r"^sw(\d+)$")
_T1_PATTERN = re.compile(r"^t1_(\d+)$")
_T2_PATTERN = re.compile(r"^t2_(\d+)$")


def ensure_threshold(m: int) -> int:
    """Validate a T1m/T2m threshold (a positive integer); returns an int."""
    m = ensure_integer(m, "threshold m")
    if m < 1:
        raise InvalidParameterError(f"threshold m must be >= 1, got {m}")
    return m


@dataclass(frozen=True)
class AlgorithmSpec:
    """The parsed identity of a session-hostable algorithm.

    ``family`` is one of ``"st1"``, ``"st2"``, ``"sw1"`` (the optimized
    one-request window), ``"swk"``, ``"t1"``, ``"t2"``; ``param`` is
    the window size k or the threshold m (0 for the parameterless
    families).  Validation happens at construction, so holding a spec
    means holding a legal configuration.
    """

    family: str
    param: int = 0

    def __post_init__(self):
        if self.family in ("st1", "st2", "sw1"):
            if self.param != 0:
                raise InvalidParameterError(
                    f"{self.family} takes no parameter, got {self.param}"
                )
        elif self.family == "swk":
            ensure_odd_window(self.param)
        elif self.family in ("t1", "t2"):
            ensure_threshold(self.param)
        else:
            raise InvalidParameterError(
                f"unknown algorithm family {self.family!r}"
            )

    @property
    def name(self) -> str:
        """The canonical registry/engine name of this configuration."""
        if self.family == "swk":
            # k = 1 without the delete-request optimization must not
            # share SW1's name: dispatch-by-name layers would silently
            # swap semantics.
            return f"sw{self.param}" if self.param > 1 else "sw1-unoptimized"
        if self.family in ("t1", "t2"):
            return f"{self.family}_{self.param}"
        return self.family

    @property
    def initial_mobile_has_copy(self) -> bool:
        """Whether a fresh session starts in the two-copies scheme."""
        return self.family in ("st2", "t2")

    @property
    def carry_length(self) -> int:
        """L: how many trailing history bits determine future decisions."""
        if self.family in ("st1", "st2"):
            return 0
        if self.family == "sw1":
            return 1
        return self.param

    @property
    def carry_fill(self) -> bool:
        """The write bit that pads a shorter-than-L history on the left.

        Writes for every family except T2m — a fresh T2m session holds
        the copy with a *broken write run*, which only an all-reads pad
        reproduces.
        """
        return self.family != "t2"

    def initial_carry(self) -> np.ndarray:
        """The carry bits of a freshly-constructed session."""
        return np.full(self.carry_length, self.carry_fill, dtype=bool)


def parse_algorithm_name(name: str) -> Optional[AlgorithmSpec]:
    """Parse an algorithm short name into a spec, or ``None``.

    Covers exactly the session-hostable families (``st1``, ``st2``,
    ``sw1``, ``sw1-unoptimized``, ``swK``, ``t1_M``, ``t2_M``); the
    estimator allocators (``ewma_P``, ``hswK_H``) have no incremental
    session core and return ``None``, as does anything unknown.
    """
    lowered = name.strip().lower()
    if lowered in ("st1", "st2", "sw1"):
        return AlgorithmSpec(lowered)
    if lowered == "sw1-unoptimized":
        return AlgorithmSpec("swk", 1)
    match = _SW_PATTERN.match(lowered)
    if match:
        return AlgorithmSpec("swk", int(match.group(1)))
    match = _T1_PATTERN.match(lowered)
    if match:
        return AlgorithmSpec("t1", int(match.group(1)))
    match = _T2_PATTERN.match(lowered)
    if match:
        return AlgorithmSpec("t2", int(match.group(1)))
    return None


@dataclass(frozen=True)
class Decision:
    """One served request: its cost event plus the allocation transition.

    ``allocated``/``deallocated`` flag the requests on which the scheme
    changed — the protocol adapters use them to know when to hand the
    window across the wire.
    """

    kind: CostEventKind
    mobile_has_copy: bool
    allocated: bool = False
    deallocated: bool = False


# Every decision any family can make; ``feed`` returns these interned
# constants instead of building a new Decision per request.
_REMOTE_READ = Decision(CostEventKind.REMOTE_READ, False)
_REMOTE_READ_ALLOCATE = Decision(
    CostEventKind.REMOTE_READ, True, allocated=True
)
_LOCAL_READ = Decision(CostEventKind.LOCAL_READ, True)
_WRITE_NO_COPY = Decision(CostEventKind.WRITE_NO_COPY, False)
_WRITE_PROPAGATED = Decision(CostEventKind.WRITE_PROPAGATED, True)
_WRITE_PROPAGATED_DEALLOCATE = Decision(
    CostEventKind.WRITE_PROPAGATED_DEALLOCATE, False, deallocated=True
)
_WRITE_DELETE_REQUEST = Decision(
    CostEventKind.WRITE_DELETE_REQUEST, False, deallocated=True
)


def popcount(bits: int) -> int:
    """The number of set bits of a non-negative int."""
    return bits.bit_count()


def window_operations(window: int, k: int) -> Tuple[Operation, ...]:
    """The low ``k`` bits of a window int as operations, oldest first."""
    return tuple(
        Operation.WRITE if window >> shift & 1 else Operation.READ
        for shift in range(k - 1, -1, -1)
    )


class AllocationSession:
    """One live allocation state machine: a carry int plus a copy bit.

    ``seed``
        An optional ``(carry, copy)`` pair to start from instead of the
        fresh state: ``carry`` holds the last L write bits (newest in
        bit 0) and ``copy`` whether the MC holds a replica.  The
        protocol deciders seed the side that takes charge from the
        carry handed across the wire; the adaptive allocator seeds a
        new configuration from its own history.
    """

    __slots__ = ("_spec", "_rule", "_mask", "_carry", "_copy")

    def __init__(
        self,
        spec: AlgorithmSpec,
        *,
        seed: Optional[Tuple[int, bool]] = None,
    ):
        if not isinstance(spec, AlgorithmSpec):
            raise InvalidParameterError(
                f"expected an AlgorithmSpec, got {spec!r}"
            )
        self._spec = spec
        self._rule = _RULES[spec.family]
        self._mask = (1 << spec.carry_length) - 1
        if seed is None:
            self._carry = self._mask if spec.carry_fill else 0
            self._copy = spec.initial_mobile_has_copy
            return
        carry, copy = seed
        carry = ensure_integer(carry, "seed carry")
        if not 0 <= carry <= self._mask:
            raise InvalidParameterError(
                f"seed carry {carry} does not fit in {spec.name}'s "
                f"{spec.carry_length} carry bits"
            )
        if not spec.carry_length and copy != spec.initial_mobile_has_copy:
            raise InvalidParameterError(
                f"{spec.name} never changes its scheme; cannot seed copy={copy}"
            )
        self._carry = carry
        self._copy = bool(copy)

    @classmethod
    def from_name(cls, name: str) -> "AllocationSession":
        """Build a fresh session from an algorithm short name."""
        from ..exceptions import UnknownAlgorithmError

        spec = parse_algorithm_name(name)
        if spec is None:
            raise UnknownAlgorithmError(
                f"no incremental session for algorithm {name!r}"
            )
        return cls(spec)

    # -- inspection -----------------------------------------------------

    @property
    def spec(self) -> AlgorithmSpec:
        return self._spec

    @property
    def mobile_has_copy(self) -> bool:
        return self._copy

    @property
    def scheme(self) -> AllocationScheme:
        if self._copy:
            return AllocationScheme.TWO_COPIES
        return AllocationScheme.ONE_COPY

    @property
    def carry(self) -> int:
        """The last L write bits, newest in bit 0 (the seed's ``carry``)."""
        return self._carry

    def carry_bits(self) -> np.ndarray:
        """The carry unpacked into write bits, oldest first (length L).

        Feeding the batched kernels ``[carry | chunk]`` with
        ``warmup=L`` classifies ``chunk`` exactly as ``feed`` would,
        and ``[carry | chunk][-L:]`` is the next carry — the encoding
        the sharded service uses to drain sessions in bulk.
        """
        carry = self._carry
        return np.array(
            [carry >> shift & 1
             for shift in range(self._spec.carry_length - 1, -1, -1)],
            dtype=bool,
        )

    def extra_signature(self) -> tuple:
        """The family-specific part of the decision-relevant state.

        SWk reports its window as operations, oldest first; T1m/T2m
        report the length of the run they are counting (reads while
        T1m has no copy, writes while T2m holds it, else 0), which is
        the trailing run of the carry.
        """
        family = self._spec.family
        if family == "swk":
            return window_operations(self._carry, self._spec.param)
        if family not in ("t1", "t2"):
            return ()
        if self._copy != (family == "t2"):
            return (0,)
        # The bits that end the run: writes for T1m, reads for T2m.
        stops = self._carry if family == "t1" else ~self._carry & self._mask
        if not stops:
            return (self._spec.param,)
        return ((stops & -stops).bit_length() - 1,)

    def state_signature(self) -> tuple:
        """Hashable snapshot of the full decision-relevant state."""
        return (self._copy,) + self.extra_signature()

    # -- the decision procedure ----------------------------------------

    def feed(self, operation: Operation) -> Decision:
        """Serve one relevant request: shift it into the carry, decide."""
        if operation is Operation.WRITE:
            write = 1
        elif operation is Operation.READ:
            write = 0
        else:
            raise InvalidParameterError(f"unknown operation: {operation!r}")
        self._carry = carry = (self._carry << 1 | write) & self._mask
        return self._rule(self, carry, write)

    def __repr__(self) -> str:
        return (
            f"<AllocationSession {self._spec.name!r} "
            f"scheme={self.scheme.name}>"
        )


# ---------------------------------------------------------------------------
# The family rules: (session, carry after the shift, write bit) -> Decision.
#
# A rule reads and updates only the session's copy bit; the carry has
# already been shifted.  The returned Decisions are the interned
# constants above, so serving a request allocates nothing.


def _st1_rule(session, carry, write):
    return _WRITE_NO_COPY if write else _REMOTE_READ


def _st2_rule(session, carry, write):
    return _WRITE_PROPAGATED if write else _LOCAL_READ


def _swk_rule(session, carry, write):
    # Reads hold the majority of the k-window iff at most k // 2 of
    # its bits are writes (k odd, so never a tie).
    if write:
        if not session._copy:
            return _WRITE_NO_COPY
        # The write is propagated to the replica.  If it flipped the
        # majority to writes, the MC deallocates and notifies.
        if carry.bit_count() <= session._spec.param >> 1:
            return _WRITE_PROPAGATED
        session._copy = False
        return _WRITE_PROPAGATED_DEALLOCATE
    if session._copy:
        return _LOCAL_READ
    # The read goes remote; if it flipped the majority to reads, the
    # SC piggybacks the copy and the window on the reply (free).
    if carry.bit_count() <= session._spec.param >> 1:
        session._copy = True
        return _REMOTE_READ_ALLOCATE
    return _REMOTE_READ


def _t1_rule(session, carry, write):
    # Also SW1's rule: with m = 1 "the last m requests are reads" is
    # "this request is a read", and the one-request window follows it.
    if write:
        if not session._copy:
            return _WRITE_NO_COPY
        # First write after the read burst: a delete-request drops the
        # replica without shipping data.
        session._copy = False
        return _WRITE_DELETE_REQUEST
    if session._copy:
        return _LOCAL_READ
    if not carry:
        # The m-th consecutive remote read piggybacks the copy.
        session._copy = True
        return _REMOTE_READ_ALLOCATE
    return _REMOTE_READ


def _t2_rule(session, carry, write):
    if not write:
        if session._copy:
            return _LOCAL_READ
        # First read after the write burst: re-acquire the replica.
        session._copy = True
        return _REMOTE_READ_ALLOCATE
    if not session._copy:
        return _WRITE_NO_COPY
    if carry == session._mask:
        # Only the MC can count *consecutive* writes, so the m-th write
        # is propagated and answered with the deallocation notice — the
        # same exchange SWk uses.
        session._copy = False
        return _WRITE_PROPAGATED_DEALLOCATE
    return _WRITE_PROPAGATED


_RULES = {
    "st1": _st1_rule,
    "st2": _st2_rule,
    "sw1": _t1_rule,
    "swk": _swk_rule,
    "t1": _t1_rule,
    "t2": _t2_rule,
}


# ---------------------------------------------------------------------------
# Adapter base for the classic per-schedule algorithm classes
# ---------------------------------------------------------------------------

from .base import AllocationAlgorithm  # noqa: E402  (after session types)

__all__.append("SessionBackedAlgorithm")


class SessionBackedAlgorithm(AllocationAlgorithm):
    """An :class:`AllocationAlgorithm` whose decisions come from a session.

    Subclasses implement :meth:`_make_session` (a fresh session with
    the constructor's configuration) and keep only presentation state —
    names, parameters for ``describe()``/``clone()``.  The request
    loop, the scheme transitions and the state signature all delegate
    to the session, so the decision rules exist exactly once; the
    initial scheme is the fresh session's.
    """

    def __init__(self):
        self._session = self._make_session()
        super().__init__(initial_scheme=self._session.scheme)

    @property
    def session(self) -> AllocationSession:
        """The live decision session behind this algorithm instance."""
        return self._session

    def _make_session(self) -> AllocationSession:
        raise NotImplementedError

    def _serve_read(self) -> CostEventKind:
        decision = self._session.feed(Operation.READ)
        self._mobile_has_copy = decision.mobile_has_copy
        return decision.kind

    def _serve_write(self) -> CostEventKind:
        decision = self._session.feed(Operation.WRITE)
        self._mobile_has_copy = decision.mobile_has_copy
        return decision.kind

    def _reset_extra_state(self) -> None:
        self._session = self._make_session()

    def _extra_state_signature(self) -> tuple:
        return self._session.extra_signature()
