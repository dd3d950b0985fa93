"""Per-algorithm protocol deciders for the two nodes.

The generic message mechanics (sending read-requests, caching replies,
dropping replicas) live in :mod:`repro.sim.nodes`; the *decisions* —
when to allocate, deallocate, propagate or delete — live here, one
decider pair per algorithm, mirroring the distributed description in
section 4 of the paper.

State placement is faithful: whichever side is "in charge" holds the
decision state.  The stationary decider owns it while the MC has no
copy (every relevant request is then visible at the SC: its own writes
plus the forwarded reads); the mobile decider owns it while the MC has
a copy (local reads plus propagated writes).  The state machine itself
is :class:`repro.core.session.AllocationSession` — the same incremental
core the per-schedule algorithms and the allocation service run on —
so the protocol and the abstract algorithm share one implementation of
the window majorities and run-length thresholds.  A decider translates
its side's view of the wire into session feeds and reads the decision
flags back off the returned :class:`~repro.core.session.Decision`.
When SWk's charge moves, the window crosses the wire as the session's
carry ``int`` (the last k request bits, newest in bit 0), and the
receiving side seeds its session from it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.session import AlgorithmSpec, AllocationSession, parse_algorithm_name
from ..exceptions import ProtocolError
from ..types import Operation

__all__ = [
    "WriteAction",
    "StationaryDecider",
    "MobileDecider",
    "DeciderPair",
    "make_deciders",
]


@dataclass(frozen=True)
class WriteAction:
    """What the SC does with a write while the MC holds a replica."""

    propagate: bool = False
    delete_request: bool = False


class StationaryDecider(abc.ABC):
    """SC-side decision logic."""

    @abc.abstractmethod
    def on_write(self, mc_subscribed: bool) -> WriteAction:
        """Decide the action for a locally-applied write."""

    @abc.abstractmethod
    def on_read_request(self) -> Tuple[bool, Optional[int]]:
        """Decide whether the reply allocates; returns (allocate, window).

        A true ``allocate`` hands charge to the MC; the returned window
        carry (if any) is piggybacked on the data reply.
        """

    def adopt_window(self, window: Optional[int]) -> None:
        """Receive the window back when the MC deallocates."""

    def owns_window(self) -> bool:
        """Whether this side currently holds the request window.

        Windowless algorithms never own one; the reconnection resync
        of :mod:`repro.sim.faults` uses this to assert that at most one
        side claims the window after an outage.
        """
        return False


class MobileDecider(abc.ABC):
    """MC-side decision logic."""

    def on_local_read(self) -> None:
        """A read served from the replica (no communication)."""

    @abc.abstractmethod
    def on_propagation(self) -> bool:
        """A propagated write arrived; return True to deallocate."""

    def release_window(self) -> Optional[int]:
        """The window carry to send with a deallocation notice.

        Algorithms without a window (T2m) return ``None``.
        """
        return None

    def adopt_window(self, window: Optional[int]) -> None:
        """Receive the window piggybacked on an allocating read reply."""

    def owns_window(self) -> bool:
        """Whether this side currently holds the request window."""
        return False


@dataclass(frozen=True)
class DeciderPair:
    """Everything the runner needs to wire one algorithm's protocol."""

    name: str
    stationary: StationaryDecider
    mobile: MobileDecider
    initial_mobile_has_copy: bool


# ---------------------------------------------------------------------------
# Static methods
#
# ST1/ST2 never change the scheme, so there is no decision state to
# host in a session — only the protocol-consistency guards remain.


class _St1Stationary(StationaryDecider):
    def on_write(self, mc_subscribed: bool) -> WriteAction:
        if mc_subscribed:
            raise ProtocolError("ST1 must never have a subscribed MC")
        return WriteAction()

    def on_read_request(self):
        return False, None


class _St2Stationary(StationaryDecider):
    def on_write(self, mc_subscribed: bool) -> WriteAction:
        if not mc_subscribed:
            raise ProtocolError("ST2 must always have a subscribed MC")
        return WriteAction(propagate=True)

    def on_read_request(self):
        raise ProtocolError("ST2's MC holds a replica; reads never go remote")


class _NeverDeallocateMobile(MobileDecider):
    def on_propagation(self) -> bool:
        return False


class _NoReplicaMobile(MobileDecider):
    def on_propagation(self) -> bool:
        raise ProtocolError("this algorithm never propagates writes to the MC")


# ---------------------------------------------------------------------------
# Sliding-window family
#
# The window lives inside a session on whichever side is in charge;
# the handoff messages carry the session's carry int, and the receiving
# side seeds a session from it with the copy bit the handoff implies.


class _SwkStationary(StationaryDecider):
    def __init__(self, k: int, in_charge: bool = True):
        self._spec = AlgorithmSpec("swk", k)
        self._session: Optional[AllocationSession] = (
            AllocationSession(self._spec) if in_charge else None
        )

    def _require_session(self) -> AllocationSession:
        if self._session is None:
            raise ProtocolError(
                "the SC is not in charge of the window but was asked to decide"
            )
        return self._session

    def on_write(self, mc_subscribed: bool) -> WriteAction:
        if mc_subscribed:
            # MC in charge: propagate and let the MC decide deallocation.
            return WriteAction(propagate=True)
        self._require_session().feed(Operation.WRITE)
        return WriteAction()

    def on_read_request(self):
        session = self._require_session()
        decision = session.feed(Operation.READ)
        if decision.allocated:
            self._session = None  # charge moves to the MC
            return True, session.carry
        return False, None

    def adopt_window(self, window):
        if self._session is not None:
            raise ProtocolError("the SC already holds a window")
        if window is None:
            raise ProtocolError("a deallocation notice must carry the window")
        self._session = AllocationSession(self._spec, seed=(window, False))

    def owns_window(self) -> bool:
        return self._session is not None


class _SwkMobile(MobileDecider):
    def __init__(self, k: int):
        self._spec = AlgorithmSpec("swk", k)
        self._session: Optional[AllocationSession] = None

    def _require_session(self) -> AllocationSession:
        if self._session is None:
            raise ProtocolError(
                "the MC is not in charge of the window but was asked to decide"
            )
        return self._session

    def on_local_read(self) -> None:
        self._require_session().feed(Operation.READ)

    def on_propagation(self) -> bool:
        decision = self._require_session().feed(Operation.WRITE)
        return decision.deallocated

    def release_window(self) -> int:
        """Hand the window carry back for the deallocation notice."""
        carry = self._require_session().carry
        self._session = None
        return carry

    def adopt_window(self, window):
        if self._session is not None:
            raise ProtocolError("the MC already holds a window")
        if window is None:
            raise ProtocolError("an allocating reply must carry the window")
        self._session = AllocationSession(self._spec, seed=(window, True))

    def owns_window(self) -> bool:
        return self._session is not None


class _Sw1Stationary(StationaryDecider):
    """SW1: the SC is always effectively in charge (window = last request).

    The one-bit window is exactly the MC-subscription flag the node
    already tracks, so the decider stays stateless: a write while
    subscribed is the delete-request optimization, and every remote
    read allocates.
    """

    def on_write(self, mc_subscribed: bool) -> WriteAction:
        if mc_subscribed:
            return WriteAction(delete_request=True)
        return WriteAction()

    def on_read_request(self):
        return True, None


# ---------------------------------------------------------------------------
# Threshold methods (section 7.1)


class _T1Stationary(StationaryDecider):
    """T1m's SC side: the session's carry holds the remote-read run.

    The SC sees every relevant request while the MC holds no copy, and
    T1m's decisions are insensitive to the local reads it misses while
    the copy is held (the write that drops the copy breaks the read
    run), so one session on the SC stays synchronized across the whole
    run.
    """

    def __init__(self, m: int):
        self._session = AllocationSession(AlgorithmSpec("t1", m))

    def on_write(self, mc_subscribed: bool) -> WriteAction:
        self._session.feed(Operation.WRITE)
        if mc_subscribed:
            return WriteAction(delete_request=True)
        return WriteAction()

    def on_read_request(self):
        return self._session.feed(Operation.READ).allocated, None


class _T2Stationary(StationaryDecider):
    """T2m's SC side: propagate while subscribed, re-allocate on reads.

    The SC cannot count *consecutive* writes — it never sees the local
    reads at the MC that break a run — so the deallocation decision
    lives in :class:`_T2Mobile`.
    """

    def on_write(self, mc_subscribed: bool) -> WriteAction:
        if not mc_subscribed:
            return WriteAction()
        return WriteAction(propagate=True)

    def on_read_request(self):
        return True, None


class _T2Mobile(MobileDecider):
    """T2m's MC side: the session counts the consecutive writes.

    The MC sees every relevant request while it holds the copy (local
    reads plus propagated writes).  The one request it does *not* see
    is the remote read that re-acquires the copy after a deallocation —
    the allocating read reply stands in for it, so ``adopt_window``
    (fired by the node on every allocating reply) feeds that read to
    the session and brings it back in sync.
    """

    def __init__(self, m: int):
        self._session = AllocationSession(AlgorithmSpec("t2", m))

    def on_local_read(self) -> None:
        self._session.feed(Operation.READ)

    def on_propagation(self) -> bool:
        decision = self._session.feed(Operation.WRITE)
        return decision.deallocated

    def adopt_window(self, window) -> None:
        # T2m carries no window; the allocating reply itself is the
        # observation of the remote read that restored the copy.
        self._session.feed(Operation.READ)


# ---------------------------------------------------------------------------
# Factory


def make_deciders(name: str) -> DeciderPair:
    """Build the protocol decider pair for an algorithm short name.

    Accepts the same names as :func:`repro.core.registry.make_algorithm`
    (``st1``, ``st2``, ``sw1``, ``swK``, ``t1_M``, ``t2_M``).
    """
    from ..exceptions import UnknownAlgorithmError

    lowered = name.strip().lower()
    spec = parse_algorithm_name(lowered)
    if spec is None:
        raise UnknownAlgorithmError(f"no protocol deciders for algorithm {name!r}")
    if spec.family == "st1":
        return DeciderPair("st1", _St1Stationary(), _NoReplicaMobile(), False)
    if spec.family == "st2":
        return DeciderPair("st2", _St2Stationary(), _NeverDeallocateMobile(), True)
    if spec.family == "sw1":
        return DeciderPair("sw1", _Sw1Stationary(), _NoReplicaMobile(), False)
    if spec.family == "swk":
        k = spec.param
        return DeciderPair(lowered, _SwkStationary(k), _SwkMobile(k), False)
    if spec.family == "t1":
        return DeciderPair(
            lowered, _T1Stationary(spec.param), _NoReplicaMobile(), False
        )
    return DeciderPair(
        lowered,
        _T2Stationary(),
        _T2Mobile(spec.param),
        True,
    )
