"""The sliding-window family SWk and the optimized SW1 (section 4).

The SWk algorithm examines a window of the latest ``k`` relevant
requests (``k`` odd).  After each request the window slides by one; if
reads outnumber writes the mobile computer should hold a replica, and
if writes outnumber reads it should not.  Because ``k`` is odd there
are no ties, so the allocation scheme is always exactly "majority of
the last k requests are reads" — which is what makes the paper's
:math:`\\pi_k` analysis (equation 4) exact.

Distribution and piggybacking (faithfully mirrored by the protocol
simulator in :mod:`repro.sim`): whichever side currently holds the
window is *in charge*.  A replica is allocated by piggybacking the
window and a save-indication on the data message that answers the
remote read which flipped the majority — at no extra charge.  A replica
is deallocated by the MC sending the window back with a
stop-propagation indication, which costs one control message in the
message model and nothing extra in the connection model.

``SW1`` is *not* simply ``SWk`` with ``k = 1``: with a window of one, a
write is guaranteed to flip the majority, so instead of uselessly
propagating the data item and waiting for the MC to deallocate, the SC
sends a short delete-request (one control message, cost ``ω``).  The
paper analyzes SW1 separately in the message model for exactly this
reason (footnote in section 6).

The decision rules live in :mod:`repro.core.session`
(:class:`~repro.core.session.AllocationSession`), where the window is
the session's carry: the last k request bits as an ``int`` whose
popcount is the window's write count.  This module adapts them to the
per-schedule :class:`~repro.core.base.AllocationAlgorithm` interface.
Both classes start from the fresh state (an all-writes window, no
replica); a window state is reached by feeding requests.
"""

from __future__ import annotations

from ..types import ensure_odd_window
from .session import AlgorithmSpec, AllocationSession, SessionBackedAlgorithm

__all__ = ["SlidingWindow", "SlidingWindowOne"]


class SlidingWindow(SessionBackedAlgorithm):
    """SWk: allocate by majority over a sliding window of ``k`` requests.

    Parameters
    ----------
    k:
        Window size; must be odd (section 4).  The window starts as
        all writes, matching the convention that the MC starts without
        a replica.
    """

    name = "swk"

    def __init__(self, k: int):
        self._k = ensure_odd_window(k)
        super().__init__()
        # k = 1 without the delete-request optimization must not share
        # SW1's name: dispatch-by-name layers (the batched kernels,
        # the protocol decider factory) would silently swap semantics.
        self.name = f"sw{self._k}" if self._k > 1 else "sw1-unoptimized"

    def _make_session(self) -> AllocationSession:
        return AllocationSession(AlgorithmSpec("swk", self._k))

    @property
    def k(self) -> int:
        return self._k

    def _configured_copy(self) -> "SlidingWindow":
        return SlidingWindow(self._k)

    def describe(self) -> str:
        return f"SW{self._k} (sliding window, k={self._k})"


class SlidingWindowOne(SessionBackedAlgorithm):
    """SW1: the k=1 window with the delete-request optimization.

    With a one-request window the scheme simply follows the last
    request: a read allocates, a write deallocates.  A write arriving
    while the MC holds a replica therefore sends only a delete-request
    control message instead of propagating the soon-to-be-dropped data
    (end of section 4).
    """

    name = "sw1"

    def _make_session(self) -> AllocationSession:
        return AllocationSession(AlgorithmSpec("sw1"))

    @property
    def k(self) -> int:
        return 1

    def _configured_copy(self) -> "SlidingWindowOne":
        return SlidingWindowOne()

    def describe(self) -> str:
        return "SW1 (one-request window with delete-request optimization)"
