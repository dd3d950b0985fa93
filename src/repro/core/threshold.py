"""The modified static methods T1m and T2m (section 7.1).

The static methods have optimal expected cost when θ is known but are
not competitive.  T1m repairs ST1's worst case with a small dynamic
escape hatch: it uses the one-copy scheme until ``m`` *consecutive*
reads occur, then switches to two-copies until the next write, then
reverts.  The paper shows T1m is (m+1)-competitive with expected cost

.. math:: (1-\\theta) + (1-\\theta)^m (2\\theta - 1)

in the connection model — the second term being "the price of
competitiveness" over ST1.  T2m is the symmetric modification of ST2:
two-copies until ``m`` consecutive writes, then one-copy until the
next read.

The paper leaves the message-model behaviour of these methods open; we
adopt the cheapest *distributable* choice.  For T1m the decision point
is the SC (it sees every relevant request while the MC holds no copy),
so the write that abandons the replica is a delete-request (cost ω) and
the read that re-acquires one piggybacks the copy on its response.  For
T2m the decision point must be the MC — only it sees the local reads
that break a write run — so the m-th consecutive write is propagated
and answered with a deallocation notice (cost 1+ω), as in SWk.

The run tests themselves live in the incremental decision core
(:mod:`repro.core.session`), on its carry bits; these classes adapt it to the
per-schedule :class:`~repro.core.base.AllocationAlgorithm` interface.
"""

from __future__ import annotations

from .session import (
    AlgorithmSpec,
    AllocationSession,
    SessionBackedAlgorithm,
    ensure_threshold,
)

__all__ = ["ThresholdOneCopy", "ThresholdTwoCopies"]

# Backwards-compatible alias: the validator moved to the session core.
_ensure_threshold = ensure_threshold


class ThresholdOneCopy(SessionBackedAlgorithm):
    """T1m: one-copy normally; two-copies after m consecutive reads."""

    name = "t1m"

    def __init__(self, m: int):
        self._m = ensure_threshold(m)
        super().__init__()
        self.name = f"t1_{self._m}"

    def _make_session(self) -> AllocationSession:
        return AllocationSession(AlgorithmSpec("t1", self._m))

    @property
    def m(self) -> int:
        return self._m

    def _configured_copy(self) -> "ThresholdOneCopy":
        return ThresholdOneCopy(self._m)

    def describe(self) -> str:
        return f"T1_{self._m} (one-copy; two-copies after {self._m} consecutive reads)"


class ThresholdTwoCopies(SessionBackedAlgorithm):
    """T2m: two-copies normally; one-copy after m consecutive writes."""

    name = "t2m"

    def __init__(self, m: int):
        self._m = ensure_threshold(m)
        super().__init__()
        self.name = f"t2_{self._m}"

    def _make_session(self) -> AllocationSession:
        return AllocationSession(AlgorithmSpec("t2", self._m))

    @property
    def m(self) -> int:
        return self._m

    def _configured_copy(self) -> "ThresholdTwoCopies":
        return ThresholdTwoCopies(self._m)

    def describe(self) -> str:
        return f"T2_{self._m} (two-copies; one-copy after {self._m} consecutive writes)"
