"""The static allocation methods ST1 and ST2 (sections 5.1 and 6.1).

Static methods never change the allocation scheme:

* **ST1** — only the stationary computer holds the item.  Every read
  issued at the mobile computer goes remote; writes are free.
* **ST2** — the mobile computer always holds a replica.  Reads are
  local and free; every write is propagated to the replica.

Both classes are thin adapters over the incremental decision core of
:mod:`repro.core.session`.
"""

from __future__ import annotations

from .session import AlgorithmSpec, AllocationSession, SessionBackedAlgorithm

__all__ = ["StaticOneCopy", "StaticTwoCopies"]


class StaticOneCopy(SessionBackedAlgorithm):
    """ST1: the mobile computer never holds a copy (on-demand reads)."""

    name = "st1"

    def _make_session(self) -> AllocationSession:
        return AllocationSession(AlgorithmSpec("st1"))

    def _configured_copy(self) -> "StaticOneCopy":
        return StaticOneCopy()

    def describe(self) -> str:
        return "ST1 (static one-copy: no replica at the mobile computer)"


class StaticTwoCopies(SessionBackedAlgorithm):
    """ST2: the mobile computer always holds a copy (subscription)."""

    name = "st2"

    def _make_session(self) -> AllocationSession:
        return AllocationSession(AlgorithmSpec("st2"))

    def _configured_copy(self) -> "StaticTwoCopies":
        return StaticTwoCopies()

    def describe(self) -> str:
        return "ST2 (static two-copies: replica always at the mobile computer)"
