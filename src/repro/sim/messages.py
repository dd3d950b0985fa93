"""The wire protocol between the mobile and stationary computers.

Message classes follow section 4 of the paper:

* ``ReadRequest`` (control) — the MC forwards a read to the SC.
* ``ReadReply`` (data) — the SC returns the item; when the sliding
  window's majority flipped to reads it piggybacks ``allocate=True``
  and the current window, transferring charge to the MC.
* ``WritePropagation`` (data) — the SC pushes a new value to the MC's
  replica.
* ``DeallocationNotice`` (control) — the MC drops its replica after a
  propagated write flipped the majority to writes; carries the window
  back so the SC takes charge.  Sent as a *reply* to the propagation:
  in the connection model it rides the same connection.
* ``DeleteRequest`` (control) — SW1's optimized write: the SC orders
  the replica dropped without shipping data.

Every message records the index of the relevant request that caused it
so the runner can classify per-request costs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "MessageKind",
    "Message",
    "ReadRequest",
    "ReadReply",
    "WritePropagation",
    "DeallocationNotice",
    "DeleteRequest",
    "Frame",
    "AckFrame",
    "SyncState",
]

_message_ids = itertools.count(1)


class MessageKind(enum.Enum):
    """Physical message class: data messages carry the item."""

    CONTROL = "control"
    DATA = "data"


@dataclass(frozen=True)
class Message:
    """Base wire message.

    Attributes
    ----------
    request_index:
        Index (into the schedule) of the relevant request this message
        serves; lets the ledger attribute traffic per request.
    in_reply_to:
        Message id this one answers.  A reply shares its request's
        connection, which is how the connection model counts one
        connection for a request/response exchange (section 1).
    item:
        Data-item name the message concerns.  The single-item protocol
        leaves the default; the catalog runner routes by it.
    """

    request_index: int
    in_reply_to: Optional[int] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))
    item: str = "x"

    kind: MessageKind = MessageKind.CONTROL

    @property
    def opens_connection(self) -> bool:
        """A message opens a new connection unless it is a reply."""
        return self.in_reply_to is None


@dataclass(frozen=True)
class ReadRequest(Message):
    """MC → SC: please send the current value (control message)."""

    kind: MessageKind = MessageKind.CONTROL


@dataclass(frozen=True)
class ReadReply(Message):
    """SC → MC: the current value (data message), maybe with the copy.

    ``allocate`` piggybacks the save-indication of section 4; the SC
    thereby commits to propagate further writes.  ``window`` transfers
    the request window — the SWk session's carry, the last k request
    bits with the newest in bit 0 — when charge moves to the MC.
    """

    value: object = None
    version: int = 0
    allocate: bool = False
    window: Optional[int] = None
    kind: MessageKind = MessageKind.DATA


@dataclass(frozen=True)
class WritePropagation(Message):
    """SC → MC: a new value for the replica (data message)."""

    value: object = None
    version: int = 0
    kind: MessageKind = MessageKind.DATA


@dataclass(frozen=True)
class DeallocationNotice(Message):
    """MC → SC: stop propagating; here is the window carry (control message)."""

    window: Optional[int] = None
    kind: MessageKind = MessageKind.CONTROL


@dataclass(frozen=True)
class DeleteRequest(Message):
    """SC → MC: drop your replica (control message; SW1/T1m writes)."""

    kind: MessageKind = MessageKind.CONTROL


# ---------------------------------------------------------------------------
# Transport-layer frames (repro.sim.faults).
#
# These never reach the protocol state machines and are never charged
# to the logical ledger: the ARQ layer wraps each protocol message in a
# sequenced Frame, acknowledges receipt with AckFrame, and exchanges
# SyncState during the post-disconnection handshake.  They live here so
# everything that crosses the wire is defined in one module.


@dataclass(frozen=True)
class Frame:
    """One sequenced transport frame carrying a payload.

    ``payload`` is either a protocol :class:`Message` (delivered to the
    endpoint handler, exactly once, in ``seq`` order) or a
    :class:`SyncState` (consumed by the transport itself).
    """

    seq: int
    payload: object
    retransmission: bool = False


@dataclass(frozen=True)
class AckFrame:
    """Receiver → sender: frame ``seq`` arrived (per-frame ack)."""

    seq: int


@dataclass(frozen=True)
class SyncState:
    """Reconnection handshake payload: one side's replica summary.

    ``has_copy``/``version``/``owns_window`` summarize the sender's
    protocol state; ``in_flight`` is the number of its unacked frames
    at handshake time, which tells the verifier whether a strict
    agreement check is meaningful or an exchange is still mid-air.
    """

    has_copy: bool
    version: Optional[int]
    owns_window: bool
    in_flight: int = 0
