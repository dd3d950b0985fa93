"""Abstract cost model and the vocabulary of chargeable events.

The allocation algorithms of the paper interact with the outside world
through a small set of *cost events*.  Keeping the event vocabulary
separate from the per-model prices lets one algorithm implementation be
analyzed under both the connection model (section 5) and the message
model (section 6), exactly as the paper does.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

__all__ = [
    "CostEventKind", "EVENT_KIND_ORDER", "CostBreakdown", "CostEvent",
    "CostModel",
]


class CostEventKind(enum.Enum):
    """Every way a relevant request can interact with the network.

    The kinds mirror the cost enumeration in section 3 of the paper:

    ``LOCAL_READ``
        The MC holds a replica; the read is served locally.
    ``REMOTE_READ``
        The MC holds no replica; the read is forwarded to the SC
        (control message) and the data item is returned (data
        message).  An allocation decision may be piggybacked on the
        returned data message at no extra charge (section 4).
    ``WRITE_NO_COPY``
        A write at the SC while the MC holds no replica; nothing is
        communicated.
    ``WRITE_PROPAGATED``
        A write at the SC propagated to the MC's replica, which the MC
        keeps (data message / one connection).
    ``WRITE_PROPAGATED_DEALLOCATE``
        A propagated write after which the MC deallocates its replica
        and notifies the SC.  In the message model the notification is
        an extra control message; in the connection model it rides the
        same connection.
    ``WRITE_DELETE_REQUEST``
        SW1's optimization (end of section 4): instead of propagating
        the data, the SC sends only a delete-request control message.
    """

    LOCAL_READ = "local_read"
    REMOTE_READ = "remote_read"
    WRITE_NO_COPY = "write_no_copy"
    WRITE_PROPAGATED = "write_propagated"
    WRITE_PROPAGATED_DEALLOCATE = "write_propagated_deallocate"
    WRITE_DELETE_REQUEST = "write_delete_request"


#: The canonical kind order.  The kernels encode a request's event as
#: its index in this tuple, count kinds in this order, and every total
#: is accumulated in it, so equal counts give byte-identical floats.
EVENT_KIND_ORDER: Tuple[CostEventKind, ...] = tuple(CostEventKind)


@dataclass(frozen=True)
class CostBreakdown:
    """Physical resources consumed by one cost event.

    The protocol simulator (``repro.sim``) produces the same breakdown
    from actual message traffic, which lets integration tests verify
    that the distributed protocol charges exactly what the abstract
    model says it should.
    """

    connections: int = 0
    data_messages: int = 0
    control_messages: int = 0

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            self.connections + other.connections,
            self.data_messages + other.data_messages,
            self.control_messages + other.control_messages,
        )


#: Network resources implied by each event kind, independent of pricing.
EVENT_RESOURCES: Dict[CostEventKind, CostBreakdown] = {
    CostEventKind.LOCAL_READ: CostBreakdown(),
    CostEventKind.REMOTE_READ: CostBreakdown(
        connections=1, data_messages=1, control_messages=1
    ),
    CostEventKind.WRITE_NO_COPY: CostBreakdown(),
    CostEventKind.WRITE_PROPAGATED: CostBreakdown(connections=1, data_messages=1),
    CostEventKind.WRITE_PROPAGATED_DEALLOCATE: CostBreakdown(
        connections=1, data_messages=1, control_messages=1
    ),
    CostEventKind.WRITE_DELETE_REQUEST: CostBreakdown(
        connections=1, control_messages=1
    ),
}


@dataclass(frozen=True)
class CostEvent:
    """A priced cost event: the event kind plus the charge it incurred."""

    kind: CostEventKind
    cost: float

    @property
    def breakdown(self) -> CostBreakdown:
        return EVENT_RESOURCES[self.kind]


class CostModel(abc.ABC):
    """Maps cost events to charges.

    Concrete models implement :meth:`price`.  Everything else (offline
    optimal parameters, totalling helpers) derives from it.
    """

    #: Short identifier used in experiment tables (e.g. ``"connection"``).
    name: str = "abstract"

    @abc.abstractmethod
    def price(self, kind: CostEventKind) -> float:
        """Charge for a single event of the given kind."""

    def charge(self, kind: CostEventKind) -> CostEvent:
        """Price an event and wrap it for a ledger."""
        return CostEvent(kind, self.price(kind))

    def total(self, kinds: Iterable[CostEventKind]) -> float:
        """Total charge for a sequence of event kinds."""
        return sum(self.price(kind) for kind in kinds)

    # -- parameters used by the offline-optimal dynamic program --------
    #
    # The offline algorithm M of the competitiveness definition knows
    # the whole schedule at both endpoints, so it never pays for
    # control traffic used purely to *coordinate* allocation decisions;
    # it still pays to move data.  See DESIGN.md ("Offline optimal
    # charging") for the discussion and the ablation hook.

    @property
    def remote_read_cost(self) -> float:
        """Cost of serving a read while the MC holds no replica."""
        return self.price(CostEventKind.REMOTE_READ)

    @property
    def write_propagate_cost(self) -> float:
        """Cost of a write while the MC holds a replica it keeps."""
        return self.price(CostEventKind.WRITE_PROPAGATED)

    @property
    def acquire_cost(self) -> float:
        """Cost for the offline optimal to install a replica *not*
        piggybacked on a remote read: one data transfer."""
        return self.price(CostEventKind.WRITE_PROPAGATED)

    @property
    def release_cost(self) -> float:
        """Cost for the offline optimal to drop the MC replica.

        Zero by default: an omniscient offline algorithm needs no
        delete message because both endpoints know the schedule.  The
        offline-charging ablation overrides this (see
        :mod:`repro.experiments.ablations`, experiment ``t-ablations``).
        """
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
