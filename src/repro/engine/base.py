"""The run spec and the uniform run result every backend returns.

A backend turns one :class:`RunSpec` — an ``(algorithm, schedule,
cost model)`` triple plus run options — into an :class:`EngineResult`.
The three backends (the reference object replay, the two-node
wire-protocol simulator and the numpy batched kernels) live in
:mod:`repro.engine.dispatch` next to the one rule that picks among
them.  The central invariant of the repository — every backend
classifies every request into the *identical*
:class:`~repro.costmodels.base.CostEventKind` — is what makes them
interchangeable, and is enforced by the cross-backend equivalence test
(``tests/test_engine.py``).

Totals are computed identically in every backend — per-kind counts
dotted with per-kind prices, in
:data:`~repro.costmodels.base.EVENT_KIND_ORDER` — so equal event
counts imply byte-identical total cost, not merely approximately equal
floating-point sums.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.base import AllocationAlgorithm
from ..costmodels.base import (
    EVENT_KIND_ORDER,
    CostEvent,
    CostEventKind,
    CostModel,
)
from ..types import AllocationScheme, Schedule

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..sim.faults import FaultConfig

__all__ = [
    "RunSpec",
    "EngineResult",
    "BackendDiagnostic",
    "total_from_counts",
]


def total_from_counts(
    event_counts: Dict[CostEventKind, int], cost_model: CostModel
) -> float:
    """Σ count(kind) · price(kind), in the canonical kind order.

    Every backend computes its total through this one function so that
    identical event-kind counts yield a byte-identical float — the sum
    is associated the same way regardless of execution order.
    """
    total = 0.0
    for kind in EVENT_KIND_ORDER:
        count = event_counts.get(kind, 0)
        if count:
            total += count * cost_model.price(kind)
    return total


@dataclass(frozen=True)
class RunSpec:
    """Everything a backend needs to execute one run.

    ``algorithm`` is the configured instance (always present — the
    dispatcher builds one from a short name when needed); backends that
    re-derive behaviour from the name alone (batched, protocol) use
    ``algorithm_name`` and leave the instance untouched.
    """

    algorithm: AllocationAlgorithm
    algorithm_name: str
    schedule: Schedule
    cost_model: CostModel
    #: Aggregate counters only — skip materializing per-request events.
    stream: bool = False
    #: Requests excluded from the aggregates (Monte-Carlo burn-in).
    warmup: int = 0
    #: Reset the algorithm before the run (reference backend only).
    fresh: bool = True
    #: One-way link latency for the protocol backend.
    latency: float = 0.05
    #: Fault schedule for the protocol backend (None: perfect channel).
    faults: Optional["FaultConfig"] = None
    #: SC replica count for the protocol backend (1: single SC).
    replicas: int = 1


@dataclass(frozen=True)
class BackendDiagnostic:
    """Structured record of a backend failure the dispatcher contained.

    Attached to :attr:`EngineResult.diagnostic` when a backend raised
    mid-run and the dispatcher transparently re-executed the spec on
    the reference backend instead of killing the whole sweep.
    """

    backend_name: str
    algorithm_name: str
    error_type: str
    error_message: str
    fallback_backend: str = "reference"

    def __str__(self) -> str:
        return (
            f"backend {self.backend_name!r} failed on "
            f"{self.algorithm_name!r} with {self.error_type}: "
            f"{self.error_message}; fell back to "
            f"{self.fallback_backend!r}"
        )


class EngineResult:
    """Uniform outcome of one engine run, whatever the backend.

    The aggregates (``total_cost``, ``event_counts``) cover requests
    ``warmup ..`` end; the optional per-request fields cover the whole
    run and are ``None`` in streaming mode or when a backend cannot
    produce them (the protocol backend has no scheme trace).

    Backends that compute the whole run as arrays (batched) pass a
    ``materialize`` thunk instead of the tuples themselves, so the
    per-request views are built only on first access — a plain
    ``run(...)`` over a million requests stays array-speed unless the
    caller actually reads ``events``/``event_kinds``/``schemes``.
    """

    __slots__ = (
        "algorithm_name",
        "backend_name",
        "requests",
        "warmup",
        "total_cost",
        "event_counts",
        "dispatch_reason",
        "elapsed_seconds",
        "scheme_changes",
        "diagnostic",
        "raw",
        "_events",
        "_event_kinds",
        "_schemes",
        "_materialize",
    )

    def __init__(
        self,
        algorithm_name: str,
        backend_name: str,
        requests: int,
        warmup: int,
        total_cost: float,
        event_counts: Dict[CostEventKind, int],
        dispatch_reason: str = "",
        elapsed_seconds: float = 0.0,
        events: Optional[Tuple[CostEvent, ...]] = None,
        event_kinds: Optional[Tuple[CostEventKind, ...]] = None,
        schemes: Optional[Tuple[AllocationScheme, ...]] = None,
        scheme_changes: Optional[int] = None,
        raw: object = None,
        materialize=None,
    ):
        self.algorithm_name = algorithm_name
        self.backend_name = backend_name
        self.requests = requests
        self.warmup = warmup
        self.total_cost = total_cost
        self.event_counts = event_counts
        #: Why the dispatcher picked this backend.
        self.dispatch_reason = dispatch_reason
        self.elapsed_seconds = elapsed_seconds
        self.scheme_changes = scheme_changes
        #: The contained failure when this result came from a fallback
        #: re-execution (see :class:`BackendDiagnostic`); None normally.
        self.diagnostic: Optional[BackendDiagnostic] = None
        #: Backend-specific result (e.g. the ProtocolRunResult), if any.
        self.raw = raw
        self._events = events
        self._event_kinds = event_kinds
        self._schemes = schemes
        self._materialize = materialize

    def _force(self) -> None:
        if self._materialize is not None:
            self._events, self._event_kinds, self._schemes = self._materialize()
            self._materialize = None

    @property
    def events(self) -> Optional[Tuple[CostEvent, ...]]:
        """Per-request cost events (``None`` in streaming mode)."""
        self._force()
        return self._events

    @property
    def event_kinds(self) -> Optional[Tuple[CostEventKind, ...]]:
        """Per-request event kinds (``None`` in streaming mode)."""
        self._force()
        return self._event_kinds

    @property
    def schemes(self) -> Optional[Tuple[AllocationScheme, ...]]:
        """Post-request allocation schemes (``None`` when unavailable)."""
        self._force()
        return self._schemes

    @property
    def counted_requests(self) -> int:
        """Requests contributing to the aggregates (post-warmup)."""
        return self.requests - self.warmup

    @property
    def mean_cost(self) -> float:
        """Average cost per counted request (the empirical EXP)."""
        counted = self.counted_requests
        return self.total_cost / counted if counted else 0.0

    def __len__(self) -> int:
        return self.requests

    def __repr__(self) -> str:
        return (
            f"EngineResult(algorithm_name={self.algorithm_name!r}, "
            f"backend_name={self.backend_name!r}, requests={self.requests}, "
            f"total_cost={self.total_cost!r})"
        )
