"""Instrumentation for the allocation service host.

:class:`ServiceCounters` extends the engine's
:class:`~repro.engine.instrumentation.CounterInstrumentation` with the
service-level hooks (sessions opened, shard drains, backpressure).  A
drain is one column-level kernel pass per group that fires no per-run
hook, so the inherited run counters (``runs``, ``backend_runs``,
``total_cost``, ``wall_seconds``, ``event_counts``) do not grow from
drains and the dispatch log stays empty; ``requests`` is tallied per
drain instead.  Per-session totals live in
:meth:`~repro.service.host.AllocationService.session_info`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..engine.instrumentation import CounterInstrumentation

__all__ = ["ServiceCounters"]


class ServiceCounters(CounterInstrumentation):
    """Aggregate counters sized for service workloads."""

    def __init__(self) -> None:
        super().__init__()
        self.sessions_opened = 0
        self.shard_drains = 0
        self.drained_sessions = 0
        self.drained_decisions = 0
        self.backpressure_events = 0
        self.shard_occupancy: Counter = Counter()
        self.failover_drills = 0
        self.failovers_observed = 0
        self.failover_divergences = 0

    def on_session_open(self, shard_index: int, algorithm_name: str) -> None:
        self.sessions_opened += 1
        self.shard_occupancy[shard_index] += 1

    def on_shard_drain(
        self, shard_index: int, sessions: int, decisions: int
    ) -> None:
        self.shard_drains += 1
        self.drained_sessions += sessions
        self.drained_decisions += decisions
        self.requests += decisions

    def on_backpressure(self, shard_index: int, queue_depth: int) -> None:
        self.backpressure_events += 1

    def on_failover(
        self, shard_index: int, failovers: int, byte_identical: bool
    ) -> None:
        self.failover_drills += 1
        self.failovers_observed += failovers
        if not byte_identical:
            self.failover_divergences += 1

    def summary(self) -> Dict[str, object]:
        report = super().summary()
        report.update(
            {
                "sessions_opened": self.sessions_opened,
                "shard_drains": self.shard_drains,
                "drained_sessions": self.drained_sessions,
                "drained_decisions": self.drained_decisions,
                "backpressure_events": self.backpressure_events,
                "occupied_shards": len(self.shard_occupancy),
                "failover_drills": self.failover_drills,
                "failovers_observed": self.failovers_observed,
                "failover_divergences": self.failover_divergences,
            }
        )
        return report
