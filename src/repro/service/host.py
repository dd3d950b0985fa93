"""The sharded multi-tenant allocation service host.

One :class:`AllocationService` hosts many concurrent allocation
sessions — one per (client, object) pair — and decides them through the
same batched kernels the sweep executor uses, so a box that can sweep a
parameter grid can serve a session population at the same rate.

Architecture
------------

* **Sessions.**  A session is the incremental decision state of one
  algorithm instance (:mod:`repro.core.session`).  The host does not
  keep :class:`~repro.core.session.AllocationSession` objects per
  tenant; it keeps each session's *carry bits* — the last ``L`` raw
  history bits that fully determine the decision state — as one row of
  a per-group numpy matrix.  Feeding a chunk of operations to a block
  of sessions is then a single kernel launch on
  ``[carry | chunk]`` with ``warmup=L``, byte-identical to feeding the
  operations one at a time.

* **Shards.**  Sessions hash to shards by the content digest of their
  key (:func:`repro.service.keys.shard_of`).  Each shard owns an event
  queue; queued operations drain grouped by algorithm, one
  :func:`repro.engine.batched.run_batched_columns` kernel pass (and no
  per-row engine result) per group.
  Draining is triggered by queue depth (queue-based load leveling):
  past ``drain_threshold`` the shard drains (``auto_drain``) or, with
  automatic draining disabled, callers get
  :class:`~repro.exceptions.ServiceOverloadError` past
  ``max_queue_depth`` as the backpressure signal.

* **Audit.**  With ``record_decisions`` on (the default) every decided
  code is logged per session.  :meth:`AllocationService.audit` replays
  the logged decisions as synthesized protocol messages into per-shard
  :class:`~repro.sim.ledger.TrafficLedger` books and runs the
  conservation audit; :meth:`AllocationService.replay_verify` re-runs
  sampled sessions through :func:`repro.engine.run` and demands
  byte-identical decisions and totals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.session import AlgorithmSpec, parse_algorithm_name
from ..costmodels.base import EVENT_KIND_ORDER, CostEventKind, CostModel
from ..costmodels.connection import ConnectionCostModel
from ..engine.base import total_from_counts
# ``run_batched_masks`` is unused here but stays bound: the benchmark's
# traced runs wrap it at this module.
from ..engine.batched import run_batched_columns, run_batched_masks  # noqa: F401
from ..engine.dispatch import run as engine_run
from ..engine.instrumentation import Instrumentation
from ..exceptions import (
    InvalidParameterError,
    ServiceError,
    ServiceOverloadError,
    UnknownAlgorithmError,
)
from ..sim.ledger import TrafficLedger
from ..sim.messages import (
    DeallocationNotice,
    DeleteRequest,
    ReadReply,
    ReadRequest,
    WritePropagation,
)
from ..types import Operation, Request, Schedule
from .keys import SessionKey, shard_of

__all__ = ["ServiceConfig", "BlockPlan", "AllocationService"]

_NULL_INSTRUMENTATION = Instrumentation()

#: Operation implied by each cost event kind (for message synthesis).
_KIND_OPERATION = {
    CostEventKind.LOCAL_READ: Operation.READ,
    CostEventKind.REMOTE_READ: Operation.READ,
    CostEventKind.WRITE_NO_COPY: Operation.WRITE,
    CostEventKind.WRITE_PROPAGATED: Operation.WRITE,
    CostEventKind.WRITE_PROPAGATED_DEALLOCATE: Operation.WRITE,
    CostEventKind.WRITE_DELETE_REQUEST: Operation.WRITE,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    #: Number of shards sessions hash onto.
    num_shards: int = 32
    #: Queue depth at which a shard drains (auto) or signals backpressure.
    drain_threshold: int = 4096
    #: Hard queue ceiling when ``auto_drain`` is off; submissions past
    #: it raise :class:`~repro.exceptions.ServiceOverloadError`.
    max_queue_depth: int = 65536
    #: Drain a shard automatically when its queue crosses the threshold.
    auto_drain: bool = True
    #: Keep the per-session decision log (required by audit/replay).
    record_decisions: bool = True
    #: Session namespace keys default into.
    namespace: str = "alloc"
    #: SC replica count the failover drills exercise (1 disables them).
    replicas: int = 1

    def __post_init__(self):
        if self.num_shards <= 0:
            raise InvalidParameterError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if not 1 <= self.replicas <= 5:
            raise InvalidParameterError(
                f"replicas must be in 1..5, got {self.replicas}"
            )
        if self.drain_threshold <= 0:
            raise InvalidParameterError(
                f"drain_threshold must be positive, got {self.drain_threshold}"
            )
        if self.max_queue_depth < self.drain_threshold:
            raise InvalidParameterError(
                "max_queue_depth must be >= drain_threshold"
            )


class _Group:
    """All of one shard's sessions that share an algorithm spec.

    Session state is columnar: row ``i`` of the matrices below is the
    complete state of one session — its carry bits, its cumulative
    event counts, its replica flag.  Capacity doubles on demand so
    opening sessions stays amortized O(1).
    """

    __slots__ = (
        "spec", "carry_length", "size", "keys", "models",
        "carry", "counts", "served", "copy", "history",
    )

    def __init__(self, spec: AlgorithmSpec):
        self.spec = spec
        self.carry_length = spec.carry_length
        self.size = 0
        self.keys: List[SessionKey] = []
        self.models: List[CostModel] = []
        capacity = 16
        self.carry = np.empty((capacity, self.carry_length), dtype=bool)
        self.counts = np.zeros((capacity, len(EVENT_KIND_ORDER)), dtype=np.int64)
        self.served = np.zeros(capacity, dtype=np.int64)
        self.copy = np.zeros(capacity, dtype=bool)
        #: Decision log: (rows, writes bool (b, n), codes int8 (b, n)).
        self.history: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _grow(self) -> None:
        capacity = self.carry.shape[0] * 2
        for name in ("carry", "counts", "served", "copy"):
            old = getattr(self, name)
            shape = (capacity,) + old.shape[1:]
            fresh = np.zeros(shape, dtype=old.dtype)
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)

    def add_session(self, key: SessionKey, model: CostModel) -> int:
        if self.size == self.carry.shape[0]:
            self._grow()
        row = self.size
        self.size += 1
        self.keys.append(key)
        self.models.append(model)
        self.carry[row] = self.spec.initial_carry()
        self.counts[row] = 0
        self.served[row] = 0
        self.copy[row] = self.spec.initial_mobile_has_copy
        return row


class _Shard:
    """One shard: its session groups and its pending event queue."""

    __slots__ = ("index", "groups", "pending", "depth")

    def __init__(self, index: int):
        self.index = index
        self.groups: Dict[str, _Group] = {}
        #: group name -> row -> list of pending write bits (in order).
        self.pending: Dict[str, Dict[int, List[bool]]] = {}
        self.depth = 0


@dataclass(frozen=True)
class BlockPlan:
    """Precomputed routing of an ordered key block onto session rows.

    Built once by :meth:`AllocationService.plan_block` and reused for
    every uniform operation block over the same keys (the steady-state
    load shape), so the per-submission work is pure kernel time plus a
    fancy-index per group.
    """

    num_keys: int
    #: (group, home shard, rows-in-group array, positions-in-block array).
    segments: Tuple[Tuple[_Group, int, np.ndarray, np.ndarray], ...] = field(
        repr=False
    )


class AllocationService:
    """A sharded host for many concurrent allocation sessions."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        instrumentation: Optional[Instrumentation] = None,
        default_cost_model: Optional[CostModel] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self._instruments = (
            instrumentation if instrumentation is not None
            else _NULL_INSTRUMENTATION
        )
        self._default_model = (
            default_cost_model if default_cost_model is not None
            else ConnectionCostModel()
        )
        self._shards = [_Shard(i) for i in range(self.config.num_shards)]
        self._sessions: Dict[SessionKey, Tuple[_Group, int, int]] = {}
        self._decisions = 0
        #: EMA of drain throughput (decisions/s), feeding the
        #: ``retry_after`` hint on overload rejections.
        self._drain_rate = 0.0

    # -- session lifecycle ---------------------------------------------

    def open_session(
        self,
        key: SessionKey,
        algorithm: str,
        cost_model: Optional[CostModel] = None,
    ) -> int:
        """Open a session for ``key`` running ``algorithm``.

        Returns the home shard index.  Opening the same key twice is a
        :class:`~repro.exceptions.ServiceError`: a session is the
        authoritative decision state for its (client, object) pair, and
        silently resetting it would fork that authority.
        """
        if key in self._sessions:
            raise ServiceError(f"session {key} is already open")
        spec = parse_algorithm_name(algorithm.strip().lower())
        if spec is None:
            raise UnknownAlgorithmError(
                f"algorithm {algorithm!r} is not session-hostable; the "
                "service hosts the ST/SW/T families"
            )
        shard_index = shard_of(key, self.config.num_shards)
        shard = self._shards[shard_index]
        group = shard.groups.get(spec.name)
        if group is None:
            group = shard.groups[spec.name] = _Group(spec)
        model = cost_model if cost_model is not None else self._default_model
        row = group.add_session(key, model)
        self._sessions[key] = (group, row, shard_index)
        self._instruments.on_session_open(shard_index, spec.name)
        return shard_index

    def session_key(self, client: str, object: str) -> SessionKey:
        """Build a key in this service's configured namespace."""
        return SessionKey(client, object, self.config.namespace)

    def _lookup(self, key: SessionKey) -> Tuple[_Group, int, int]:
        entry = self._sessions.get(key)
        if entry is None:
            raise ServiceError(f"no open session for {key}")
        return entry

    # -- queued (single-operation) path --------------------------------

    def submit(self, key: SessionKey, operation: Operation) -> None:
        """Queue one operation for a session (drains by queue depth)."""
        group, row, shard_index = self._lookup(key)
        shard = self._shards[shard_index]
        if not self.config.auto_drain and shard.depth >= self.config.max_queue_depth:
            self._instruments.on_backpressure(shard.index, shard.depth)
            # Graceful shedding: the rejection happens before anything
            # is queued, so a caller that catches the overload leaves
            # every session, queue and ledger exactly as they were.
            raise ServiceOverloadError(
                f"shard {shard.index} queue depth {shard.depth} at its "
                f"ceiling {self.config.max_queue_depth}; drain before "
                "submitting more",
                retry_after=self._retry_after(shard.depth),
                shard=shard.index,
                depth=shard.depth,
            )
        per_group = shard.pending.setdefault(group.spec.name, {})
        per_group.setdefault(row, []).append(operation is Operation.WRITE)
        shard.depth += 1
        if shard.depth >= self.config.drain_threshold:
            self._instruments.on_backpressure(shard.index, shard.depth)
            if self.config.auto_drain:
                self.drain_shard(shard.index)

    def serve_one(self, key: SessionKey, operation: Operation) -> CostEventKind:
        """Decide one operation synchronously and return its event kind.

        Drains the session's shard first so the interactive decision
        observes everything queued before it.
        """
        group, row, shard_index = self._lookup(key)
        self.drain_shard(shard_index)
        rows = np.array([row], dtype=np.intp)
        writes = np.array([[operation is Operation.WRITE]], dtype=bool)
        codes = self._drain_group_block(shard_index, group, rows, writes)
        return EVENT_KIND_ORDER[int(codes[0, 0])]

    # -- block (bulk) path ---------------------------------------------

    def plan_block(self, keys: Sequence[SessionKey]) -> BlockPlan:
        """Precompute routing for a block of distinct open sessions.

        A repeated key is an :class:`~repro.exceptions.InvalidParameterError`:
        its rows would be decided from one state and only one kept.
        """
        buckets: Dict[int, Tuple[_Group, int, List[int], List[int]]] = {}
        for position, key in enumerate(keys):
            group, row, shard_index = self._lookup(key)
            bucket = buckets.get(id(group))
            if bucket is None:
                bucket = buckets[id(group)] = (group, shard_index, [], [])
            bucket[2].append(row)
            bucket[3].append(position)
        segments = tuple(
            (group, shard_index, np.asarray(rows, dtype=np.intp),
             np.asarray(positions, dtype=np.intp))
            for group, shard_index, rows, positions in buckets.values()
        )
        for _group, _shard, rows, positions in segments:
            unique, first = np.unique(rows, return_index=True)
            if unique.size != rows.size:
                key = keys[np.delete(positions, first)[0]]
                raise InvalidParameterError(
                    f"session {key} appears more than once in the block"
                )
        return BlockPlan(num_keys=len(keys), segments=segments)

    def submit_block(self, plan: BlockPlan, writes: np.ndarray) -> int:
        """Decide one operation block: row ``i`` of ``writes`` feeds
        ``keys[i]`` of the plan (True = write).  Returns decisions made.

        Pending single-operation queues on the touched shards drain
        first, preserving per-session submission order.
        """
        writes = np.asarray(writes, dtype=bool)
        if writes.ndim != 2 or writes.shape[0] != plan.num_keys:
            raise InvalidParameterError(
                f"writes must be ({plan.num_keys}, n), got {writes.shape}"
            )
        touched = {shard for _group, shard, _r, _p in plan.segments}
        for shard_index in touched:
            if self._shards[shard_index].depth:
                self.drain_shard(shard_index)
        decided = 0
        for group, shard_index, rows, positions in plan.segments:
            self._drain_group_block(
                shard_index, group, rows, writes[positions]
            )
            decided += rows.shape[0] * writes.shape[1]
        return decided

    # -- draining -------------------------------------------------------

    def _drain_group_block(
        self,
        shard_index: int,
        group: _Group,
        rows: np.ndarray,
        writes: np.ndarray,
    ) -> np.ndarray:
        """Feed ``writes[i]`` to the session at ``rows[i]``; log and
        accumulate.  Returns the decided codes ``(b, n)``.
        """
        batch, length = writes.shape
        if batch == 0 or length == 0:
            return np.empty((batch, length), dtype=np.int64)
        carry_length = group.carry_length
        if carry_length:
            full = np.concatenate([group.carry[rows], writes], axis=1)
        else:
            full = writes
        counts, copy, codes = run_batched_columns(
            group.spec.name, full, carry_length
        )
        group.counts[rows] += counts
        group.served[rows] += length
        group.copy[rows] = copy
        if carry_length:
            group.carry[rows] = full[:, -carry_length:]
        if self.config.record_decisions:
            group.history.append(
                (rows.copy(), writes.copy(), codes.astype(np.int8))
            )
        self._decisions += batch * length
        self._instruments.on_shard_drain(shard_index, batch, batch * length)
        return codes

    def _retry_after(self, queue_depth: int) -> float:
        """Seconds until a full drain should clear ``queue_depth``.

        Derived from the drain-throughput EMA; before any drain has been
        observed the hint is a conservative constant so callers always
        get a positive backoff.
        """
        if self._drain_rate <= 0.0:
            return 0.05
        return max(queue_depth / self._drain_rate, 1e-6)

    def drain_shard(self, shard_index: int) -> int:
        """Drain a shard's queue through the kernels; returns decisions."""
        shard = self._shards[shard_index]
        if not shard.depth:
            return 0
        started = time.perf_counter()
        decided = 0
        pending, shard.pending, shard.depth = shard.pending, {}, 0
        for name, per_row in pending.items():
            group = shard.groups[name]
            by_length: Dict[int, Tuple[List[int], List[List[bool]]]] = {}
            for row, bits in per_row.items():
                bucket = by_length.setdefault(len(bits), ([], []))
                bucket[0].append(row)
                bucket[1].append(bits)
            for _length, (rows, bit_rows) in sorted(by_length.items()):
                codes = self._drain_group_block(
                    shard_index,
                    group,
                    np.asarray(rows, dtype=np.intp),
                    np.asarray(bit_rows, dtype=bool),
                )
                decided += codes.size
        elapsed = time.perf_counter() - started
        if decided and elapsed > 0:
            rate = decided / elapsed
            self._drain_rate = (
                rate if self._drain_rate <= 0.0
                else 0.5 * self._drain_rate + 0.5 * rate
            )
        return decided

    def drain_all(self) -> int:
        """Drain every shard; returns total decisions made."""
        return sum(
            self.drain_shard(index) for index in range(self.config.num_shards)
        )

    # -- failover drills ------------------------------------------------

    def failover_drill(
        self,
        shard_index: int,
        *,
        requests: int = 240,
        theta: float = 0.6,
        kills: int = 1,
        seed: Optional[int] = None,
        algorithm: Optional[str] = None,
    ) -> Dict[str, object]:
        """Kill primaries under a shard's workload; demand ledger identity.

        Runs one seeded schedule twice through the wire simulator: once
        against a single fault-free SC, once against a
        ``config.replicas``-strong replica set with ``kills`` seeded
        random primary kills.  The chaos run's logical ledger — event
        kinds, cost breakdown, logical message count, read observations
        and final version — must be byte-identical to the fault-free
        run; all failover traffic lands in the overhead book.  The drill
        is a verification exercise on the shard's hosted algorithm and
        never touches live session state, so it is safe to run between
        serving bursts.
        """
        replicas = self.config.replicas
        if replicas == 1:
            raise ServiceError(
                "failover drills need a replica set; construct the "
                "service with ServiceConfig(replicas=2..5)"
            )
        if not 0 <= shard_index < self.config.num_shards:
            raise InvalidParameterError(
                f"shard_index must be in 0..{self.config.num_shards - 1}, "
                f"got {shard_index}"
            )
        from ..sim.faults import FaultConfig
        from ..sim.runner import simulate_protocol
        from ..workload import bernoulli_schedule

        if algorithm is None:
            shard = self._shards[shard_index]
            hosted = sorted(shard.groups)
            algorithm = hosted[0] if hosted else "sw3"
        if seed is None:
            seed = 0x5EED ^ shard_index
        schedule = bernoulli_schedule(theta, requests, seed)
        clean = simulate_protocol(algorithm, schedule, latency=0.05)
        horizon = max(clean.final_time * 0.8, 1.0)
        chaos = simulate_protocol(
            algorithm,
            schedule,
            latency=0.05,
            faults=FaultConfig(
                primary_kills=kills, kill_horizon=horizon, seed=seed
            ),
            replicas=replicas,
        )
        byte_identical = (
            chaos.event_kinds == clean.event_kinds
            and chaos.ledger.total_breakdown() == clean.ledger.total_breakdown()
            and chaos.ledger.logical_message_count()
            == clean.ledger.logical_message_count()
            and chaos.read_observations == clean.read_observations
            and chaos.final_version == clean.final_version
        )
        self._instruments.on_failover(
            shard_index, chaos.failovers, byte_identical
        )
        if not byte_identical:
            raise ServiceError(
                f"failover drill on shard {shard_index} diverged: the "
                f"chaos ledger is not byte-identical to the fault-free "
                f"run (algorithm {algorithm!r}, seed {seed})"
            )
        return {
            "shard": shard_index,
            "algorithm": algorithm,
            "seed": seed,
            "requests": requests,
            "replicas": replicas,
            "kills_requested": kills,
            "failovers": chaos.failovers,
            "kills_skipped": chaos.kills_skipped,
            "final_primary": chaos.final_primary,
            "failover_latencies": list(chaos.failover_latencies),
            "overhead_messages": chaos.overhead.overhead_messages,
            "byte_identical": byte_identical,
        }

    # -- introspection --------------------------------------------------

    @property
    def decisions(self) -> int:
        """Total operations decided since construction."""
        return self._decisions

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def session_info(self, key: SessionKey) -> Dict[str, object]:
        """One session's current state and cumulative cost."""
        group, row, shard_index = self._lookup(key)
        counts = {
            kind: int(count)
            for kind, count in zip(EVENT_KIND_ORDER, group.counts[row])
            if count
        }
        return {
            "key": str(key),
            "algorithm": group.spec.name,
            "shard": shard_index,
            "decisions": int(group.served[row]),
            "mobile_has_copy": bool(group.copy[row]),
            "event_counts": {kind.value: n for kind, n in counts.items()},
            "total_cost": total_from_counts(counts, group.models[row]),
        }

    def metrics(self) -> Dict[str, object]:
        """Service-level metrics (sessions, occupancy, queue depths)."""
        occupancy = [
            sum(group.size for group in shard.groups.values())
            for shard in self._shards
        ]
        occupied = [count for count in occupancy if count]
        return {
            "sessions": len(self._sessions),
            "decisions": self._decisions,
            "num_shards": self.config.num_shards,
            "occupied_shards": len(occupied),
            "max_shard_sessions": max(occupancy, default=0),
            "min_shard_sessions": min(occupancy, default=0),
            "queue_depths": {
                shard.index: shard.depth
                for shard in self._shards if shard.depth
            },
            "algorithms": sorted(
                {
                    name
                    for shard in self._shards
                    for name in shard.groups
                }
            ),
        }

    # -- audit and replay ----------------------------------------------

    def _session_log(
        self, group: _Group, row: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A session's logged (writes, codes) in decision order."""
        writes: List[np.ndarray] = []
        codes: List[np.ndarray] = []
        for rows, block_writes, block_codes in group.history:
            positions = np.nonzero(rows == row)[0]
            for position in positions:
                writes.append(block_writes[position])
                codes.append(block_codes[position])
        if not writes:
            empty = np.empty(0, dtype=bool)
            return empty, np.empty(0, dtype=np.int8)
        return np.concatenate(writes), np.concatenate(codes)

    def _require_log(self) -> None:
        if not self.config.record_decisions:
            raise ServiceError(
                "decision recording is disabled; audit and replay need "
                "record_decisions=True"
            )

    def audit(self, max_sessions_per_shard: Optional[int] = None) -> Dict[str, int]:
        """Conservation audit of the logged decisions, per shard.

        Synthesizes the protocol messages each logged decision implies,
        records them into one :class:`~repro.sim.ledger.TrafficLedger`
        per shard, and demands (a) the ledger's traffic classification
        reproduces the logged codes one-for-one and (b) the ledger's
        conservation invariants hold.  ``max_sessions_per_shard`` caps
        audit work on large populations (the sample is the first N
        sessions of each shard in open order — deterministic).
        """
        self._require_log()
        shards_audited = 0
        sessions_audited = 0
        requests_audited = 0
        for shard in self._shards:
            ledger = TrafficLedger()
            completed: List[int] = []
            expected: List[CostEventKind] = []
            budget = max_sessions_per_shard
            next_index = 0
            for group in shard.groups.values():
                if budget is not None and budget <= 0:
                    break
                for row in range(group.size):
                    if budget is not None:
                        if budget <= 0:
                            break
                        budget -= 1
                    _writes, codes = self._session_log(group, row)
                    if codes.size == 0:
                        continue
                    sessions_audited += 1
                    for code in codes:
                        kind = EVENT_KIND_ORDER[int(code)]
                        index = next_index
                        next_index += 1
                        ledger.note_request(index, _KIND_OPERATION[kind])
                        self._synthesize(ledger, index, kind)
                        completed.append(index)
                        expected.append(kind)
                        requests_audited += 1
            if not expected:
                continue
            observed = ledger.classify_all()
            if observed != expected:
                raise ServiceError(
                    f"shard {shard.index} audit: ledger classification "
                    "diverged from the logged decisions"
                )
            ledger.check_conservation(completed)
            shards_audited += 1
        return {
            "shards_audited": shards_audited,
            "sessions_audited": sessions_audited,
            "requests_audited": requests_audited,
        }

    @staticmethod
    def _synthesize(
        ledger: TrafficLedger, index: int, kind: CostEventKind
    ) -> None:
        """Record the wire messages one classified decision implies."""
        if kind is CostEventKind.REMOTE_READ:
            request = ReadRequest(request_index=index)
            ledger.record(request)
            ledger.record(
                ReadReply(request_index=index, in_reply_to=request.message_id)
            )
        elif kind is CostEventKind.WRITE_PROPAGATED:
            ledger.record(WritePropagation(request_index=index))
        elif kind is CostEventKind.WRITE_PROPAGATED_DEALLOCATE:
            propagation = WritePropagation(request_index=index)
            ledger.record(propagation)
            ledger.record(
                DeallocationNotice(
                    request_index=index, in_reply_to=propagation.message_id
                )
            )
        elif kind is CostEventKind.WRITE_DELETE_REQUEST:
            ledger.record(DeleteRequest(request_index=index))
        # LOCAL_READ and WRITE_NO_COPY cause no traffic.

    def replay_verify(self, sample: int = 32) -> Dict[str, object]:
        """Re-run sampled sessions through the engine; demand identity.

        The sample is the ``sample`` open sessions with the smallest key
        digests (deterministic and uniformly spread, since digests are).
        Each is replayed fresh through :func:`repro.engine.run` with
        auto dispatch; the engine's per-request event kinds must match
        the logged codes exactly and its total must equal pricing the
        service's cumulative counts.  Raises
        :class:`~repro.exceptions.ServiceError` on the first divergence.
        """
        self._require_log()
        chosen = sorted(self._sessions, key=lambda key: key.digest())[:sample]
        replayed = 0
        decisions = 0
        for key in chosen:
            group, row, _shard = self._lookup(key)
            writes, codes = self._session_log(group, row)
            if codes.size == 0:
                continue
            schedule = Schedule(
                Request(Operation.WRITE if bit else Operation.READ)
                for bit in writes
            )
            result = engine_run(
                group.spec.name, schedule, group.models[row], stream=False
            )
            expected = tuple(EVENT_KIND_ORDER[int(code)] for code in codes)
            if result.event_kinds != expected:
                raise ServiceError(
                    f"replay divergence for {key}: engine decisions "
                    "differ from the service log"
                )
            counts = {
                kind: int(count)
                for kind, count in zip(EVENT_KIND_ORDER, group.counts[row])
                if count
            }
            if counts != result.event_counts:
                raise ServiceError(
                    f"replay divergence for {key}: event counts differ"
                )
            if total_from_counts(counts, group.models[row]) != result.total_cost:
                raise ServiceError(
                    f"replay divergence for {key}: totals differ"
                )
            replayed += 1
            decisions += codes.size
        return {"sessions_replayed": replayed, "decisions_replayed": decisions}
