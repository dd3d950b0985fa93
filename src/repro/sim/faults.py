"""Fault injection and the reliable transport for the protocol simulator.

The paper assumes a reliable, serialized wireless channel (section
8.1 delegates availability to the stationary system).  Real mobile
links drop, duplicate, reorder and delay frames, and the MC
disconnects outright.  This module supplies both halves of the story:

* **Unreliable media** — :class:`DroppingNetwork` (deterministic
  drop-the-nth, the fault-*detection* tool) and :class:`LossyNetwork`
  (seeded random drop/duplicate/reorder/delay plus scheduled
  disconnection episodes).  Protocol messages ride these raw, so a
  loss surfaces as a deadlock and a duplicate as a
  :class:`~repro.exceptions.ProtocolError` — never as a wrong ledger.
* **A reliable transport** — :class:`ReliableNetwork`, an ARQ layer
  (sequence numbers, per-frame acks, timeout/retransmit with
  exponential backoff, duplicate suppression, in-order release) over
  the same faulty medium, plus a reconnection handshake that
  cross-checks replica state and window ownership after an outage.

The accounting contract is the point: the logical book of the
:class:`~repro.sim.ledger.TrafficLedger` is charged exactly once per
protocol message — at :meth:`ReliableNetwork.send`, before the medium
touches it — while every physical frame, retransmission, ack and
handshake lands in the ledger's *overhead* book.  Because the ARQ
layer delivers exactly once, in order, per direction, the protocol
state machines cannot distinguish a chaos run from a fault-free one,
so the logical totals are byte-identical; only the overhead differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import (
    InvalidParameterError,
    PeerUnreachableError,
    ProtocolError,
)
from .kernel import EventKernel
from .ledger import TrafficLedger
from .messages import AckFrame, Frame, Message, SyncState
from .network import PointToPointNetwork

__all__ = [
    "FaultConfig",
    "parse_fault_spec",
    "DroppingNetwork",
    "LossyNetwork",
    "ReliableNetwork",
]


@dataclass(frozen=True)
class FaultConfig:
    """One seeded fault schedule for a run.

    Rates are independent per-frame probabilities.  ``episodes`` are
    ``(start, duration)`` intervals of MC disconnection: every frame
    sent while an episode is active — in either direction — is lost.

    The node-fault fields drive replica-set campaigns (see
    :mod:`repro.sim.replica`): ``crashes`` kills a replica for good,
    ``pauses`` freezes one for an interval (frames addressed to it are
    lost while paused), ``partitions`` splits the replica LAN into two
    groups for an interval, and ``primary_kills`` schedules that many
    seeded random kills of whoever is primary, uniformly over
    ``[0, kill_horizon)`` — skipping any kill that would destroy the
    quorum.
    """

    #: Probability a transmitted frame is destroyed.
    drop: float = 0.0
    #: Probability the medium delivers a second copy of a frame.
    duplicate: float = 0.0
    #: Probability a frame is held back by an extra random delay.
    reorder: float = 0.0
    #: Uniform [0, delay_jitter] latency added to every delivery.
    delay_jitter: float = 0.0
    #: Seed for the fault RNG; same seed, same fault schedule.
    seed: int = 0
    #: Disconnection episodes as (start_time, duration) pairs.
    episodes: Tuple[Tuple[float, float], ...] = ()
    #: Retry budget per frame before the transport gives up.
    max_attempts: int = 60
    #: Permanent replica crashes as (replica_id, time) pairs.
    crashes: Tuple[Tuple[int, float], ...] = ()
    #: Replica freezes as (replica_id, start, end) triples.
    pauses: Tuple[Tuple[int, float, float], ...] = ()
    #: LAN splits as (group_a_ids, group_b_ids, start, end) tuples.
    partitions: Tuple[
        Tuple[Tuple[int, ...], Tuple[int, ...], float, float], ...
    ] = ()
    #: Seeded random kills of the current primary.
    primary_kills: int = 0
    #: Kill times are drawn uniformly from [0, kill_horizon).
    kill_horizon: float = 0.0

    def __post_init__(self):
        for name in ("drop", "duplicate", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise InvalidParameterError(
                    f"{name} must be in [0, 1), got {rate!r}"
                )
        if self.delay_jitter < 0:
            raise InvalidParameterError(
                f"delay_jitter must be >= 0, got {self.delay_jitter!r}"
            )
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        for start, duration in self.episodes:
            if start < 0 or duration <= 0:
                raise InvalidParameterError(
                    f"episode ({start!r}, {duration!r}) must have "
                    "start >= 0 and duration > 0"
                )
        for replica, time in self.crashes:
            if replica < 0 or time < 0:
                raise InvalidParameterError(
                    f"crash ({replica!r}, {time!r}) must have "
                    "replica >= 0 and time >= 0"
                )
        for replica, start, end in self.pauses:
            if replica < 0 or start < 0 or end <= start:
                raise InvalidParameterError(
                    f"pause ({replica!r}, {start!r}, {end!r}) must have "
                    "replica >= 0, start >= 0 and end > start"
                )
        for group_a, group_b, start, end in self.partitions:
            if not group_a or not group_b:
                raise InvalidParameterError(
                    "partition groups must both be non-empty"
                )
            if set(group_a) & set(group_b):
                raise InvalidParameterError(
                    f"partition groups {group_a!r} and {group_b!r} overlap"
                )
            if start < 0 or end <= start:
                raise InvalidParameterError(
                    f"partition window ({start!r}, {end!r}) must have "
                    "start >= 0 and end > start"
                )
        if self.primary_kills < 0:
            raise InvalidParameterError(
                f"primary_kills must be >= 0, got {self.primary_kills!r}"
            )
        if self.primary_kills and self.kill_horizon <= 0:
            raise InvalidParameterError(
                "primary_kills needs kill_horizon > 0, got "
                f"{self.kill_horizon!r}"
            )

    @property
    def has_node_faults(self) -> bool:
        """True when any replica-level (node) fault is scheduled."""
        return bool(
            self.crashes
            or self.pauses
            or self.partitions
            or self.primary_kills
        )

    @property
    def has_frame_faults(self) -> bool:
        """True when any frame-level (link) fault is configured."""
        return (
            self.drop != 0.0
            or self.duplicate != 0.0
            or self.reorder != 0.0
            or self.delay_jitter != 0.0
            or bool(self.episodes)
        )

    @property
    def is_clean(self) -> bool:
        """True when this config injects no faults at all."""
        return not self.has_frame_faults and not self.has_node_faults

    def disconnected(self, time: float) -> bool:
        """Whether a disconnection episode is active at ``time``."""
        return any(
            start <= time < start + duration
            for start, duration in self.episodes
        )


_SPEC_KEYS = {
    "drop": "drop",
    "dup": "duplicate",
    "duplicate": "duplicate",
    "reorder": "reorder",
    "delay": "delay_jitter",
    "seed": "seed",
}


def _number(text: str, key: str, kind: type = float):
    """``kind(text)``, or an :class:`InvalidParameterError` naming ``key``."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InvalidParameterError(
            f"fault spec key {key!r} wants {what}, got {text!r}"
        ) from None


def _split_at(value: str, key: str) -> Tuple[str, str]:
    head, sep, tail = value.partition("@")
    if not sep:
        raise InvalidParameterError(
            f"{key} wants WHO@WHEN, got {value!r}"
        )
    return head.strip(), tail.strip()


def _parse_window(text: str, key: str) -> Tuple[float, float]:
    start, sep, end = text.partition("..")
    if not sep:
        raise InvalidParameterError(
            f"{key} wants a START..END window, got {text!r}"
        )
    return _number(start, key), _number(end, key)


def _parse_group(text: str, key: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split("+") if part != "")
    except ValueError:
        raise InvalidParameterError(
            f"{key} group {text!r} is not '+'-joined replica ids"
        ) from None


def parse_fault_spec(text: str) -> FaultConfig:
    """Parse a CLI fault spec like ``drop=0.05,seed=7,disconnect=2:1``.

    Frame-level keys: ``drop``, ``dup``, ``reorder``, ``delay`` (jitter
    bound), ``seed``, and ``disconnect=START:DURATION`` (repeatable).

    Node-level keys (replica campaigns, all repeatable except
    ``kills``): ``crash=ID@T``, ``pause=ID@T..T2``,
    ``partition=A+B|C@T..T2`` (replica ids joined with ``+``, the two
    sides separated by ``|``), and ``kills=N@T`` (N seeded random
    primary kills drawn uniformly before time T).
    """
    kwargs: Dict[str, object] = {}
    episodes: List[Tuple[float, float]] = []
    crashes: List[Tuple[int, float]] = []
    pauses: List[Tuple[int, float, float]] = []
    partitions: List[
        Tuple[Tuple[int, ...], Tuple[int, ...], float, float]
    ] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InvalidParameterError(
                f"fault spec entry {part!r} is not key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "disconnect":
            start, sep, duration = value.partition(":")
            if not sep:
                raise InvalidParameterError(
                    f"disconnect wants START:DURATION, got {value!r}"
                )
            episodes.append((_number(start, key), _number(duration, key)))
            continue
        if key == "crash":
            who, when = _split_at(value, "crash")
            crashes.append((_number(who, key, int), _number(when, key)))
            continue
        if key == "pause":
            who, when = _split_at(value, "pause")
            start, end = _parse_window(when, "pause")
            pauses.append((_number(who, key, int), start, end))
            continue
        if key == "partition":
            groups, when = _split_at(value, "partition")
            side_a, sep, side_b = groups.partition("|")
            if not sep:
                raise InvalidParameterError(
                    f"partition wants A|B groups, got {groups!r}"
                )
            start, end = _parse_window(when, "partition")
            partitions.append((
                _parse_group(side_a, "partition"),
                _parse_group(side_b, "partition"),
                start,
                end,
            ))
            continue
        if key == "kills":
            count, horizon = _split_at(value, "kills")
            kwargs["primary_kills"] = _number(count, key, int)
            kwargs["kill_horizon"] = _number(horizon, key)
            continue
        field = _SPEC_KEYS.get(key)
        if field is None:
            raise InvalidParameterError(
                f"unknown fault spec key {key!r}; "
                f"known: {sorted(_SPEC_KEYS)}, 'disconnect', 'crash', "
                "'pause', 'partition', 'kills'"
            )
        kwargs[field] = _number(value, key, int if field == "seed" else float)
    kwargs["episodes"] = tuple(episodes)
    kwargs["crashes"] = tuple(crashes)
    kwargs["pauses"] = tuple(pauses)
    kwargs["partitions"] = tuple(partitions)
    return FaultConfig(**kwargs)


class DroppingNetwork(PointToPointNetwork):
    """Drops the n-th transmission (after charging it, like a real
    lossy link: the sender still paid for the airtime).

    The deterministic fault-*detection* tool: with no recovery layer a
    single loss must surface as a deadlock, never as a wrong ledger.
    """

    def __init__(
        self,
        kernel: EventKernel,
        ledger: TrafficLedger,
        drop_nth: int,
        latency: float = 0.0,
    ):
        super().__init__(kernel, ledger, latency)
        self._remaining = drop_nth
        self.dropped = 0

    def _transmit(self, destination: str, message: Message) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.dropped += 1
            self._ledger.overhead.frames_lost += 1
            return
        super()._transmit(destination, message)


class _FaultyMedium:
    """Shared fate-decision engine for the seeded fault models.

    One call per physical transmission; returns the delivery delays for
    every copy the medium produces (empty list: the frame is lost).
    Overhead counters for physical frames and losses are updated here
    so :class:`LossyNetwork` and :class:`ReliableNetwork` agree on the
    books.
    """

    def __init__(
        self,
        kernel: EventKernel,
        ledger: TrafficLedger,
        config: FaultConfig,
        latency: float,
    ):
        self._kernel = kernel
        self._ledger = ledger
        self._config = config
        self._latency = latency
        self._rng = random.Random(config.seed)
        # Extra hold-back that realizes reordering: long enough to slip
        # behind a later frame, short enough to stay under the RTO.
        self.reorder_span = 2.0 * latency + config.delay_jitter + 0.25

    def _delay(self) -> float:
        delay = self._latency
        if self._config.delay_jitter:
            delay += self._rng.uniform(0.0, self._config.delay_jitter)
        if self._config.reorder and self._rng.random() < self._config.reorder:
            delay += self._rng.uniform(0.0, self.reorder_span)
        return delay

    def fate(self) -> List[float]:
        """Decide one transmission's outcome; updates the overhead book."""
        overhead = self._ledger.overhead
        overhead.physical_frames += 1
        if self._config.disconnected(self._kernel.now):
            overhead.frames_lost += 1
            return []
        if self._config.drop and self._rng.random() < self._config.drop:
            overhead.frames_lost += 1
            return []
        delays = [self._delay()]
        if self._config.duplicate and self._rng.random() < self._config.duplicate:
            overhead.physical_frames += 1
            delays.append(self._delay())
        return delays


class LossyNetwork(PointToPointNetwork):
    """Seeded random faults applied to raw protocol messages.

    No recovery: a dropped message stalls the run, a duplicated data
    message trips the protocol's state checks.  Use it to demonstrate
    *why* :class:`ReliableNetwork` exists.
    """

    def __init__(
        self,
        kernel: EventKernel,
        ledger: TrafficLedger,
        faults: FaultConfig,
        latency: float = 0.0,
    ):
        super().__init__(kernel, ledger, latency)
        self._medium = _FaultyMedium(kernel, ledger, faults, latency)

    def _transmit(self, destination: str, message: Message) -> None:
        handler = self._handler_for(destination)
        for delay in self._medium.fate():
            self._kernel.schedule_after(delay, lambda m=message: handler(m))


class _ArqDirection:
    """Sender and receiver state for one direction of the link."""

    __slots__ = ("next_seq", "unacked", "attempts", "expected", "buffer")

    def __init__(self):
        self.next_seq = 0
        self.unacked: Dict[int, object] = {}
        self.attempts: Dict[int, int] = {}
        self.expected = 0
        self.buffer: Dict[int, object] = {}

    @property
    def in_flight(self) -> int:
        return len(self.unacked)


class ReliableNetwork(PointToPointNetwork):
    """Exactly-once, in-order delivery over a faulty medium (ARQ).

    Every :meth:`send` charges the logical ledger once, wraps the
    message in a sequenced :class:`~repro.sim.messages.Frame` and
    transmits it through the seeded fault model.  Unacked frames are
    retransmitted on an exponential-backoff timer; the receiver
    suppresses duplicates, buffers out-of-order arrivals and releases
    payloads strictly in sequence, so the protocol nodes observe a
    perfect channel whatever the medium did.

    After each disconnection episode the MC initiates a resync
    handshake: its replica summary travels to the SC (through the same
    ARQ machinery — the handshake itself survives losses), which
    cross-checks subscription agreement, version dominance and window
    ownership.  Wire the summaries with :meth:`register_sync_provider`.
    """

    def __init__(
        self,
        kernel: EventKernel,
        ledger: TrafficLedger,
        faults: FaultConfig,
        latency: float = 0.0,
        max_retries: Optional[int] = None,
    ):
        super().__init__(kernel, ledger, latency)
        self._config = faults
        self._max_retries = (
            faults.max_attempts if max_retries is None else max_retries
        )
        if self._max_retries < 1:
            raise InvalidParameterError(
                f"max_retries must be >= 1, got {max_retries!r}"
            )
        self._medium = _FaultyMedium(kernel, ledger, faults, latency)
        self._directions: Dict[str, _ArqDirection] = {
            "mc": _ArqDirection(),
            "sc": _ArqDirection(),
        }
        self._sync_providers: Dict[str, Callable[[], SyncState]] = {}
        self.resyncs_verified = 0
        #: Payloads that exhausted the retry budget, as
        #: (destination, seq, payload) triples, oldest first.
        self.dead_letters: List[Tuple[str, int, object]] = []
        # Worst-case round trip (max data delay + max ack delay) plus
        # headroom; below this the timer would retransmit acked frames.
        worst_one_way = (
            latency + faults.delay_jitter + self._medium.reorder_span
        )
        self._rto_base = 2.0 * worst_one_way + 0.5
        for start, duration in faults.episodes:
            kernel.schedule_at(start + duration, self._fire_reconnect)

    # -- public API ------------------------------------------------------

    def send(self, destination: str, message: Message) -> None:
        """Charge the logical book once, then deliver reliably."""
        self._handler_for(destination)
        self._ledger.record(message)
        self._submit(destination, message)

    def register_sync_provider(
        self, endpoint: str, provider: Callable[[], SyncState]
    ) -> None:
        """Register the replica-state summary for one endpoint.

        ``provider`` returns the endpoint's current
        :class:`~repro.sim.messages.SyncState`; for the SC,
        ``has_copy`` means "the MC is subscribed in my books".
        """
        self._sync_providers[endpoint] = provider

    @property
    def in_flight(self) -> int:
        """Unacked data frames across both directions."""
        return sum(d.in_flight for d in self._directions.values())

    # -- sender side -----------------------------------------------------

    def _submit(self, destination: str, payload: object) -> None:
        direction = self._directions[destination]
        seq = direction.next_seq
        direction.next_seq += 1
        direction.unacked[seq] = payload
        direction.attempts[seq] = 0
        self._transmit_frame(destination, seq, retransmission=False)
        self._schedule_retry(destination, seq)

    def _transmit_frame(
        self, destination: str, seq: int, retransmission: bool
    ) -> None:
        direction = self._directions[destination]
        payload = direction.unacked.get(seq)
        if payload is None:  # acked while the retry event was queued
            return
        if retransmission:
            self._ledger.overhead.retransmissions += 1
        frame = Frame(seq=seq, payload=payload, retransmission=retransmission)
        for delay in self._medium.fate():
            self._kernel.schedule_after(
                delay, lambda f=frame: self._on_frame(destination, f)
            )

    def _schedule_retry(self, destination: str, seq: int) -> None:
        direction = self._directions[destination]
        attempt = direction.attempts[seq]
        backoff = self._rto_base * (2.0 ** min(attempt, 10))
        self._kernel.schedule_after(
            backoff, lambda: self._on_retry_timer(destination, seq)
        )

    def _on_retry_timer(self, destination: str, seq: int) -> None:
        direction = self._directions[destination]
        if seq not in direction.unacked:
            return
        direction.attempts[seq] += 1
        if direction.attempts[seq] > self._max_retries:
            # Dead-letter escalation: park the payload where a
            # supervisor can find it, then surface the typed failure.
            payload = direction.unacked.pop(seq)
            direction.attempts.pop(seq, None)
            self.dead_letters.append((destination, seq, payload))
            self._ledger.overhead.dead_letters += 1
            raise PeerUnreachableError(
                destination,
                self._max_retries,
                f"frame {seq} dead-lettered",
            )
        self._transmit_frame(destination, seq, retransmission=True)
        self._schedule_retry(destination, seq)

    def _on_ack(self, destination: str, seq: int) -> None:
        direction = self._directions[destination]
        direction.unacked.pop(seq, None)
        direction.attempts.pop(seq, None)

    # -- receiver side ---------------------------------------------------

    def _on_frame(self, destination: str, frame: Frame) -> None:
        # Ack every arrival (the sender may have missed an earlier ack).
        self._transmit_ack(destination, frame.seq)
        direction = self._directions[destination]
        if frame.seq < direction.expected or frame.seq in direction.buffer:
            self._ledger.overhead.duplicates_suppressed += 1
            return
        direction.buffer[frame.seq] = frame.payload
        while direction.expected in direction.buffer:
            seq = direction.expected
            payload = direction.buffer.pop(seq)
            direction.expected += 1
            if isinstance(payload, SyncState):
                self._on_sync(destination, payload, seq)
            else:
                self._handler_for(destination)(payload)

    def _transmit_ack(self, data_destination: str, seq: int) -> None:
        # The ack crosses the medium in the reverse direction; it is
        # never retransmitted — a lost ack is covered by the data
        # frame's own retry timer.
        self._ledger.overhead.acks += 1
        for delay in self._medium.fate():
            self._kernel.schedule_after(
                delay, lambda: self._on_ack(data_destination, seq)
            )

    # -- reconnection handshake -----------------------------------------

    def _fire_reconnect(self) -> None:
        provider = self._sync_providers.get("mc")
        if provider is None or "sc" not in self._sync_providers:
            return
        state = replace(
            provider(), in_flight=self._directions["sc"].in_flight
        )
        self._ledger.overhead.handshakes += 1
        self._submit("sc", state)

    def _on_sync(
        self, destination: str, mc_state: SyncState, seq: int
    ) -> None:
        if destination != "sc":
            raise ProtocolError("resync handshake must arrive at the SC")
        sc_state = self._sync_providers["sc"]()
        # The version check is safe on the wire-carried snapshot: the
        # SC assigns versions, so the MC's is never ahead at any
        # instant, and SC versions only grow while the snapshot ages.
        if (
            mc_state.version is not None
            and sc_state.version is not None
            and mc_state.version > sc_state.version
        ):
            raise ProtocolError(
                f"resync failed: the MC replica is at version "
                f"{mc_state.version}, ahead of the SC's {sc_state.version}"
            )
        # The agreement checks are NOT safe on the snapshot: it rode
        # the same lossy channel as the data, so by the time it is
        # released here the protocol may have moved on (the SC can
        # unsubscribe the MC and have the notice delivered and acked
        # while the handshake frame sat in a retransmit cycle).
        # Compare live endpoint states instead, and only when the
        # channel is quiescent — no unacked frame in either direction
        # besides this handshake frame itself, and none buffered at a
        # receiver.  An out-of-order arrival is acked at once but held
        # until the gap before it fills, so a protocol message sent
        # after the handshake can be acked, yet still wait in the
        # buffer behind it.  Acks are generated on arrival and release
        # is synchronous, so once both hold every protocol message has
        # been processed and the two views must truly agree.
        pending = self.in_flight
        if seq in self._directions[destination].unacked:
            pending -= 1  # the handshake frame, acked but not yet heard
        pending += sum(len(d.buffer) for d in self._directions.values())
        if pending == 0:
            live_mc = self._sync_providers["mc"]()
            if live_mc.owns_window and sc_state.owns_window:
                raise ProtocolError(
                    "resync failed: both sides claim the request window"
                )
            if live_mc.has_copy != sc_state.has_copy:
                raise ProtocolError(
                    f"resync failed: MC has_copy={live_mc.has_copy} but "
                    f"the SC believes mc_subscribed={sc_state.has_copy}"
                )
        self.resyncs_verified += 1
