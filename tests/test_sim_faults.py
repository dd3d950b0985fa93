"""Fault injection for the protocol simulator.

Two regimes, both exercised through the public :mod:`repro.sim.faults`
API.  Without a recovery layer the simulator must *detect* channel
faults — a dropped message surfaces as a deadlock and protocol-state
corruption as ProtocolError, never as a wrong ledger.  With the
reliable transport the same faults must be *survived*: the ARQ layer
hides them and the logical ledger stays exactly as the paper priced it
(the chaos equivalence suite lives in ``test_sim_chaos.py``).
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    InvalidParameterError,
    LedgerInvariantError,
    PeerUnreachableError,
    ProtocolError,
    SimulationError,
)
from repro.sim.faults import (
    DroppingNetwork,
    FaultConfig,
    LossyNetwork,
    ReliableNetwork,
    parse_fault_spec,
)
from repro.sim.kernel import EventKernel
from repro.sim.ledger import TrafficLedger
from repro.sim.messages import DeleteRequest, ReadReply, ReadRequest, WritePropagation
from repro.sim.network import PointToPointNetwork
from repro.sim.nodes import MobileComputer, StationaryComputer
from repro.sim.policies import make_deciders
from repro.sim.runner import SerializedDispatcher, simulate_protocol
from repro.types import Operation, Schedule


def run_with_network(algorithm_name: str, text: str, network_factory):
    """Drive a schedule over a custom network; returns the dispatcher.

    ``network_factory(kernel, ledger)`` builds the link under test.
    """
    kernel = EventKernel()
    ledger = TrafficLedger()
    network = network_factory(kernel, ledger)
    deciders = make_deciders(algorithm_name)
    schedule = Schedule.from_string(text)
    dispatcher = SerializedDispatcher(kernel, ledger, list(schedule))
    mobile = MobileComputer(
        network,
        deciders.mobile,
        dispatcher.on_complete,
        initially_has_copy=deciders.initial_mobile_has_copy,
    )
    stationary = StationaryComputer(
        network,
        deciders.stationary,
        dispatcher.on_complete,
        mc_initially_subscribed=deciders.initial_mobile_has_copy,
    )

    def issue(index, request):
        if request.operation is Operation.READ:
            mobile.issue_read(index)
        else:
            stationary.issue_write(index, value=f"v{index}")

    dispatcher.bind(issue)
    return dispatcher, network


def run_with_drop(algorithm_name: str, text: str, drop_nth: int):
    return run_with_network(
        algorithm_name,
        text,
        lambda kernel, ledger: DroppingNetwork(kernel, ledger, drop_nth),
    )


class TestMessageLoss:
    def test_lost_read_request_stalls_the_run(self):
        dispatcher, network = run_with_drop("st1", "rrr", drop_nth=1)
        with pytest.raises(ProtocolError, match="never completed"):
            dispatcher.run()
        assert network.dropped == 1

    def test_lost_reply_stalls_the_run(self):
        dispatcher, network = run_with_drop("st1", "rr", drop_nth=2)
        with pytest.raises(ProtocolError, match="never completed"):
            dispatcher.run()
        assert network.dropped == 1

    def test_lost_propagation_stalls_sw_protocol(self):
        # Messages: read-request, reply, read-request, reply... the 4th
        # transmission is the second read's reply or the propagation —
        # either way the run cannot finish.
        dispatcher, network = run_with_drop("sw3", "rrw", drop_nth=4)
        with pytest.raises(ProtocolError, match="never completed"):
            dispatcher.run()
        assert network.dropped == 1

    def test_without_drops_everything_completes(self):
        dispatcher, network = run_with_drop("sw3", "rrwrw", drop_nth=10**9)
        dispatcher.run()
        assert network.dropped == 0
        assert len(dispatcher.completed) == 5

    def test_dropped_frame_lands_in_the_overhead_book(self):
        dispatcher, _network = run_with_drop("st1", "r", drop_nth=1)
        with pytest.raises(ProtocolError, match="never completed"):
            dispatcher.run()
        # The airtime was paid (logical charge) but the frame was lost.
        assert dispatcher._ledger.overhead.frames_lost == 1
        assert dispatcher._ledger.logical_message_count() == 1

    def test_lossy_network_drops_stall_too(self):
        faults = FaultConfig(drop=0.9, seed=1)
        dispatcher, _network = run_with_network(
            "st1",
            "rrrr",
            lambda kernel, ledger: LossyNetwork(kernel, ledger, faults),
        )
        with pytest.raises(ProtocolError, match="never completed"):
            dispatcher.run()


class TestReliableTransportSurvives:
    """The same faults that stall the raw link are absorbed by ARQ."""

    def test_heavy_loss_completes(self):
        faults = FaultConfig(drop=0.4, seed=11)
        result = simulate_protocol("st1", Schedule.from_string("rrr"),
                                   faults=faults)
        assert len(result.event_kinds) == 3
        assert result.overhead.retransmissions > 0

    def test_duplicates_are_suppressed_not_delivered(self):
        faults = FaultConfig(duplicate=0.8, seed=5)
        result = simulate_protocol("sw3", Schedule.from_string("rrwrw"),
                                   faults=faults)
        clean = simulate_protocol("sw3", Schedule.from_string("rrwrw"))
        assert result.event_kinds == clean.event_kinds
        assert result.overhead.duplicates_suppressed > 0

    def test_retry_budget_exhaustion_dead_letters(self):
        # A permanently disconnected MC defeats every retransmission;
        # the transport must escalate with a typed error instead of
        # retrying forever, and the abandoned frame must be recorded.
        faults = FaultConfig(episodes=((0.0, 1e9),), max_attempts=4)
        dispatcher, network = run_with_network(
            "st1",
            "r",
            lambda kernel, ledger: ReliableNetwork(kernel, ledger, faults),
        )
        with pytest.raises(PeerUnreachableError) as excinfo:
            dispatcher.run()
        assert excinfo.value.attempts == 4
        assert len(network.dead_letters) == 1
        assert network._ledger.overhead.dead_letters == 1

    def test_explicit_max_retries_overrides_fault_budget(self):
        faults = FaultConfig(episodes=((0.0, 1e9),))
        dispatcher, network = run_with_network(
            "st1",
            "r",
            lambda kernel, ledger: ReliableNetwork(
                kernel, ledger, faults, max_retries=2
            ),
        )
        with pytest.raises(PeerUnreachableError) as excinfo:
            dispatcher.run()
        assert excinfo.value.attempts == 2
        with pytest.raises(InvalidParameterError):
            ReliableNetwork(
                EventKernel(), TrafficLedger(), faults, max_retries=0
            )

    def test_logical_book_rejects_double_charges(self):
        from repro.sim.messages import ReadRequest as RR

        ledger = TrafficLedger()
        ledger.note_request(0, Operation.READ)
        message = RR(request_index=0)
        ledger.record(message)
        with pytest.raises(LedgerInvariantError, match="charged twice"):
            ledger.record(message)


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(InvalidParameterError):
            FaultConfig(drop=1.0)
        with pytest.raises(InvalidParameterError):
            FaultConfig(duplicate=-0.1)
        with pytest.raises(InvalidParameterError):
            FaultConfig(delay_jitter=-1)
        with pytest.raises(InvalidParameterError):
            FaultConfig(episodes=((1.0, 0.0),))

    def test_disconnected_window(self):
        config = FaultConfig(episodes=((1.0, 2.0), (10.0, 1.0)))
        assert not config.disconnected(0.5)
        assert config.disconnected(1.0)
        assert config.disconnected(2.9)
        assert not config.disconnected(3.0)
        assert config.disconnected(10.5)

    def test_is_clean(self):
        assert FaultConfig().is_clean
        assert not FaultConfig(drop=0.1).is_clean
        assert not FaultConfig(episodes=((0.0, 1.0),)).is_clean

    def test_parse_fault_spec(self):
        config = parse_fault_spec(
            "drop=0.05,dup=0.02,reorder=0.1,delay=0.3,seed=7,"
            "disconnect=2:1,disconnect=8:0.5"
        )
        assert config.drop == 0.05
        assert config.duplicate == 0.02
        assert config.reorder == 0.1
        assert config.delay_jitter == 0.3
        assert config.seed == 7
        assert config.episodes == ((2.0, 1.0), (8.0, 0.5))

    def test_parse_fault_spec_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError, match="unknown fault"):
            parse_fault_spec("lose=0.5")
        with pytest.raises(InvalidParameterError, match="key=value"):
            parse_fault_spec("drop")
        with pytest.raises(InvalidParameterError, match="START:DURATION"):
            parse_fault_spec("disconnect=5")

    def test_parse_empty_spec_is_clean(self):
        config = parse_fault_spec("")
        assert config.is_clean
        assert not config.has_frame_faults
        assert not config.has_node_faults
        assert parse_fault_spec("  ,, ").is_clean

    def test_overlapping_episodes_union(self):
        config = FaultConfig(episodes=((0.0, 5.0), (2.0, 5.0)))
        assert config.disconnected(4.0)
        assert config.disconnected(6.0)
        assert not config.disconnected(7.5)

    def test_disconnected_boundaries_are_half_open(self):
        config = FaultConfig(episodes=((2.0, 1.0),))
        assert not config.disconnected(1.999999)
        assert config.disconnected(2.0)
        assert not config.disconnected(3.0)

    def test_parse_node_fault_spec(self):
        config = parse_fault_spec(
            "crash=0@5,pause=1@2..4.5,partition=0+1|2@3..9,kills=2@60,seed=9"
        )
        assert config.crashes == ((0, 5.0),)
        assert config.pauses == ((1, 2.0, 4.5),)
        assert config.partitions == (((0, 1), (2,), 3.0, 9.0),)
        assert config.primary_kills == 2
        assert config.kill_horizon == 60.0
        assert config.seed == 9
        assert config.has_node_faults
        assert not config.has_frame_faults
        assert not config.is_clean

    def test_parse_node_fault_spec_rejects_malformed(self):
        with pytest.raises(InvalidParameterError):
            parse_fault_spec("crash=0")
        with pytest.raises(InvalidParameterError):
            parse_fault_spec("pause=1@5")
        with pytest.raises(InvalidParameterError):
            parse_fault_spec("partition=0+1@3..9")
        with pytest.raises(InvalidParameterError):
            parse_fault_spec("pause=1@5..2")
        with pytest.raises(InvalidParameterError):
            FaultConfig(primary_kills=1)  # needs a horizon

    @pytest.mark.parametrize("spec, key", [
        ("drop=abc", "drop"),
        ("seed=x", "seed"),
        ("seed=1.5", "seed"),
        ("disconnect=a:1", "disconnect"),
        ("crash=a@5", "crash"),
        ("crash=0@x", "crash"),
        ("pause=z@1..2", "pause"),
        ("pause=0@1..x", "pause"),
        ("partition=0|1@a..2", "partition"),
        ("kills=q@5", "kills"),
        ("kills=1@q", "kills"),
    ])
    def test_parse_fault_spec_names_the_bad_number(self, spec, key):
        with pytest.raises(InvalidParameterError, match=repr(key)):
            parse_fault_spec(spec)

    def test_node_and_frame_fault_flags_are_disjoint(self):
        frame = FaultConfig(drop=0.1)
        node = FaultConfig(crashes=((0, 1.0),))
        assert frame.has_frame_faults and not frame.has_node_faults
        assert node.has_node_faults and not node.has_frame_faults


class TestInvariantChecker:
    def test_conservation_catches_missing_completion(self):
        ledger = TrafficLedger()
        ledger.note_request(0, Operation.READ)
        ledger.note_request(1, Operation.READ)
        with pytest.raises(LedgerInvariantError, match="never completed"):
            ledger.check_conservation([0])

    def test_conservation_catches_double_completion(self):
        ledger = TrafficLedger()
        ledger.note_request(0, Operation.WRITE)
        with pytest.raises(LedgerInvariantError, match="2 times"):
            ledger.check_conservation([0, 0])

    def test_conservation_catches_unregistered_completion(self):
        ledger = TrafficLedger()
        with pytest.raises(LedgerInvariantError, match="never registered"):
            ledger.check_conservation([3])

    def test_clean_run_passes_the_audit(self):
        result = simulate_protocol("sw3", Schedule.from_string("rrwrw"))
        # simulate_protocol already ran the audit; re-run it by hand.
        result.ledger.check_conservation(range(5))


class TestKernelRunawayGuard:
    def test_max_events_aborts_runaway_loops(self):
        kernel = EventKernel()

        def reschedule():
            kernel.schedule_after(1.0, reschedule)

        kernel.schedule_after(0.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            kernel.run(max_events=100)


class TestStateCorruption:
    def test_unsolicited_delete_request_rejected(self):
        kernel = EventKernel()
        ledger = TrafficLedger()
        network = PointToPointNetwork(kernel, ledger)
        deciders = make_deciders("st1")
        mobile = MobileComputer(
            network, deciders.mobile, lambda i: None, initially_has_copy=False
        )
        ledger.note_request(0, Operation.WRITE)
        network.send("mc", DeleteRequest(request_index=0))
        with pytest.raises(ProtocolError):
            kernel.run()

    def test_unsolicited_propagation_rejected(self):
        kernel = EventKernel()
        ledger = TrafficLedger()
        network = PointToPointNetwork(kernel, ledger)
        deciders = make_deciders("st1")
        mobile = MobileComputer(
            network, deciders.mobile, lambda i: None, initially_has_copy=False
        )
        ledger.note_request(0, Operation.WRITE)
        network.send("mc", WritePropagation(request_index=0, value="v", version=1))
        with pytest.raises(ProtocolError):
            kernel.run()

    def test_remote_read_while_subscribed_rejected(self):
        kernel = EventKernel()
        ledger = TrafficLedger()
        network = PointToPointNetwork(kernel, ledger)
        deciders = make_deciders("st2")
        stationary = StationaryComputer(
            network,
            deciders.stationary,
            lambda i: None,
            mc_initially_subscribed=True,
        )
        network.attach("mc", lambda m: None)
        ledger.note_request(0, Operation.READ)
        network.send("sc", ReadRequest(request_index=0))
        with pytest.raises(ProtocolError):
            kernel.run()

    def test_double_allocation_rejected(self):
        kernel = EventKernel()
        ledger = TrafficLedger()
        network = PointToPointNetwork(kernel, ledger)
        deciders = make_deciders("st2")
        mobile = MobileComputer(
            network, deciders.mobile, lambda i: None, initially_has_copy=True
        )
        ledger.note_request(0, Operation.READ)
        network.send(
            "mc",
            ReadReply(request_index=0, in_reply_to=1, value="v", version=1,
                      allocate=True),
        )
        with pytest.raises(ProtocolError):
            kernel.run()

    def test_runner_reports_deadlock(self):
        """The high-level runner converts a stall into ProtocolError."""
        original = PointToPointNetwork._transmit
        counter = {"n": 0}

        def lossy_transmit(self, destination, message):
            counter["n"] += 1
            if counter["n"] == 2:
                return  # charged by send(), never delivered
            original(self, destination, message)

        PointToPointNetwork._transmit = lossy_transmit
        try:
            with pytest.raises(ProtocolError, match="never completed"):
                simulate_protocol("st1", Schedule.from_string("rr"))
        finally:
            PointToPointNetwork._transmit = original
