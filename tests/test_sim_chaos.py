"""Chaos suite: the reliable transport leaves logical costs untouched.

The acceptance bar of the resilient-transport layer: for every
algorithm family, a seeded chaos run (drop + duplicate + reorder +
delay jitter + a disconnection episode) must complete without deadlock
and its *logical* ledger must be byte-identical to the fault-free run,
with all transport repair reported in the separate overhead book.
Hypothesis drives the schedules and fault seeds; a wall-clock alarm
guards every disconnection test so a deadlock regression fails fast
instead of hanging the suite.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import FaultConfig
from repro.sim.runner import simulate_protocol
from repro.types import Schedule

#: One representative per protocol family the paper analyzes.
CHAOS_ALGORITHMS = ("st1", "st2", "sw1", "sw5", "sw9", "t1_3", "t2_3")

#: Generous ceiling for any single chaos run; a deadlock would spin the
#: retry machinery against the kernel guard far longer than this.
WALL_CLOCK_LIMIT_SECONDS = 30

#: Kernel runaway guard: orders of magnitude above a legitimate run.
MAX_KERNEL_EVENTS = 2_000_000


@contextmanager
def wall_clock_limit(seconds: int):
    """Fail the test if the block runs longer than ``seconds``."""

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"chaos run exceeded the {seconds}s wall-clock guard; "
            "likely deadlock"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def schedules(max_size: int = 40):
    return st.text(alphabet="rw", min_size=1, max_size=max_size).map(
        Schedule.from_string
    )


@pytest.mark.parametrize("algorithm_name", CHAOS_ALGORITHMS)
class TestLogicalCostEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(schedule=schedules(), seed=st.integers(0, 2**31 - 1))
    def test_chaos_run_matches_fault_free_ledger(
        self, algorithm_name, schedule, seed
    ):
        faults = FaultConfig(
            drop=0.15,
            duplicate=0.1,
            reorder=0.2,
            delay_jitter=0.05,
            seed=seed,
            episodes=((0.4, 1.5),),
        )
        clean = simulate_protocol(algorithm_name, schedule)
        chaos = simulate_protocol(
            algorithm_name,
            schedule,
            faults=faults,
            max_events=MAX_KERNEL_EVENTS,
        )
        # Per-request classification, logical tallies and therefore any
        # priced total are byte-identical: the transport is invisible.
        assert chaos.event_kinds == clean.event_kinds
        assert (
            chaos.ledger.total_breakdown() == clean.ledger.total_breakdown()
        )
        assert (
            chaos.ledger.logical_message_count()
            == clean.ledger.logical_message_count()
        )
        assert chaos.final_version == clean.final_version
        # Reads observed the same values despite losses and duplicates.
        assert chaos.read_observations == clean.read_observations

    @settings(max_examples=10, deadline=None)
    @given(schedule=schedules(max_size=25), seed=st.integers(0, 2**31 - 1))
    def test_overhead_never_leaks_into_the_logical_book(
        self, algorithm_name, schedule, seed
    ):
        faults = FaultConfig(drop=0.3, duplicate=0.2, seed=seed)
        clean = simulate_protocol(algorithm_name, schedule)
        chaos = simulate_protocol(
            algorithm_name,
            schedule,
            faults=faults,
            max_events=MAX_KERNEL_EVENTS,
        )
        assert chaos.ledger.total_breakdown() == clean.ledger.total_breakdown()
        overhead = chaos.overhead
        # Conservation: physical activity >= logical activity, and the
        # repair traffic is accounted where it belongs.
        assert overhead.physical_frames >= chaos.ledger.logical_message_count()
        assert overhead.frames_lost <= overhead.physical_frames
        if overhead.frames_lost == 0 and faults.duplicate == 0:
            assert overhead.retransmissions == 0


@pytest.mark.parametrize("algorithm_name", CHAOS_ALGORITHMS)
class TestDisconnectionRecovery:
    def test_mid_run_outage_completes_and_resyncs(self, algorithm_name):
        schedule = Schedule.from_string("rrwrwwrrrwwrwrrw")
        faults = FaultConfig(
            drop=0.1,
            duplicate=0.05,
            reorder=0.1,
            seed=97,
            episodes=((0.3, 5.0),),
        )
        with wall_clock_limit(WALL_CLOCK_LIMIT_SECONDS):
            result = simulate_protocol(
                algorithm_name,
                schedule,
                faults=faults,
                max_events=MAX_KERNEL_EVENTS,
            )
        assert len(result.event_kinds) == len(schedule)
        assert result.resyncs_verified == 1
        # The outage forced repair traffic.
        assert result.overhead.frames_lost > 0

    def test_repeated_outages_complete(self, algorithm_name):
        schedule = Schedule.from_string("rwrwrrwwrr" * 3)
        faults = FaultConfig(
            seed=3,
            episodes=((0.2, 2.0), (6.0, 2.0), (12.0, 1.0)),
        )
        clean = simulate_protocol(algorithm_name, schedule)
        with wall_clock_limit(WALL_CLOCK_LIMIT_SECONDS):
            result = simulate_protocol(
                algorithm_name,
                schedule,
                faults=faults,
                max_events=MAX_KERNEL_EVENTS,
            )
        assert result.event_kinds == clean.event_kinds
        assert result.resyncs_verified == 3

    def test_outage_only_run_is_logically_free(self, algorithm_name):
        """An outage with no random faults costs zero retransmissions
        only if no exchange was in flight; either way the logical book
        is pinned."""
        schedule = Schedule.from_string("rrwrw")
        clean = simulate_protocol(algorithm_name, schedule)
        faults = FaultConfig(seed=0, episodes=((0.15, 3.0),))
        with wall_clock_limit(WALL_CLOCK_LIMIT_SECONDS):
            result = simulate_protocol(
                algorithm_name,
                schedule,
                faults=faults,
                max_events=MAX_KERNEL_EVENTS,
            )
        assert result.event_kinds == clean.event_kinds
        assert (
            result.ledger.total_breakdown() == clean.ledger.total_breakdown()
        )


def test_resync_waits_for_a_frame_buffered_behind_the_handshake():
    """Pinned counterexample: on sw5 "rrwrww" with fault seed 790 the
    MC's handshake (frame 3) is retransmitted, and the protocol message
    the MC sent after it (frame 4) reaches the SC first, where it is
    acked and buffered.  When the handshake is released no frame is
    unacked, yet frame 4 is still unprocessed, so the SC's view lags
    the MC's.  The agreement check must wait for the buffer to drain
    instead of failing the resync."""
    schedule = Schedule.from_string("rrwrww")
    faults = FaultConfig(
        drop=0.15,
        duplicate=0.1,
        reorder=0.2,
        delay_jitter=0.05,
        seed=790,
        episodes=((0.4, 1.5),),
    )
    clean = simulate_protocol("sw5", schedule)
    with wall_clock_limit(WALL_CLOCK_LIMIT_SECONDS):
        chaos = simulate_protocol(
            "sw5", schedule, faults=faults, max_events=MAX_KERNEL_EVENTS
        )
    assert chaos.event_kinds == clean.event_kinds
    assert chaos.ledger.total_breakdown() == clean.ledger.total_breakdown()
    assert chaos.resyncs_verified == 1
