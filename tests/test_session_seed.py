"""The (carry, copy) seed: the whole decision state of a session."""

from __future__ import annotations

import pytest

from repro.core.session import AlgorithmSpec, AllocationSession
from repro.exceptions import InvalidParameterError
from repro.sim.policies import make_deciders
from repro.types import READ, WRITE, Operation

NAMES = [
    "st1", "st2", "sw1", "sw1-unoptimized", "sw3", "sw9",
    "t1_1", "t1_4", "t2_1", "t2_4",
]


def _ops(text: str):
    return [Operation.from_symbol(symbol) for symbol in text]


class TestSeed:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("prefix", ["", "r", "w", "rrrw", "wwrrrwrw",
                                        "rwrwwwrrr", "wwwwww", "rrrrrr"])
    def test_seeded_session_continues_identically(self, name, prefix):
        fed = AllocationSession.from_name(name)
        for op in _ops(prefix):
            fed.feed(op)
        seeded = AllocationSession(
            fed.spec, seed=(fed.carry, fed.mobile_has_copy)
        )
        assert seeded.state_signature() == fed.state_signature()
        for op in _ops("rwrrwwrwrrrwwwrrrr"):
            assert seeded.feed(op) == fed.feed(op)
            assert seeded.state_signature() == fed.state_signature()

    @pytest.mark.parametrize("name", NAMES)
    def test_fresh_carry_is_the_spec_initial_carry(self, name):
        session = AllocationSession.from_name(name)
        assert session.carry_bits().tolist() == (
            session.spec.initial_carry().tolist()
        )

    @pytest.mark.parametrize("spec, seed", [
        (AlgorithmSpec("swk", 3), (8, False)),   # needs 4 bits
        (AlgorithmSpec("swk", 3), (-1, False)),
        (AlgorithmSpec("t1", 2), (1.0, False)),
        (AlgorithmSpec("swk", 3), (_ops("rrr"), True)),
        (AlgorithmSpec("st1"), (0, True)),        # ST1 never holds a copy
        (AlgorithmSpec("st2"), (0, False)),
    ])
    def test_invalid_seeds_rejected(self, spec, seed):
        with pytest.raises(InvalidParameterError):
            AllocationSession(spec, seed=seed)

    def test_decisions_are_interned(self):
        first = AllocationSession.from_name("sw3")
        second = AllocationSession.from_name("t1_2")
        assert first.feed(WRITE) is second.feed(WRITE)
        assert first.feed(READ) is second.feed(READ)


class TestWindowHandoff:
    def test_sw3_window_crosses_the_wire_as_its_carry(self):
        deciders = make_deciders("sw3")
        assert deciders.stationary.on_read_request() == (False, None)
        allocate, window = deciders.stationary.on_read_request()
        # Writes pad the fresh window: w, r, r (newest in bit 0).
        assert (allocate, window) == (True, 0b100)
        deciders.mobile.adopt_window(window)
        assert not deciders.mobile.on_propagation()  # r, r, w
        assert deciders.mobile.on_propagation()      # r, w, w
        released = deciders.mobile.release_window()
        assert released == 0b011
        deciders.stationary.adopt_window(released)
        assert deciders.stationary.owns_window()
        assert not deciders.mobile.owns_window()
