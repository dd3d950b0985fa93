"""Unit tests for the SWk family and its request window (section 4)."""

from __future__ import annotations

import pytest

from repro.core import SlidingWindow, SlidingWindowOne, replay
from repro.core.session import popcount
from repro.costmodels import ConnectionCostModel, CostEventKind
from repro.exceptions import InvalidParameterError
from repro.types import READ, WRITE, AllocationScheme, Schedule


def _fed(algorithm, text):
    """``algorithm`` after serving the requests spelled by ``text``."""
    for request in Schedule.from_string(text):
        algorithm.process(request.operation)
    return algorithm


class TestSlidingWindowBehaviour:
    def test_default_start_is_one_copy(self):
        algorithm = SlidingWindow(5)
        assert algorithm.scheme is AllocationScheme.ONE_COPY
        assert algorithm.name == "sw5"

    def test_initial_window_sets_scheme(self):
        # Three reads fill the window; its majority is the scheme.
        algorithm = _fed(SlidingWindow(3), "rrr")
        assert algorithm.session.carry == 0b000
        assert algorithm.scheme is AllocationScheme.TWO_COPIES

    def test_allocation_needs_majority_flip(self):
        # k=3 starting from all writes: the copy appears only after
        # two reads make reads the majority.
        algorithm = SlidingWindow(3)
        assert algorithm.process(READ) is CostEventKind.REMOTE_READ
        assert not algorithm.mobile_has_copy
        assert algorithm.process(READ) is CostEventKind.REMOTE_READ
        assert algorithm.mobile_has_copy  # window now r,r,w -> majority reads

    def test_reads_free_once_allocated(self):
        algorithm = _fed(SlidingWindow(3), "rrr")
        assert algorithm.process(READ) is CostEventKind.LOCAL_READ

    def test_write_propagated_while_majority_reads(self):
        algorithm = _fed(SlidingWindow(5), "rrrrr")
        assert algorithm.process(WRITE) is CostEventKind.WRITE_PROPAGATED
        assert algorithm.mobile_has_copy

    def test_write_deallocates_on_flip(self):
        algorithm = _fed(SlidingWindow(3), "rrr")
        assert algorithm.process(WRITE) is CostEventKind.WRITE_PROPAGATED
        kind = algorithm.process(WRITE)
        assert kind is CostEventKind.WRITE_PROPAGATED_DEALLOCATE
        assert not algorithm.mobile_has_copy

    def test_writes_free_without_copy(self):
        algorithm = SlidingWindow(3)
        assert algorithm.process(WRITE) is CostEventKind.WRITE_NO_COPY

    def test_scheme_always_equals_window_majority(self):
        """The invariant behind equation 4's pi_k analysis."""
        algorithm = SlidingWindow(7)
        pattern = Schedule.from_string("rrrwwrwrwwwrrrrrwwwwwrrr")
        for request in pattern:
            algorithm.process(request.operation)
            writes = popcount(algorithm.session.carry)
            assert algorithm.mobile_has_copy == (7 - writes > writes)

    def test_reset_restores_initial_state(self):
        algorithm = SlidingWindow(3)
        for op in (READ, READ, READ):
            algorithm.process(op)
        assert algorithm.mobile_has_copy
        algorithm.reset()
        assert not algorithm.mobile_has_copy
        assert algorithm.session.carry == 0b111

    def test_clone_is_fresh(self):
        algorithm = SlidingWindow(3)
        algorithm.process(READ)
        clone = algorithm.clone()
        assert clone.k == 3
        assert clone.session.carry == 0b111

    def test_rejects_even_k(self):
        with pytest.raises(InvalidParameterError):
            SlidingWindow(4)


class TestSlidingWindowOne:
    def test_follows_last_request(self):
        algorithm = SlidingWindowOne()
        assert algorithm.process(READ) is CostEventKind.REMOTE_READ
        assert algorithm.mobile_has_copy
        assert algorithm.process(READ) is CostEventKind.LOCAL_READ
        assert algorithm.process(WRITE) is CostEventKind.WRITE_DELETE_REQUEST
        assert not algorithm.mobile_has_copy
        assert algorithm.process(WRITE) is CostEventKind.WRITE_NO_COPY

    def test_delete_request_instead_of_propagation(self):
        """The end-of-section-4 optimization: SW1 never propagates data."""
        algorithm = SlidingWindowOne()
        schedule = Schedule.from_string("rwrwrw")
        result = replay(algorithm, schedule, ConnectionCostModel())
        kinds = {event.kind for event in result.events}
        assert CostEventKind.WRITE_PROPAGATED not in kinds
        assert CostEventKind.WRITE_PROPAGATED_DEALLOCATE not in kinds

    def test_unoptimized_k1_propagates(self):
        algorithm = SlidingWindow(1)
        algorithm.process(READ)
        kind = algorithm.process(WRITE)
        assert kind is CostEventKind.WRITE_PROPAGATED_DEALLOCATE

    def test_connection_costs_match_swk_with_k1(self):
        """In the connection model SW1 and unoptimized k=1 cost the same."""
        schedule = Schedule.from_string("rwwrrwrwwwrrrwr")
        model = ConnectionCostModel()
        optimized = replay(SlidingWindowOne(), schedule, model)
        unoptimized = replay(SlidingWindow(1), schedule, model)
        assert optimized.total_cost == unoptimized.total_cost
