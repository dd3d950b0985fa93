"""Unit tests for the estimator-based allocators."""

from __future__ import annotations

import pytest

from repro.core import EwmaAllocator, HysteresisSlidingWindow, SlidingWindow, replay
from repro.core.adaptive import AdaptiveAllocator, OnlineThetaEstimator
from repro.core.registry import make_algorithm
from repro.costmodels import ConnectionCostModel, CostEventKind
from repro.exceptions import InvalidParameterError
from repro.types import READ, WRITE, AllocationScheme, Schedule


class TestEwmaAllocator:
    def test_starts_one_copy_by_default(self):
        assert EwmaAllocator(0.2).scheme is AllocationScheme.ONE_COPY

    def test_estimate_decays_on_reads(self):
        allocator = EwmaAllocator(0.5)
        allocator.process(READ)
        assert allocator.estimate == pytest.approx(0.5)
        allocator.process(READ)
        assert allocator.estimate == pytest.approx(0.25)

    def test_allocates_when_estimate_crosses_half(self):
        allocator = EwmaAllocator(0.5)
        assert allocator.process(READ) is CostEventKind.REMOTE_READ
        assert not allocator.mobile_has_copy  # estimate exactly 0.5
        assert allocator.process(READ) is CostEventKind.REMOTE_READ
        assert allocator.mobile_has_copy  # 0.25 < 0.5

    def test_deallocates_when_writes_push_estimate_up(self):
        allocator = EwmaAllocator(0.5)
        allocator.process(READ)
        allocator.process(READ)  # copy allocated, estimate 0.25
        kind = allocator.process(WRITE)  # estimate 0.625 >= 0.5
        assert kind is CostEventKind.WRITE_PROPAGATED_DEALLOCATE
        assert not allocator.mobile_has_copy

    def test_alpha_one_tracks_last_request(self):
        """alpha = 1 reproduces SW1's allocation trajectory."""
        allocator = EwmaAllocator(1.0)
        schedule = Schedule.from_string("rwrrwwr")
        expected = [True, False, True, True, False, False, True]
        for request, has_copy in zip(schedule, expected):
            allocator.process(request.operation)
            assert allocator.mobile_has_copy == has_copy

    def test_initial_estimate_below_half_starts_with_copy(self):
        allocator = EwmaAllocator(0.2, initial_estimate=0.1)
        assert allocator.scheme is AllocationScheme.TWO_COPIES

    def test_reset_restores_estimate(self):
        allocator = EwmaAllocator(0.4)
        for _ in range(5):
            allocator.process(READ)
        allocator.reset()
        assert allocator.estimate == 1.0
        assert not allocator.mobile_has_copy

    def test_registry_name(self):
        allocator = make_algorithm("ewma_20")
        assert isinstance(allocator, EwmaAllocator)
        assert allocator.alpha == pytest.approx(0.2)
        assert allocator.name == "ewma_20"

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            EwmaAllocator(0.0)
        with pytest.raises(InvalidParameterError):
            EwmaAllocator(1.5)
        with pytest.raises(InvalidParameterError):
            EwmaAllocator(0.5, initial_estimate=2.0)
        with pytest.raises(InvalidParameterError):
            EwmaAllocator(0.5, quantization=0)

    def test_state_signature_reflects_estimate(self):
        a = EwmaAllocator(0.5)
        b = EwmaAllocator(0.5)
        a.process(READ)
        assert a.state_signature() != b.state_signature()


class TestHysteresisSlidingWindow:
    def test_margin_zero_is_exactly_swk(self):
        schedule = Schedule.from_string("rrrwwrwrwwwrrrrrwwwwwrrrwr")
        model = ConnectionCostModel()
        plain = replay(SlidingWindow(5), schedule, model)
        hysteresis = replay(HysteresisSlidingWindow(5, 0), schedule, model)
        assert plain.schemes == hysteresis.schemes
        assert plain.total_cost == hysteresis.total_cost

    def test_margin_delays_allocation(self):
        # k=5, margin=2: needs imbalance > 2, i.e. at least 4 reads in
        # the window.
        allocator = HysteresisSlidingWindow(5, 2)
        for _ in range(3):
            allocator.process(READ)
        assert not allocator.mobile_has_copy  # imbalance 3-2 = 1 <= 2
        allocator.process(READ)
        assert allocator.mobile_has_copy  # imbalance 4-1 = 3 > 2

    def test_margin_delays_deallocation(self):
        allocator = HysteresisSlidingWindow(5, 2)
        for _ in range(5):
            allocator.process(READ)
        allocator.process(WRITE)
        allocator.process(WRITE)
        # imbalance 3-2 = 1 >= -2: still holding.
        assert allocator.mobile_has_copy
        allocator.process(WRITE)
        allocator.process(WRITE)
        # imbalance 1-4 = -3 < -2: dropped.
        assert not allocator.mobile_has_copy

    def test_deadband_keeps_current_scheme(self):
        """Inside the deadband neither side forces a change."""
        allocator = HysteresisSlidingWindow(3, 1)
        allocator.process(READ)
        allocator.process(READ)
        allocator.process(READ)
        assert allocator.mobile_has_copy  # imbalance 3 > 1
        allocator.process(WRITE)  # imbalance 1, within the deadband
        assert allocator.mobile_has_copy

    def test_registry_name(self):
        allocator = make_algorithm("hsw9_2")
        assert isinstance(allocator, HysteresisSlidingWindow)
        assert allocator.k == 9
        assert allocator.margin == 2

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            HysteresisSlidingWindow(4, 0)  # even k
        with pytest.raises(InvalidParameterError):
            HysteresisSlidingWindow(5, 5)  # margin >= k
        with pytest.raises(InvalidParameterError):
            HysteresisSlidingWindow(5, -1)

    def test_fewer_scheme_changes_than_plain_window(self):
        import numpy as np

        from repro.workload import bernoulli_schedule

        schedule = bernoulli_schedule(0.5, 10_000, rng=np.random.default_rng(4))
        model = ConnectionCostModel()
        plain = replay(SlidingWindow(9), schedule, model).allocation_changes()
        damped = replay(
            HysteresisSlidingWindow(9, 2), schedule, model
        ).allocation_changes()
        assert damped < plain


class TestIntegerArguments:
    """Count-valued arguments reject floats and bools, never truncate."""

    @pytest.mark.parametrize("build", [
        lambda: OnlineThetaEstimator(window=2.5),
        lambda: AdaptiveAllocator(retune_interval=2.5),
        lambda: AdaptiveAllocator(history=600.9),
        lambda: AdaptiveAllocator(detector_window=True),
        lambda: HysteresisSlidingWindow(5, 1.5),
    ], ids=["estimator-window", "retune-interval", "history",
            "detector-window", "hysteresis-margin"])
    def test_non_integer_rejected(self, build):
        with pytest.raises(InvalidParameterError):
            build()
