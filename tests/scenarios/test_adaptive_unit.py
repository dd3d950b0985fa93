"""Deterministic unit tests for the online-adaptive allocator.

The detector and retuning tests use exactly constructed streams (no
randomness), so a behavior change fails reproducibly rather than
flaking.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveAllocator, OnlineThetaEstimator
from repro.core.registry import make_algorithm
from repro.costmodels.base import CostEventKind
from repro.exceptions import InvalidParameterError
from repro.types import Operation
from repro.workload import bernoulli_schedule


class TestOnlineThetaEstimator:
    def test_estimate_tracks_stationary_stream(self):
        estimator = OnlineThetaEstimator(window=16, threshold=0.5)
        for _ in range(64):
            estimator.observe(False)
        assert estimator.estimate == 0.0
        for _ in range(64):
            estimator.observe(True)
        assert estimator.estimate == 1.0

    def test_detector_fires_on_full_flip(self):
        estimator = OnlineThetaEstimator(window=16, threshold=0.5)
        for _ in range(64):
            assert not estimator.observe(False)
        fired = [estimator.observe(True) for _ in range(32)]
        assert any(fired)

    def test_detector_silent_on_strict_alternation(self):
        # Alternation keeps both window means at exactly 1/2: any
        # firing would be a false positive.
        estimator = OnlineThetaEstimator(window=16, threshold=0.3)
        for index in range(400):
            assert not estimator.observe(index % 2 == 0)

    def test_detector_rearms_after_firing(self):
        estimator = OnlineThetaEstimator(window=8, threshold=0.5)
        for _ in range(16):
            estimator.observe(False)
        fired_once = any(estimator.observe(True) for _ in range(16))
        assert fired_once
        # Stationary continuation: no further firings.
        assert not any(estimator.observe(True) for _ in range(64))

    def test_reset_clears_history(self):
        estimator = OnlineThetaEstimator(window=4)
        for _ in range(8):
            estimator.observe(True)
        estimator.reset()
        assert estimator.observations == 0
        assert estimator.estimate == 0.5

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            OnlineThetaEstimator(window=0)
        with pytest.raises(InvalidParameterError):
            OnlineThetaEstimator(threshold=0.0)
        with pytest.raises(InvalidParameterError):
            OnlineThetaEstimator(threshold=1.5)


class TestAdaptiveAllocator:
    def test_registry_builds_it(self):
        algorithm = make_algorithm("adaptive")
        assert isinstance(algorithm, AdaptiveAllocator)
        assert algorithm.name == "adaptive"

    def test_acquires_copy_under_sustained_reads(self):
        algorithm = AdaptiveAllocator()
        for _ in range(64):
            algorithm.process(Operation.READ)
        assert algorithm.mobile_has_copy
        # With the copy held, reads are free local hits.
        assert algorithm.process(Operation.READ) is CostEventKind.LOCAL_READ

    def test_drops_copy_under_sustained_writes(self):
        algorithm = AdaptiveAllocator()
        for _ in range(64):
            algorithm.process(Operation.READ)
        assert algorithm.mobile_has_copy
        for _ in range(64):
            algorithm.process(Operation.WRITE)
        assert not algorithm.mobile_has_copy
        assert (algorithm.process(Operation.WRITE)
                is CostEventKind.WRITE_NO_COPY)

    def test_regime_change_triggers_retune(self):
        algorithm = AdaptiveAllocator(retune_interval=10_000)
        for _ in range(256):
            algorithm.process(Operation.READ)
        retunes_before = algorithm.retunes
        for _ in range(256):
            algorithm.process(Operation.WRITE)
        assert algorithm.regime_changes >= 1
        assert algorithm.retunes > retunes_before

    def test_periodic_retune_counts(self):
        algorithm = AdaptiveAllocator(retune_interval=32)
        for index in range(128):
            algorithm.process(
                Operation.READ if index % 2 == 0 else Operation.WRITE
            )
        assert algorithm.retunes == 128 // 32

    def test_reset_restores_fresh_state(self):
        algorithm = AdaptiveAllocator()
        fresh_signature = algorithm.state_signature()
        for index in range(300):
            algorithm.process(
                Operation.READ if index % 3 else Operation.WRITE
            )
        algorithm.reset()
        assert algorithm.state_signature() == fresh_signature
        assert algorithm.retunes == 0
        assert algorithm.regime_changes == 0

    def test_clone_is_configured_copy(self):
        algorithm = AdaptiveAllocator(
            ks=(1, 3), ms=(2,), retune_interval=64, history=128
        )
        clone = algorithm.clone()
        assert clone.ks == (1, 3)
        assert clone.ms == (2,)
        assert clone.state_signature() == AdaptiveAllocator(
            ks=(1, 3), ms=(2,), retune_interval=64, history=128
        ).state_signature()

    def test_replay_is_deterministic(self):
        text = ("r" * 40 + "w" * 40 + "rw" * 40) * 3
        operations = [Operation.from_symbol(symbol) for symbol in text]
        passes = []
        for _ in range(2):
            algorithm = AdaptiveAllocator()
            passes.append([algorithm.process(op) for op in operations])
        assert passes[0] == passes[1]

    @pytest.mark.parametrize("seed", range(8))
    def test_t1_allocates_only_after_m_reads(self, seed):
        # Adopting T1m on a read must not count that read twice:
        # bernoulli_schedule(0.5, 5000, 2) once allocated under t1_2
        # after a one-read run (request 1919).
        algorithm = AdaptiveAllocator()
        read_run = 0
        schedule = bernoulli_schedule(0.5, 5_000, seed)
        for index, request in enumerate(schedule):
            had_copy = algorithm.mobile_has_copy
            algorithm.process(request.operation)
            is_write = request.operation is Operation.WRITE
            read_run = 0 if is_write else read_run + 1
            if algorithm.family == "t1" and algorithm.mobile_has_copy > had_copy:
                assert read_run >= algorithm.param, index

    def test_swk_only_oracle(self):
        algorithm = AdaptiveAllocator(ms=())
        for index in range(512):
            algorithm.process(
                Operation.READ if index % 5 else Operation.WRITE
            )
        assert algorithm.family == "swk"

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveAllocator(ks=())
        with pytest.raises(InvalidParameterError):
            AdaptiveAllocator(ks=(2,))  # windows must be odd
        with pytest.raises(InvalidParameterError):
            AdaptiveAllocator(retune_interval=0)
        with pytest.raises(InvalidParameterError):
            AdaptiveAllocator(ks=(15,), history=8)  # history < max k
