"""The adaptive allocator's two-pass run against its per-request replay.

:meth:`AdaptiveAllocator.run_mask` computes the configuration schedule
from the write mask and then runs each constant-configuration segment
through the batched kernels.  The per-request replay
(:meth:`AllocationAlgorithm.process`) is the reference: every code,
every replica flag and the whole end state — session, history,
estimator and counters — must match it.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    AdaptiveAllocator,
    OnlineThetaEstimator,
    _rebuilt_copy,
    _window_costs,
    detector_firings,
    oracle_prices,
)
from repro.core.session import AlgorithmSpec, AllocationSession
from repro.costmodels.base import EVENT_KIND_ORDER
from repro.costmodels.connection import ConnectionCostModel
from repro.costmodels.message import MessageCostModel
from repro.engine import run as engine_run
from repro.engine.base import total_from_counts
from repro.types import Operation
from repro.workload.scenarios import available_scenarios, get_scenario

CODES = {kind: code for code, kind in enumerate(EVENT_KIND_ORDER)}
OPERATIONS = (Operation.READ, Operation.WRITE)
MODELS = (ConnectionCostModel(), MessageCostModel(0.3))


def end_state(algorithm: AdaptiveAllocator) -> tuple:
    """Everything a continued run depends on, plus the counters."""
    estimator = algorithm._estimator
    return (
        algorithm.state_signature(),
        algorithm._session.carry,
        algorithm.retunes,
        algorithm.regime_changes,
        estimator._bits,
        estimator.observations,
    )


def fork(algorithm: AdaptiveAllocator) -> AdaptiveAllocator:
    """An independent copy of a live allocator (its mutable parts)."""
    child = copy.copy(algorithm)
    child._session = copy.copy(algorithm._session)
    child._estimator = copy.copy(algorithm._estimator)
    return child


#: Small configurations that fire the detector, retune on nearly every
#: request and adopt sessions from histories shorter than their carry,
#: each with the longest masks it can sweep inside the time budget.
#: Together they cover detector_window 1 and 2, retune_interval 1 and
#: 3, and ms with and without T1m candidates; history is the minimum.
SMALL_CONFIGS = (
    (dict(detector_window=1, retune_interval=1, ks=(1, 3), ms=(),
          history=3), 12),
    (dict(detector_window=2, retune_interval=3, ks=(1, 3), ms=(1, 2),
          history=3), 9),
    (dict(detector_window=2, retune_interval=1, ks=(1, 3), ms=(1, 2),
          history=3), 8),
    (dict(detector_window=1, retune_interval=3, ks=(1, 3), ms=(1, 2),
          history=3), 8),
)


def _replay_tree(config, depth):
    """Every mask of up to ``depth`` requests with its replay, by DFS."""
    found = []

    def visit(algorithm, mask, codes, copies):
        found.append((mask, codes, copies, end_state(algorithm)))
        if len(mask) == depth:
            return
        for bit in (0, 1):
            child = fork(algorithm)
            kind = child.process(OPERATIONS[bit])
            visit(child, mask + (bit,), codes + [CODES[kind]],
                  copies + [child.mobile_has_copy])

    visit(AdaptiveAllocator(**config), (), [], [])
    return found


@pytest.mark.parametrize("config, depth", SMALL_CONFIGS)
def test_every_short_mask_matches_the_replay(config, depth):
    two_pass = AdaptiveAllocator(**config)
    cases = _replay_tree(config, depth)
    assert len(cases) == 2 ** (depth + 1) - 1
    for mask, codes, copies, state in cases:
        got_codes, got_copies = two_pass.run_mask(np.array(mask, dtype=bool))
        assert got_codes.tolist() == codes, mask
        assert got_copies.tolist() == copies, mask
        assert end_state(two_pass) == state, mask


@pytest.mark.parametrize("scenario_name", available_scenarios())
def test_scenarios_match_the_replay(scenario_name):
    schedule = get_scenario(scenario_name).generate(20_000, seed=11).schedule
    model = ConnectionCostModel()
    reference = AdaptiveAllocator()
    two_pass = AdaptiveAllocator()
    expected = engine_run(reference, schedule, model, backend="reference")
    result = engine_run(two_pass, schedule, model)
    assert result.backend_name == "batched"
    assert result.event_kinds == expected.event_kinds
    assert result.schemes == expected.schemes
    assert result.scheme_changes == expected.scheme_changes
    assert result.total_cost == expected.total_cost
    assert end_state(two_pass) == end_state(reference)


def test_continuation_after_a_two_pass_run_matches_the_replay():
    rotating = get_scenario("adversarial-rotating")
    first = rotating.generate(3_000, seed=4).schedule
    second = rotating.generate(2_000, seed=5).schedule
    model = MessageCostModel(0.3)
    reference = AdaptiveAllocator(oracle_model=model)
    two_pass = AdaptiveAllocator(oracle_model=model)
    engine_run(reference, first, model, backend="reference")
    assert engine_run(two_pass, first, model).backend_name == "batched"
    expected = engine_run(reference, second, model, fresh=False)
    result = engine_run(two_pass, second, model, fresh=False)
    assert result.event_kinds == expected.event_kinds
    assert result.total_cost == expected.total_cost
    assert end_state(two_pass) == end_state(reference)


def test_forced_batched_runs_and_continued_runs_route_as_documented():
    schedule = get_scenario("mmpp").generate(1_000, seed=2).schedule
    model = ConnectionCostModel()
    forced = engine_run("adaptive", schedule, model, backend="batched")
    assert forced.backend_name == "batched"
    assert engine_run(
        AdaptiveAllocator(), schedule, model, fresh=False
    ).backend_name == "reference"


class TestDetectorFirings:
    @staticmethod
    def estimator_firings(mask, window, threshold):
        estimator = OnlineThetaEstimator(window, threshold)
        return [
            index for index, bit in enumerate(mask)
            if estimator.observe(bool(bit))
        ]

    @given(
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(1, 12),
        threshold=st.sampled_from([0.05, 0.2, 0.35, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_estimator(self, seed, window, threshold):
        rng = np.random.default_rng(seed)
        thetas = rng.random(6)
        mask = np.concatenate([rng.random(60) < theta for theta in thetas])
        assert detector_firings(mask, window, threshold).tolist() == (
            self.estimator_firings(mask, window, threshold)
        )

    def test_a_difference_of_exactly_the_threshold_does_not_fire(self):
        # Window 20: 14 writes then 7 writes is a difference of 7/20,
        # which equals 0.35 in floating point too.
        older = [1] * 14 + [0] * 6
        recent = [1] * 7 + [0] * 13
        mask = np.array(older + recent, dtype=bool)
        assert abs(7 / 20 - 14 / 20) == 0.35
        assert self.estimator_firings(mask, 20, 0.35) == []
        assert detector_firings(mask, 20, 0.35).tolist() == []
        # One more write's worth of difference fires, at the last request.
        mask[-20] = False
        assert self.estimator_firings(mask, 20, 0.35) == [39]
        assert detector_firings(mask, 20, 0.35).tolist() == [39]


CANDIDATES = tuple(
    AlgorithmSpec("swk", k) for k in (1, 3, 5, 9, 15)
) + tuple(AlgorithmSpec("t1", m) for m in (1, 2, 4, 8))


def session_cost(spec, bits, model):
    """A fresh session of ``spec`` fed ``bits``, priced like the engine."""
    session = AllocationSession(spec)
    counts = {}
    for bit in bits:
        kind = session.feed(OPERATIONS[bit]).kind
        counts[kind] = counts.get(kind, 0) + 1
    return total_from_counts(counts, model)


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 200))
@settings(max_examples=40, deadline=None)
def test_oracle_prices_every_candidate_as_its_session_runs(seed, length):
    rng = np.random.default_rng(seed)
    history = rng.random(length) < rng.random()
    bits = history.astype(int).tolist()
    for model in MODELS:
        prices = oracle_prices(
            history[None, :], (1, 3, 5, 9, 15), (1, 2, 4, 8), model
        )
        assert set(prices) == set(CANDIDATES)
        for spec in CANDIDATES:
            assert prices[spec] == session_cost(spec, bits, model), spec


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 300))
@settings(max_examples=30, deadline=None)
def test_window_costs_price_each_window_as_a_fresh_run(seed, length):
    rng = np.random.default_rng(seed)
    writes = rng.random(length) < rng.random()
    starts = rng.integers(0, length, size=8)
    stops = np.minimum(starts + rng.integers(1, 40, size=8), length)
    bits = writes.astype(int).tolist()
    for model in MODELS:
        costs = _window_costs(writes, starts, stops, CANDIDATES, model)
        for row, (start, stop) in enumerate(zip(starts, stops)):
            for slot, spec in enumerate(CANDIDATES):
                assert costs[row, slot] == session_cost(
                    spec, bits[start:stop], model
                )


@pytest.mark.parametrize("spec", CANDIDATES[:3] + CANDIDATES[5:8])
def test_a_seeded_head_lasts_at_most_the_carry_length(spec):
    # From any seed, the session's copy bit agrees with the one the
    # kernels rebuild from its carry within L requests, and agrees
    # from then on: past the head the kernels take over exactly.
    length = spec.carry_length
    for carry, held in itertools.product(range(1 << length), (False, True)):
        for bits in itertools.product((0, 1), repeat=length + 2):
            session = AllocationSession(spec, seed=(carry, held))
            agreed = []
            for bit in bits:
                agreed.append(session.mobile_has_copy == _rebuilt_copy(
                    spec, session.carry
                ))
                session.feed(OPERATIONS[bit])
            head = agreed.index(True) if True in agreed else len(bits)
            assert head <= length, (carry, held, bits)
            assert all(agreed[head:]), (carry, held, bits)

