"""Property-based tests (hypothesis) for the paper's core invariants.

These sweep arbitrary schedules and parameters rather than fixed
examples:

* competitiveness upper bounds hold on *every* schedule, not just the
  adversarial families;
* the offline optimum lower-bounds every online algorithm;
* the SWk scheme is a pure function of the last k requests;
* the analytic inequalities (Theorems 2 and 9) hold at arbitrary θ, ω;
* protocol simulation == abstract replay for arbitrary schedules.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import connection as ca
from repro.analysis import message as ma
from repro.analysis.majority import pi_k
from repro.core import (
    OfflineOptimal,
    SlidingWindow,
    SlidingWindowOne,
    make_algorithm,
    replay,
)
from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.sim import simulate_protocol
from repro.types import Schedule

schedule_strings = st.text(alphabet="rw", min_size=0, max_size=120)
nonempty_schedules = st.text(alphabet="rw", min_size=1, max_size=120)
thetas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
omegas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
odd_windows = st.integers(min_value=0, max_value=7).map(lambda n: 2 * n + 1)


class TestCompetitiveBounds:
    @given(text=schedule_strings, k=odd_windows)
    @settings(max_examples=150, deadline=None)
    def test_swk_connection_bound_on_any_schedule(self, text, k):
        """Theorem 4 upper bound: COST_SWk <= (k+1) * OPT + b.

        The additive constant absorbs start-up effects; b = k+1 is
        enough for every schedule hypothesis finds.
        """
        schedule = Schedule.from_string(text)
        model = ConnectionCostModel()
        name = f"sw{k}" if k > 1 else "sw1"
        online = replay(make_algorithm(name), schedule, model).total_cost
        optimal = OfflineOptimal(model).optimal_cost(schedule)
        assert online <= (k + 1) * optimal + (k + 1) + 1e-9

    @given(text=schedule_strings, omega=omegas)
    @settings(max_examples=150, deadline=None)
    def test_sw1_message_bound_on_any_schedule(self, text, omega):
        """Theorem 11 upper bound with additive slack 1+2w."""
        schedule = Schedule.from_string(text)
        model = MessageCostModel(omega)
        online = replay(SlidingWindowOne(), schedule, model).total_cost
        optimal = OfflineOptimal(model).optimal_cost(schedule)
        factor = 1 + 2 * omega
        assert online <= factor * optimal + factor + 1e-9

    @given(text=schedule_strings, omega=omegas,
           k=st.integers(min_value=1, max_value=4).map(lambda n: 2 * n + 1))
    @settings(max_examples=120, deadline=None)
    def test_swk_message_bound_on_any_schedule(self, text, omega, k):
        """Theorem 12 upper bound with additive slack equal to the factor."""
        schedule = Schedule.from_string(text)
        model = MessageCostModel(omega)
        online = replay(SlidingWindow(k), schedule, model).total_cost
        optimal = OfflineOptimal(model).optimal_cost(schedule)
        factor = (1 + omega / 2) * (k + 1) + omega
        assert online <= factor * optimal + factor + 1e-9

    @given(text=schedule_strings, m=st.integers(min_value=1, max_value=12))
    @settings(max_examples=120, deadline=None)
    def test_t1m_connection_bound_on_any_schedule(self, text, m):
        """Section 7.1: T1m is (m+1)-competitive."""
        schedule = Schedule.from_string(text)
        model = ConnectionCostModel()
        online = replay(make_algorithm(f"t1_{m}"), schedule, model).total_cost
        optimal = OfflineOptimal(model).optimal_cost(schedule)
        assert online <= (m + 1) * optimal + (m + 1) + 1e-9


class TestOfflineOptimality:
    @given(text=schedule_strings)
    @settings(max_examples=100, deadline=None)
    def test_offline_lower_bounds_all_algorithms(self, text):
        """The free-initial-choice offline optimum lower-bounds every
        online algorithm regardless of the algorithm's starting scheme
        (ST2 and T2m begin with a replica the one-copy-start offline
        would have to pay for)."""
        schedule = Schedule.from_string(text)
        for model in (ConnectionCostModel(), MessageCostModel(0.5)):
            optimal = OfflineOptimal(model, initial_scheme=None).optimal_cost(
                schedule
            )
            for name in ("st1", "st2", "sw1", "sw5", "t1_3", "t2_3"):
                online = replay(make_algorithm(name), schedule, model).total_cost
                assert optimal <= online + 1e-9

    @given(text=schedule_strings)
    @settings(max_examples=100, deadline=None)
    def test_offline_monotone_under_prefix(self, text):
        """OPT of a prefix never exceeds OPT of the whole schedule."""
        schedule = Schedule.from_string(text)
        model = ConnectionCostModel()
        offline = OfflineOptimal(model)
        whole = offline.optimal_cost(schedule)
        prefix = offline.optimal_cost(schedule[: len(schedule) // 2])
        assert prefix <= whole + 1e-9

    @given(text=schedule_strings, omega=omegas)
    @settings(max_examples=80, deadline=None)
    def test_offline_at_most_best_static(self, text, omega):
        """OPT is never worse than the better static method."""
        schedule = Schedule.from_string(text)
        model = MessageCostModel(omega)
        optimal = OfflineOptimal(model).optimal_cost(schedule)
        st1 = replay(make_algorithm("st1"), schedule, model).total_cost
        st2_cost = replay(make_algorithm("st2"), schedule, model).total_cost
        # ST2 starts with a copy the offline (starting one-copy) must
        # acquire, hence the one-acquisition allowance.
        assert optimal <= min(st1, st2_cost + model.acquire_cost) + 1e-9


class TestWindowSemantics:
    @given(text=nonempty_schedules, k=odd_windows)
    @settings(max_examples=150, deadline=None)
    def test_scheme_is_function_of_last_k_requests(self, text, k):
        """After any run, SWk holds a copy iff reads have the majority
        among the last k requests (pre-padded with writes)."""
        schedule = Schedule.from_string(text)
        algorithm = SlidingWindow(k)
        replay(algorithm, schedule, ConnectionCostModel())
        padded = "w" * k + schedule.to_string()
        last_k = padded[-k:]
        majority_reads = last_k.count("r") > last_k.count("w")
        assert algorithm.mobile_has_copy == majority_reads

    @given(text=schedule_strings)
    @settings(max_examples=100, deadline=None)
    def test_sw1_equals_swk1_schemes(self, text):
        """The delete-request optimization changes prices, never the
        allocation trajectory."""
        schedule = Schedule.from_string(text)
        model = ConnectionCostModel()
        optimized = replay(SlidingWindowOne(), schedule, model)
        unoptimized = replay(SlidingWindow(1), schedule, model)
        assert optimized.schemes == unoptimized.schemes
        assert optimized.total_cost == unoptimized.total_cost


class TestAnalyticInequalities:
    @given(theta=thetas, k=odd_windows)
    @settings(max_examples=200, deadline=None)
    def test_theorem2(self, theta, k):
        assert ca.expected_cost_swk(theta, k) >= min(
            theta, 1 - theta
        ) - 1e-12

    @given(theta=thetas, omega=omegas,
           k=st.integers(min_value=1, max_value=7).map(lambda n: 2 * n + 1))
    @settings(max_examples=200, deadline=None)
    def test_theorem9(self, theta, omega, k):
        floor = min(
            ma.expected_cost_sw1(theta, omega),
            ma.expected_cost_st1(theta, omega),
            ma.expected_cost_st2(theta),
        )
        assert ma.expected_cost_swk(theta, k, omega) >= floor - 1e-12

    @given(theta=thetas, k=odd_windows)
    @settings(max_examples=200, deadline=None)
    def test_pi_k_is_probability_and_symmetric(self, theta, k):
        value = pi_k(theta, k)
        assert 0.0 <= value <= 1.0
        assert pi_k(1.0 - theta, k) == pytest.approx(1.0 - value, abs=1e-9)

    @given(omega=omegas, k=st.integers(min_value=1, max_value=30).map(
        lambda n: 2 * n + 1))
    @settings(max_examples=200, deadline=None)
    def test_corollary2_bound(self, omega, k):
        if k == 1:
            return
        assert ma.average_cost_swk(k, omega) > ma.average_cost_swk_lower_bound(
            omega
        )


class TestProtocolEquivalence:
    @given(text=st.text(alphabet="rw", min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_protocol_matches_replay_on_any_schedule(self, text):
        schedule = Schedule.from_string(text)
        for name in ("sw3", "sw1", "t1_2", "t2_2", "st1", "st2"):
            protocol = simulate_protocol(name, schedule)
            abstract = replay(
                make_algorithm(name), schedule, ConnectionCostModel()
            )
            assert protocol.event_kinds == tuple(
                event.kind for event in abstract.events
            )

    @given(choices=st.lists(
        st.tuples(
            st.sampled_from(["alpha", "beta"]),
            st.sampled_from(["r", "w"]),
        ),
        min_size=0,
        max_size=50,
    ))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_catalog_protocol_matches_per_item_replay(self, choices):
        """Per-item independence holds for arbitrary interleavings."""
        from repro.sim import simulate_catalog_protocol
        from repro.types import Operation, Request

        assignment = {"alpha": "sw3", "beta": "sw1"}
        schedule = Schedule(
            Request(
                Operation.READ if symbol == "r" else Operation.WRITE,
                objects=(item,),
            )
            for item, symbol in choices
        )
        run = simulate_catalog_protocol(assignment, schedule)
        for item, name in assignment.items():
            indices = [
                i for i, request in enumerate(schedule)
                if request.objects == (item,)
            ]
            subsequence = Schedule(schedule[i] for i in indices)
            abstract = replay(
                make_algorithm(name), subsequence, ConnectionCostModel()
            )
            assert [run.event_kinds[i] for i in indices] == [
                event.kind for event in abstract.events
            ]
