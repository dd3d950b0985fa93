"""Unit tests for workload generation (Poisson, adversaries, regimes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.types import Operation, Schedule
from repro.workload import (
    GreedyAdversary,
    PoissonWorkload,
    RegimePeriod,
    RegimeWorkload,
    all_reads,
    all_writes,
    alternating,
    bernoulli_schedule,
    sw1_tight_schedule,
    swk_tight_schedule,
    theta_from_rates,
    threshold_tight_schedule,
    uniform_theta_regimes,
)
from repro.workload.poisson import bernoulli_mask
from repro.core import make_algorithm
from repro.costmodels import ConnectionCostModel


class TestThetaFromRates:
    def test_value(self):
        assert theta_from_rates(read_rate=3.0, write_rate=1.0) == 0.25

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            theta_from_rates(-1.0, 1.0)

    def test_rejects_both_zero(self):
        with pytest.raises(InvalidParameterError):
            theta_from_rates(0.0, 0.0)

    def test_pure_streams(self):
        assert theta_from_rates(0.0, 5.0) == 1.0
        assert theta_from_rates(5.0, 0.0) == 0.0


class TestBernoulliSchedule:
    def test_length(self, rng):
        assert len(bernoulli_schedule(0.5, 1000, rng=rng)) == 1000

    def test_extremes(self, rng):
        assert bernoulli_schedule(0.0, 100, rng=rng).write_count == 0
        assert bernoulli_schedule(1.0, 100, rng=rng).write_count == 100

    def test_empirical_fraction(self, rng):
        schedule = bernoulli_schedule(0.3, 50_000, rng=rng)
        assert schedule.write_fraction == pytest.approx(0.3, abs=0.01)

    def test_deterministic_under_seed(self):
        a = bernoulli_schedule(0.4, 50, rng=np.random.default_rng(5))
        b = bernoulli_schedule(0.4, 50, rng=np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(InvalidParameterError):
            bernoulli_schedule(1.5, 10, rng=rng)
        with pytest.raises(InvalidParameterError):
            bernoulli_schedule(0.5, -1, rng=rng)

    @pytest.mark.parametrize("length", [2.5, True, "3"])
    def test_rejects_non_integer_lengths(self, length):
        with pytest.raises(InvalidParameterError, match="length"):
            bernoulli_mask(0.4, length, rng=1)
        with pytest.raises(InvalidParameterError, match="length"):
            bernoulli_schedule(0.4, length, rng=1)

    def test_numpy_integer_lengths_pass(self):
        mask = bernoulli_mask(0.4, np.int64(7), rng=3)
        assert mask.shape == (7,)
        np.testing.assert_array_equal(
            mask, bernoulli_schedule(0.4, np.int32(7), rng=3).write_mask()
        )


class TestPoissonWorkload:
    def test_theta(self):
        workload = PoissonWorkload(read_rate=6.0, write_rate=2.0, seed=1)
        assert workload.theta == 0.25

    def test_timestamps_strictly_increase(self):
        workload = PoissonWorkload(read_rate=5.0, write_rate=5.0, seed=2)
        schedule = workload.generate(500)
        times = [request.timestamp for request in schedule]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_rate_controls_density(self):
        fast = PoissonWorkload(read_rate=100.0, write_rate=0.0, seed=3)
        schedule = fast.generate(10_000)
        # ~100 requests per time unit.
        assert schedule[-1].timestamp == pytest.approx(100.0, rel=0.1)

    def test_generate_until_horizon(self):
        workload = PoissonWorkload(read_rate=50.0, write_rate=50.0, seed=4)
        schedule = workload.generate_until(10.0)
        assert all(request.timestamp < 10.0 for request in schedule)
        # Expected ~1000 arrivals.
        assert 800 < len(schedule) < 1200

    def test_write_fraction_converges(self):
        workload = PoissonWorkload(read_rate=1.0, write_rate=3.0, seed=5)
        schedule = workload.generate(30_000)
        assert schedule.write_fraction == pytest.approx(0.75, abs=0.02)


class TestDeterministicAdversaries:
    def test_all_reads_writes(self):
        assert all_reads(5).to_string() == "rrrrr"
        assert all_writes(3).to_string() == "www"

    def test_alternating(self):
        assert alternating(3).to_string() == "rwrwrw"
        assert alternating(2, read_first=False).to_string() == "wrwr"

    def test_sw1_tight_is_alternating(self):
        assert sw1_tight_schedule(2).to_string() == "rwrw"

    def test_swk_tight_structure(self):
        schedule = swk_tight_schedule(5, 2)
        assert schedule.to_string() == "rrrwwwrrrwww"

    def test_threshold_tight_structure(self):
        assert threshold_tight_schedule(3, 2).to_string() == "rrrwrrrw"

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            swk_tight_schedule(4, 2)
        with pytest.raises(InvalidParameterError):
            all_reads(0)


class TestGreedyAdversary:
    def test_generates_requested_length(self):
        adversary = GreedyAdversary(
            make_algorithm("sw3"), ConnectionCostModel(), seed=1
        )
        assert len(adversary.generate(50)) == 50

    def test_hurts_more_than_random(self):
        """The greedy stream costs the online algorithm at least as
        much per request as a random one."""
        from repro.core import replay

        model = ConnectionCostModel()
        algorithm = make_algorithm("sw3")
        greedy = GreedyAdversary(algorithm, model, seed=2).generate(400)
        random = bernoulli_schedule(0.5, 400, rng=np.random.default_rng(3))
        greedy_cost = replay(make_algorithm("sw3"), greedy, model).total_cost
        random_cost = replay(make_algorithm("sw3"), random, model).total_cost
        assert greedy_cost >= random_cost

    def test_greedy_against_st1_is_all_reads(self):
        adversary = GreedyAdversary(
            make_algorithm("st1"), ConnectionCostModel(), seed=4
        )
        assert adversary.generate(20).to_string() == "r" * 20


class TestRegimes:
    def test_period_validation(self):
        with pytest.raises(InvalidParameterError):
            RegimePeriod(theta=1.5, length=10)
        with pytest.raises(InvalidParameterError):
            RegimePeriod(theta=0.5, length=-1)

    def test_workload_needs_periods(self):
        with pytest.raises(InvalidParameterError):
            RegimeWorkload([])

    def test_total_length(self):
        workload = RegimeWorkload(
            [RegimePeriod(0.2, 100), RegimePeriod(0.9, 50)], seed=1
        )
        assert workload.total_length == 150
        assert len(workload.generate()) == 150

    def test_segments_follow_their_theta(self):
        workload = RegimeWorkload(
            [RegimePeriod(0.05, 5_000), RegimePeriod(0.95, 5_000)], seed=2
        )
        low, high = workload.generate_segments()
        assert low.write_fraction < 0.1
        assert high.write_fraction > 0.9

    def test_uniform_theta_regimes(self):
        workload = uniform_theta_regimes(20, 100, seed=3)
        assert len(workload.periods) == 20
        assert workload.total_length == 2_000
        thetas = [p.theta for p in workload.periods]
        assert all(0.0 <= t <= 1.0 for t in thetas)
        # Uniform draws: mean near 1/2 over 20 periods (loose bound).
        assert 0.2 < float(np.mean(thetas)) < 0.8

    def test_uniform_regimes_reproducible(self):
        a = uniform_theta_regimes(5, 50, seed=7).generate()
        b = uniform_theta_regimes(5, 50, seed=7).generate()
        assert a == b

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            uniform_theta_regimes(0, 10)
        with pytest.raises(InvalidParameterError):
            uniform_theta_regimes(5, 0)
