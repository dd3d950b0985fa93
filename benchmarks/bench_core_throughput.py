"""Micro-benchmarks: request-processing throughput of the machinery.

Not a paper artifact — these quantify the library's own costs so a
downstream user knows what replaying millions of requests costs:
abstract replay per algorithm, the offline DP, the protocol simulator,
and the session core's per-request ``feed``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OfflineOptimal, make_algorithm, replay
from repro.core.session import AllocationSession
from repro.costmodels import ConnectionCostModel
from repro.sim import simulate_protocol
from repro.types import Operation
from repro.workload import bernoulli_schedule

MODEL = ConnectionCostModel()
SCHEDULE = bernoulli_schedule(0.45, 20_000, rng=np.random.default_rng(1))


@pytest.mark.parametrize("name", ["st1", "st2", "sw1", "sw9", "sw99", "t1_15"])
def test_replay_throughput(benchmark, name):
    algorithm = make_algorithm(name)
    result = benchmark(lambda: replay(algorithm, SCHEDULE, MODEL))
    assert len(result.events) == len(SCHEDULE)


def test_offline_dp_throughput(benchmark):
    offline = OfflineOptimal(MODEL)
    cost = benchmark(lambda: offline.optimal_cost(SCHEDULE))
    assert cost > 0


def test_protocol_simulation_throughput(benchmark):
    schedule = SCHEDULE[:2_000]
    result = benchmark.pedantic(
        lambda: simulate_protocol("sw9", schedule), rounds=3, iterations=1
    )
    assert len(result.event_kinds) == len(schedule)


_OPS = [
    Operation.WRITE if bit else Operation.READ
    for bit in np.random.default_rng(2).integers(0, 2, 5_000)
]


def _feed_all(session, operations):
    for operation in operations:
        session.feed(operation)


@pytest.mark.parametrize("name", ["sw99", "t1_15"])
def test_session_feed_throughput(benchmark, name):
    """One session's shift-and-rule step; SWk pays a carry popcount."""
    session = AllocationSession.from_name(name)
    benchmark(lambda: _feed_all(session, _OPS))
    assert session.carry_bits().shape == (session.spec.carry_length,)


def test_batched_replay_throughput(benchmark):
    """The auto-dispatched batched kernels vs the reference loop."""
    from repro.engine import run

    result = benchmark(lambda: run("sw9", SCHEDULE, MODEL))
    assert result.backend_name == "batched"
    assert result.total_cost > 0
