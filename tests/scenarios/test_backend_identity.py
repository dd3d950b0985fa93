"""Byte-identical replay across backends under every scenario.

The execution-engine contract extended to non-stationary workloads:
reference replay, the batched kernels forced and the auto path (a
batch of one) must produce the same per-request event kinds, the same counts and the same
total-cost floats (bit for bit) on every registered scenario and on
arbitrary generated piecewise workloads.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodels.connection import ConnectionCostModel
from repro.costmodels.message import MessageCostModel
from repro.engine import run as engine_run
from repro.workload.scenarios import available_scenarios, get_scenario
from .conftest import case_seeds

#: Every family the batched kernels cover.
KERNEL_ALGORITHMS = ("st1", "st2", "sw1", "sw3", "sw9", "t1_4", "t2_4")

BACKENDS = ("reference", "auto", "batched")


def _run(name, schedule, model, backend):
    return engine_run(name, schedule, model, backend=backend, stream=False)


@pytest.mark.parametrize("scenario_name", available_scenarios())
def test_backends_agree_on_every_scenario(scenario_name):
    model = ConnectionCostModel()
    schedule = get_scenario(scenario_name).generate(1_200, seed=31).schedule
    for name in KERNEL_ALGORITHMS:
        reference, auto, batched = (
            _run(name, schedule, model, backend) for backend in BACKENDS
        )
        assert auto.backend_name == "batched"
        assert auto.event_kinds == reference.event_kinds, (
            f"{name} on {scenario_name}: auto diverged"
        )
        assert batched.event_kinds == reference.event_kinds, (
            f"{name} on {scenario_name}: batched diverged"
        )
        assert auto.event_counts == reference.event_counts
        assert batched.event_counts == reference.event_counts
        # Float totals must match bit for bit, not approximately.
        assert auto.total_cost == reference.total_cost
        assert batched.total_cost == reference.total_cost


class TestGeneratedWorkloads:
    @given(
        case_seed=case_seeds,
        name=st.sampled_from(KERNEL_ALGORITHMS),
        omega=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_backends_agree_under_message_model(
        self, case_seed, name, omega, piecewise_case
    ):
        model = MessageCostModel(omega)
        schedule, _segments = piecewise_case(
            case_seed, min_length=100, max_length=400, extreme=False
        )
        reference, auto, batched = (
            _run(name, schedule, model, backend) for backend in BACKENDS
        )
        assert auto.event_kinds == reference.event_kinds
        assert batched.event_kinds == reference.event_kinds
        assert auto.total_cost == reference.total_cost
        assert batched.total_cost == reference.total_cost


def test_adaptive_falls_back_to_reference_cleanly():
    # Auto dispatch runs a fresh adaptive run in two passes on the
    # batched backend; a forced reference run replays it request by
    # request.  Both must match a manual replay.
    from repro.core.registry import make_algorithm

    model = ConnectionCostModel()
    schedule = get_scenario("adversarial-rotating").generate(800, seed=3).schedule
    algorithm = make_algorithm("adaptive")
    kinds = tuple(
        algorithm.process(request.operation) for request in schedule
    )
    for backend, expected in (("auto", "batched"), ("reference", "reference")):
        result = engine_run("adaptive", schedule, model, backend=backend,
                            stream=False)
        assert result.backend_name == expected
        assert result.event_kinds == kinds
