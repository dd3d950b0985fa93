"""Tests for the unified execution engine (repro.engine).

The engine is the only sanctioned way to execute a schedule; these
tests pin down its contract:

* dispatch rules — auto picks the batched kernels when they cover
  the algorithm, falls back to the reference replay otherwise, never
  auto-selects the protocol simulator;
* the cross-backend equivalence invariant — all three backends classify
  every request into the identical CostEventKind sequence, which makes
  per-kind counts equal and (through ``total_from_counts``) the float
  totals byte-identical;
* streaming, warmup and instrumentation semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_algorithm, replay
from repro.core.estimators import EwmaAllocator
from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.engine import (
    AUTO,
    BatchedBackend,
    CounterInstrumentation,
    EngineResult,
    EngineTask,
    Instrumentation,
    ScheduleSpec,
    TraceInstrumentation,
    run,
    serial_executor,
    total_from_counts,
    value_for_write,
    wants_per_request,
)
from repro.engine.dispatch import BACKENDS
from repro.engine.versioning import INITIAL_VALUE, INITIAL_VERSION
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.sim.faults import parse_fault_spec
from repro.types import Schedule

MODEL = ConnectionCostModel()

schedule_texts = st.text(alphabet="rw", min_size=0, max_size=100)


class TestRegistry:
    """The fixed table of backends that ``backend=`` names."""

    def test_three_backends_registered(self):
        assert list(BACKENDS) == ["reference", "protocol", "batched"]

    def test_unknown_backend_name(self):
        with pytest.raises(InvalidParameterError, match="quantum"):
            run("sw9", Schedule.from_string("rw"), MODEL, backend="quantum")

    def test_protocol_supports_matches_deciders(self):
        protocol = BACKENDS["protocol"]
        assert protocol.supports("sw9")
        assert protocol.supports("t1_4")
        assert not protocol.supports("bogus")


class TestDispatch:
    def test_auto_picks_batched_when_covered(self, algorithm_name):
        schedule = Schedule.from_string("rrwwrw")
        result = run(algorithm_name, schedule, MODEL)
        if BatchedBackend().supports(algorithm_name):
            assert result.backend_name == "batched"
        else:
            assert result.backend_name == "reference"

    def test_auto_falls_back_for_stateful_estimators(self):
        result = run(EwmaAllocator(0.2), Schedule.from_string("rwrw"), MODEL)
        assert result.backend_name == "reference"
        assert "fallback" in result.dispatch_reason

    def test_auto_never_picks_protocol(self, algorithm_name):
        result = run(algorithm_name, Schedule.from_string("rw"), MODEL)
        assert result.backend_name != "protocol"

    def test_continued_run_pins_reference(self):
        algorithm = make_algorithm("sw9")
        result = run(algorithm, Schedule.from_string("rrr"), MODEL, fresh=False)
        assert result.backend_name == "reference"

    def test_continued_run_keeps_live_state(self):
        """Two engine runs with fresh=False equal one longer run."""
        algorithm = make_algorithm("sw3")
        first = run(algorithm, Schedule.from_string("rrww"), MODEL, fresh=False)
        second = run(algorithm, Schedule.from_string("wrrw"), MODEL, fresh=False)
        whole = run("sw3", Schedule.from_string("rrwwwrrw"), MODEL,
                    backend="reference")
        assert first.event_kinds + second.event_kinds == whole.event_kinds

    def test_forced_backend_honoured(self):
        schedule = Schedule.from_string("rwrw")
        for name in ("reference", "protocol", "batched"):
            assert run("sw9", schedule, MODEL, backend=name).backend_name == name

    def test_forced_batched_rejects_uncovered_algorithm(self):
        with pytest.raises(UnknownAlgorithmError):
            run(EwmaAllocator(0.2), Schedule.from_string("rw"), MODEL,
                backend="batched")

    def test_fresh_false_rejects_non_reference(self):
        with pytest.raises(InvalidParameterError):
            run("sw9", Schedule.from_string("rw"), MODEL,
                backend="batched", fresh=False)

    def test_rejects_non_algorithm(self):
        with pytest.raises(InvalidParameterError):
            run(42, Schedule.from_string("rw"), MODEL)

    def test_string_names_normalized(self):
        result = run("  SW9 ", Schedule.from_string("rw"), MODEL)
        assert result.algorithm_name == "sw9"


#: Replica and fault requests the protocol backend refuses; each is a
#: caller error, never a reason to fall back to a fault-free reference.
INVALID_WIRE_REQUESTS = {
    "replicas=7": dict(replicas=7),
    "replicas=0": dict(replicas=0),
    "replicas=2.5": dict(replicas=2.5),
    "replicas=True": dict(replicas=True),
    "crash without a replica set": dict(faults=parse_fault_spec("crash=0@5")),
    "crash of a missing replica": dict(
        faults=parse_fault_spec("crash=9@5"), replicas=3
    ),
}


class TestInvalidWireRequests:
    @pytest.mark.parametrize("name", sorted(INVALID_WIRE_REQUESTS))
    def test_engine_run_raises(self, name):
        with pytest.raises(InvalidParameterError):
            run("sw3", Schedule.from_string("rwrrw" * 12), MODEL,
                **INVALID_WIRE_REQUESTS[name])

    @pytest.mark.parametrize("name", sorted(INVALID_WIRE_REQUESTS))
    def test_sweep_executor_raises(self, name):
        with pytest.raises(InvalidParameterError):
            serial_executor().map([EngineTask(
                "sw3", ScheduleSpec(0.3, 60, seed=1), MODEL,
                **INVALID_WIRE_REQUESTS[name],
            )])


class TestEquivalenceWithReplay:
    """The engine's reference path is the replay of record, verbatim."""

    def test_matches_replay_result(self, algorithm_name):
        schedule = Schedule.from_string("rrwwrwrrrwwwrwr" * 4)
        old = replay(make_algorithm(algorithm_name), schedule, MODEL)
        new = run(algorithm_name, schedule, MODEL, backend="reference")
        assert new.event_kinds == tuple(e.kind for e in old.events)
        assert new.total_cost == pytest.approx(old.total_cost)
        assert new.event_counts == old.event_counts()
        assert new.scheme_changes == old.allocation_changes()
        assert new.schemes == old.schemes

    def test_auto_total_is_byte_identical_to_reference(self, algorithm_name):
        schedule = Schedule.from_string("rwwrrrwwrwrr" * 10)
        model = MessageCostModel(0.35)
        auto = run(algorithm_name, schedule, model)
        reference = run(algorithm_name, schedule, model, backend="reference")
        assert auto.total_cost == reference.total_cost  # not approx: ==
        assert auto.event_counts == reference.event_counts
        assert auto.event_kinds == reference.event_kinds
        assert auto.scheme_changes == reference.scheme_changes
        assert auto.schemes == reference.schemes


class TestCrossBackendEquivalence:
    """The central invariant: every backend produces the identical
    per-request CostEventKind classification."""

    @given(text=schedule_texts)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_all_backends_agree(self, algorithm_name, text):
        schedule = Schedule.from_string(text)
        reference = run(algorithm_name, schedule, MODEL, backend="reference")
        backends = [reference]
        if BatchedBackend().supports(algorithm_name):
            backends.append(
                run(algorithm_name, schedule, MODEL, backend="batched")
            )
        backends.append(run(algorithm_name, schedule, MODEL, backend="protocol"))
        for other in backends[1:]:
            assert other.event_kinds == reference.event_kinds
            assert other.event_counts == reference.event_counts
            assert other.total_cost == reference.total_cost  # byte-identical

    @given(text=schedule_texts)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agreement_under_message_model(self, algorithm_name, text):
        schedule = Schedule.from_string(text)
        model = MessageCostModel(0.4)
        reference = run(algorithm_name, schedule, model, backend="reference")
        protocol = run(algorithm_name, schedule, model, backend="protocol")
        assert protocol.event_kinds == reference.event_kinds
        assert protocol.total_cost == reference.total_cost


class TestStreaming:
    def test_stream_skips_materialization(self):
        for backend in ("reference", "batched", "protocol"):
            result = run("sw9", Schedule.from_string("rwrwrw"), MODEL,
                         backend=backend, stream=True)
            assert result.events is None
            assert result.event_kinds is None
            assert result.schemes is None
            assert result.event_counts

    def test_stream_and_full_agree_on_aggregates(self):
        schedule = Schedule.from_string("rrwwrw" * 20)
        full = run("t1_4", schedule, MODEL)
        streamed = run("t1_4", schedule, MODEL, stream=True)
        assert streamed.total_cost == full.total_cost
        assert streamed.event_counts == full.event_counts
        assert streamed.scheme_changes == full.scheme_changes


class TestWarmup:
    def test_warmup_excluded_from_aggregates(self):
        schedule = Schedule.from_string("w" * 5 + "r" * 5)
        for backend in ("reference", "batched", "protocol"):
            burned = run("st2", schedule, MODEL, backend=backend, warmup=5)
            assert burned.counted_requests == 5
            # st2 pays 1 per write, 0 per read: the writes are burned.
            assert burned.total_cost == 0.0
            assert sum(burned.event_counts.values()) == 5

    def test_warmup_validation(self):
        schedule = Schedule.from_string("rw")
        with pytest.raises(InvalidParameterError):
            run("sw9", schedule, MODEL, warmup=-1)
        with pytest.raises(InvalidParameterError):
            run("sw9", schedule, MODEL, warmup=3)

    def test_mean_cost_uses_counted_requests(self):
        schedule = Schedule.from_string("wwrr")
        result = run("st2", schedule, MODEL, warmup=2)
        assert result.mean_cost == 0.0
        assert len(result) == 4


class TestInstrumentation:
    def test_counters_aggregate_across_runs_and_backends(self):
        counters = CounterInstrumentation()
        schedule = Schedule.from_string("rwrwrw")
        run("sw9", schedule, MODEL, instrumentation=counters)
        run(EwmaAllocator(0.2), schedule, MODEL, instrumentation=counters)
        run("sw9", schedule, MODEL, backend="protocol",
            instrumentation=counters)
        assert counters.runs == 3
        assert counters.requests == 18
        assert counters.backend_runs == {
            "batched": 1, "reference": 1, "protocol": 1,
        }
        assert counters.total_cost > 0.0
        assert counters.wall_seconds > 0.0
        assert len(counters.dispatch_log) == 3
        summary = counters.summary()
        assert summary["runs"] == 3
        assert summary["backend_runs"]["batched"] == 1

    def test_counter_does_not_force_per_request_loop(self):
        assert not wants_per_request(Instrumentation())
        assert not wants_per_request(CounterInstrumentation())
        assert wants_per_request(TraceInstrumentation())

    def test_trace_identical_on_every_backend(self):
        schedule = Schedule.from_string("rrwwrwrw")
        traces = {}
        for backend in ("reference", "batched", "protocol"):
            trace = TraceInstrumentation()
            run("sw3", schedule, MODEL, backend=backend,
                instrumentation=trace)
            traces[backend] = trace.records
        assert traces["reference"] == traces["batched"] == traces["protocol"]
        assert [index for index, _kind, _cost in traces["reference"]] == list(
            range(len(schedule))
        )

    def test_dispatch_reason_reported(self):
        counters = CounterInstrumentation()
        run("sw9", Schedule.from_string("rw"), MODEL, instrumentation=counters)
        _name, backend, reason = counters.dispatch_log[0]
        assert backend == "batched"
        assert "sw9" in reason


class TestTotalFromCounts:
    def test_matches_manual_sum(self):
        result = run("sw9", Schedule.from_string("rwrwwwrr" * 5), MODEL)
        assert total_from_counts(result.event_counts, MODEL) == result.total_cost

    def test_empty_counts(self):
        assert total_from_counts({}, MODEL) == 0.0


class TestVersioning:
    def test_single_source_of_values(self):
        assert INITIAL_VALUE == "v0"
        assert INITIAL_VERSION == 0
        assert value_for_write(17) == "v17"

    def test_protocol_runner_uses_versioning(self):
        result = run("st2", Schedule.from_string("wr"), MODEL,
                     backend="protocol")
        observations = result.raw.read_observations
        assert observations == ((1, value_for_write(0), 1),)


class TestEngineResult:
    def test_result_shape(self):
        result = run("sw9", Schedule.from_string("rwr"), MODEL)
        assert isinstance(result, EngineResult)
        assert result.algorithm_name == "sw9"
        assert result.requests == 3
        assert result.elapsed_seconds >= 0.0
        assert result.dispatch_reason
        assert AUTO == "auto"

    def test_empty_schedule(self):
        for backend in ("reference", "batched", "protocol"):
            result = run("sw9", Schedule.from_string(""), MODEL,
                         backend=backend)
            assert result.total_cost == 0.0
            assert result.event_counts == {}
            assert result.mean_cost == 0.0
