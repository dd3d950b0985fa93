"""Fault containment in the engine dispatcher.

A backend that raises mid-run must never take the caller down with it:
the dispatcher captures the failure as a structured
:class:`BackendDiagnostic`, notifies instrumentation, and transparently
re-executes the run on the always-correct reference backend.  The
second half covers the ``faults=`` dispatch rules: fault injection is
a wire-level concern, so it pins the run to the protocol backend and
refuses contradictory forcing.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    BackendDiagnostic,
    CounterInstrumentation,
    run,
)
from repro.engine.dispatch import BatchedBackend, ReferenceBackend
from repro.exceptions import InvalidParameterError
from repro.sim.faults import FaultConfig
from repro.costmodels import ConnectionCostModel
from repro.types import Schedule

MODEL = ConnectionCostModel()
SCHEDULE = Schedule.from_string("rrwrwwrr")


@pytest.fixture
def broken_batched(monkeypatch):
    """Make the batched backend explode mid-run."""

    def explode(self, spec, instrumentation):
        raise ZeroDivisionError("synthetic mid-run kernel failure")

    monkeypatch.setattr(BatchedBackend, "execute", explode)


class TestReferenceFallback:
    def test_run_survives_backend_crash(self, broken_batched):
        result = run("sw9", SCHEDULE, MODEL, backend="batched")
        # The answer still arrives, computed by the reference replay.
        assert result.backend_name == "reference"
        assert result.total_cost == run("sw9", SCHEDULE, MODEL,
                                        backend="reference").total_cost

    def test_diagnostic_is_structured(self, broken_batched):
        result = run("sw9", SCHEDULE, MODEL, backend="batched")
        diagnostic = result.diagnostic
        assert isinstance(diagnostic, BackendDiagnostic)
        assert diagnostic.backend_name == "batched"
        assert diagnostic.algorithm_name == "sw9"
        assert diagnostic.error_type == "ZeroDivisionError"
        assert "synthetic mid-run kernel failure" in diagnostic.error_message
        assert diagnostic.fallback_backend == "reference"
        assert "batched" in str(diagnostic)

    def test_dispatch_reason_explains_the_detour(self, broken_batched):
        result = run("sw9", SCHEDULE, MODEL, backend="batched")
        assert "fallback" in result.dispatch_reason
        assert "ZeroDivisionError" in result.dispatch_reason

    def test_instrumentation_sees_the_fallback(self, broken_batched):
        counters = CounterInstrumentation()
        run("sw9", SCHEDULE, MODEL, backend="batched",
            instrumentation=counters)
        assert len(counters.fallbacks) == 1
        assert counters.fallbacks[0].backend_name == "batched"
        assert counters.summary()["fallbacks"] == [str(counters.fallbacks[0])]
        # The run is counted once, under the backend that delivered it.
        assert counters.backend_runs.get("reference") == 1

    def test_fallback_false_propagates(self, broken_batched):
        with pytest.raises(ZeroDivisionError):
            run("sw9", SCHEDULE, MODEL, backend="batched",
                fallback=False)

    def test_reference_crash_is_never_swallowed(self, monkeypatch):
        def explode(self, spec, instrumentation):
            raise RuntimeError("reference is the floor; nothing below")

        monkeypatch.setattr(ReferenceBackend, "execute", explode)
        with pytest.raises(RuntimeError, match="floor"):
            run("sw9", SCHEDULE, MODEL, backend="reference")

    def test_clean_run_has_no_diagnostic(self):
        result = run("sw9", SCHEDULE, MODEL)
        assert result.diagnostic is None


class TestFaultDispatch:
    def test_faults_pin_protocol_backend(self):
        result = run("sw9", SCHEDULE, MODEL, faults=FaultConfig(seed=1))
        assert result.backend_name == "protocol"
        assert "fault injection" in result.dispatch_reason

    def test_faults_reject_forced_other_backend(self):
        with pytest.raises(InvalidParameterError, match="wire simulation"):
            run("sw9", SCHEDULE, MODEL, backend="batched",
                faults=FaultConfig(seed=1))

    def test_faults_reject_continued_runs(self):
        with pytest.raises(InvalidParameterError, match="fresh"):
            run("sw9", SCHEDULE, MODEL, fresh=False,
                faults=FaultConfig(seed=1))

    def test_engine_chaos_total_matches_fault_free(self):
        faults = FaultConfig(drop=0.2, duplicate=0.1, reorder=0.2,
                             seed=23, episodes=((0.5, 2.0),))
        chaos = run("t2_3", SCHEDULE, MODEL, faults=faults)
        clean = run("t2_3", SCHEDULE, MODEL, backend="protocol")
        assert chaos.total_cost == clean.total_cost
        assert chaos.event_counts == clean.event_counts
        assert chaos.raw.overhead.physical_frames > 0
