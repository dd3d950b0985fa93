"""Property tests for the batched multi-schedule kernels.

The contract under test, hypothesis-swept rather than example-based:

* batched == reference, byte-identically, for every algorithm the
  kernels cover — totals, counts, and (materialized) per-request
  classifications — whether a run goes through a batch or alone through
  ``engine.run`` on the auto path (a batch of one);
* ``execute_batch`` handles ragged batches and uncovered algorithms by
  per-spec fallback, every member byte-identical to a lone engine run;
* the k/m/omega parameter scans reproduce their brute-force loops
  exactly (the sufficient statistics lose nothing);
* the sweep executor's batched path is invisible in outcomes (serial
  equals parallel equals per-task) and visible in its counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import replay
from repro.core.batched import (
    batched_counts,
    batched_run_arrays,
    batched_totals,
    scan_omega_totals,
    scan_threshold_counts,
    scan_window_counts,
    stack_write_masks,
    supports,
)
from repro.core.packed import pack_write_masks, packed_run_counts
from repro.core.registry import make_algorithm
from repro.core.session import ensure_threshold
from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.costmodels.base import EVENT_KIND_ORDER
from repro.engine import (
    BatchSpec,
    CounterInstrumentation,
    SweepExecutor,
    execute_batch,
    run,
    run_batched_masks,
)
from repro.engine.base import RunSpec
from repro.engine.parallel import EngineTask, ScheduleSpec
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.types import Schedule, ensure_odd_window
from repro.workload import bernoulli_schedule

MODEL = ConnectionCostModel()

BATCHED_NAMES = (
    "st1", "st2", "sw1", "sw3", "sw9", "sw15", "t1_1", "t1_4", "t2_3",
)


@st.composite
def schedule_batches(draw, max_rows=5, max_length=60):
    """A non-ragged batch: B schedule strings of one shared length."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    return [
        draw(st.text(alphabet="rw", min_size=length, max_size=length))
        for _ in range(rows)
    ]


class TestKernelEquivalence:
    @given(texts=schedule_batches())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_batched_rows_equal_solo_backends(self, algorithm_name, texts):
        """Each batch row is byte-identical to the reference replay."""
        if not supports(algorithm_name):
            return
        schedules = [Schedule.from_string(text) for text in texts]
        writes = stack_write_masks(schedules)
        results = run_batched_masks(
            algorithm_name, writes, [MODEL] * len(schedules)
        )
        for schedule, batched in zip(schedules, results):
            reference = run(algorithm_name, schedule, MODEL,
                            backend="reference", stream=True)
            assert batched.total_cost == reference.total_cost
            assert batched.event_counts == reference.event_counts
            assert batched.scheme_changes == reference.scheme_changes

    @given(texts=schedule_batches(), warmup=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_warmup_and_materialization(self, texts, warmup):
        """Non-stream batched rows materialize the reference events."""
        schedules = [Schedule.from_string(text) for text in texts]
        if warmup > len(schedules[0]):
            warmup = len(schedules[0])
        writes = stack_write_masks(schedules)
        for name in ("sw3", "t1_2"):
            results = run_batched_masks(
                name, writes, [MODEL] * len(schedules),
                warmup=warmup, stream=False,
            )
            for schedule, batched in zip(schedules, results):
                reference = run(name, schedule, MODEL,
                                backend="reference", warmup=warmup)
                assert batched.total_cost == reference.total_cost
                assert batched.event_kinds == reference.event_kinds
                assert batched.events == reference.events
                assert batched.schemes == reference.schemes

    def test_per_row_cost_models(self):
        """Counts are model-independent; each row prices its own."""
        schedules = [Schedule.from_string("rwrwrrw")] * 3
        models = [MessageCostModel(omega) for omega in (0.0, 0.4, 1.0)]
        results = run_batched_masks("sw3", stack_write_masks(schedules), models)
        for schedule, model, batched in zip(schedules, models, results):
            solo = run("sw3", schedule, model, stream=True)
            assert batched.total_cost == solo.total_cost

    def test_forced_batched_backend(self):
        result = run("sw9", Schedule.from_string("rwrwr"), MODEL,
                     backend="batched")
        reference = run("sw9", Schedule.from_string("rwrwr"), MODEL,
                        backend="reference")
        assert result.backend_name == "batched"
        assert result.total_cost == reference.total_cost
        assert result.event_kinds == reference.event_kinds


#: One name per family, several window sizes and thresholds.
NAMES = ("st1", "st2", "sw1", "sw3", "sw9", "sw15", "t1_1", "t1_5", "t2_4")


def _auto_kinds(name, schedule):
    """Per-request event kinds of a lone ``engine.run`` on the auto path.

    The streamed run of the same schedule (the packed counts tier) must
    count exactly what the per-request kinds add up to.
    """
    result = run(name, schedule, MODEL)
    streamed = run(name, schedule, MODEL, stream=True)
    assert result.backend_name == streamed.backend_name == "batched"
    assert streamed.event_counts == result.event_counts
    assert streamed.scheme_changes == result.scheme_changes
    return result.event_kinds


def _replay_kinds(name, schedule):
    reference = replay(make_algorithm(name), schedule, MODEL)
    return tuple(event.kind for event in reference.events)


class TestSupports:
    def test_supported(self):
        for name in NAMES:
            assert supports(name)

    def test_unsupported(self):
        assert not supports("ewma_20")
        assert not supports("hsw9_2")
        assert not supports("sw1-unoptimized")

    def test_unknown_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            batched_run_arrays("ewma_20", np.zeros((1, 2), dtype=bool))


class TestExactEquality:
    """A single ``engine.run`` on the auto path (B = 1) equals ``replay``."""

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_event_kinds_match_reference(self, name, theta):
        rng = np.random.default_rng(hash((name, theta)) % 2**32)
        schedule = bernoulli_schedule(theta, 3_000, rng=rng)
        assert _auto_kinds(name, schedule) == _replay_kinds(name, schedule)

    @pytest.mark.parametrize("name", NAMES)
    def test_costs_match_in_both_models(self, name):
        schedule = bernoulli_schedule(
            0.45, 2_000, rng=np.random.default_rng(9)
        )
        for model in (ConnectionCostModel(), MessageCostModel(0.35)):
            reference = replay(make_algorithm(name), schedule, model)
            for stream in (True, False):
                auto = run(name, schedule, model, stream=stream)
                assert auto.total_cost == pytest.approx(reference.total_cost)
                assert auto.event_counts == reference.event_counts()

    def test_empty_schedule(self):
        for stream in (True, False):
            result = run("sw9", Schedule(), MODEL, stream=stream)
            assert result.backend_name == "batched"
            assert result.total_cost == 0.0
        assert _auto_kinds("sw9", Schedule()) == ()

    def test_single_request(self):
        schedule = Schedule.from_string("r")
        assert _auto_kinds("sw3", schedule) == _replay_kinds("sw3", schedule)

    @given(text=st.text(alphabet="rw", min_size=0, max_size=200),
           k=st.integers(min_value=1, max_value=7).map(lambda n: 2 * n + 1))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_equivalence_swk(self, text, k):
        schedule = Schedule.from_string(text)
        name = f"sw{k}"
        assert _auto_kinds(name, schedule) == _replay_kinds(name, schedule)

    @given(text=st.text(alphabet="rw", min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_equivalence_sw1(self, text):
        schedule = Schedule.from_string(text)
        assert _auto_kinds("sw1", schedule) == _replay_kinds("sw1", schedule)

    @given(text=st.text(alphabet="rw", min_size=0, max_size=200),
           m=st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_equivalence_thresholds(self, text, m):
        """The run-length kernels equal the reference for T1m and T2m."""
        schedule = Schedule.from_string(text)
        for name in (f"t1_{m}", f"t2_{m}"):
            assert _auto_kinds(name, schedule) == _replay_kinds(
                name, schedule
            )


class TestExecuteBatch:
    def _spec(self, name, text, **kwargs):
        return RunSpec(
            algorithm=make_algorithm(name),
            algorithm_name=name,
            schedule=Schedule.from_string(text),
            cost_model=MODEL,
            stream=True,
            **kwargs,
        )

    def test_ragged_batch_and_fallback(self):
        """Mixed lengths and uncovered algorithms still all complete,
        each member byte-identical to running it alone."""
        specs = [
            self._spec("sw9", "rwrw"),
            self._spec("sw9", "rwrwrrw"),        # different length
            self._spec("sw1", "rwrw"),           # different algorithm
            self._spec("sw1-unoptimized", "rwrw"),  # no batched kernel
            self._spec("st1", ""),               # empty schedule
        ]
        results = execute_batch(BatchSpec(runs=tuple(specs)))
        assert [r.backend_name for r in results] == [
            "batched", "batched", "batched", "reference", "batched"
        ]
        for spec, result in zip(specs, results):
            solo = run(spec.algorithm_name, spec.schedule, MODEL, stream=True)
            assert result.total_cost == solo.total_cost
            assert result.event_counts == solo.event_counts

    def test_group_of_one_same_reason_as_large_group(self):
        """A run's outcome must not depend on its chunk-mates."""
        lone = execute_batch([self._spec("sw9", "rwr")])
        grouped = execute_batch(
            [self._spec("sw9", "rwr")] + [self._spec("sw9", "wrw")] * 4
        )
        assert lone[0].dispatch_reason == grouped[0].dispatch_reason
        assert lone[0].total_cost == grouped[0].total_cost

    def test_batch_spec_validates_members(self):
        with pytest.raises(InvalidParameterError):
            BatchSpec(runs=("not a spec",))

    def test_stack_write_masks_rejects_ragged(self):
        with pytest.raises(InvalidParameterError):
            stack_write_masks([Schedule.from_string("rw"),
                               Schedule.from_string("rwr")])


class TestParameterScans:
    @given(texts=schedule_batches(max_rows=4, max_length=50),
           warmup=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_k_scan_equals_per_kernel_loop(self, texts, warmup):
        writes = stack_write_masks(
            [Schedule.from_string(text) for text in texts]
        )
        if warmup > writes.shape[1]:
            warmup = writes.shape[1]
        ks = [1, 3, 5, 9]
        scan = scan_window_counts(writes, ks, warmup=warmup)
        for index, k in enumerate(ks):
            name = "sw1" if k == 1 else f"sw{k}"
            codes, _ = batched_run_arrays(name, writes)
            assert np.array_equal(scan[index], batched_counts(codes, warmup))

    @given(texts=schedule_batches(max_rows=4, max_length=50),
           warmup=st.integers(0, 5),
           method=st.sampled_from(["t1", "t2"]))
    @settings(max_examples=30, deadline=None)
    def test_m_scan_equals_per_kernel_loop(self, texts, warmup, method):
        writes = stack_write_masks(
            [Schedule.from_string(text) for text in texts]
        )
        if warmup > writes.shape[1]:
            warmup = writes.shape[1]
        ms = [1, 2, 3, 7]
        scan = scan_threshold_counts(method, writes, ms, warmup=warmup)
        for index, m in enumerate(ms):
            codes, _ = batched_run_arrays(f"{method}_{m}", writes)
            assert np.array_equal(scan[index], batched_counts(codes, warmup))

    @given(texts=schedule_batches(max_rows=4, max_length=50))
    @settings(max_examples=30, deadline=None)
    def test_omega_scan_equals_engine_totals(self, texts):
        """Affine reuse of the counts is byte-identical to re-running
        the engine under each omega's model."""
        schedules = [Schedule.from_string(text) for text in texts]
        writes = stack_write_masks(schedules)
        codes, _ = batched_run_arrays("sw3", writes)
        counts = batched_counts(codes)
        omegas = [0.0, 0.15, 0.5, 0.95, 1.0]
        totals = scan_omega_totals(counts, omegas)
        for index, omega in enumerate(omegas):
            model = MessageCostModel(omega)
            for row, schedule in enumerate(schedules):
                solo = run("sw3", schedule, model, stream=True)
                assert totals[index, row] == solo.total_cost

    def test_batched_totals_matches_counts_order(self):
        counts = np.array([[3, 1, 0, 2, 0, 1], [0, 0, 0, 0, 0, 0]])
        model = MessageCostModel(0.3)
        totals = batched_totals(counts, model)
        expected = sum(
            count * model.price(kind)
            for kind, count in zip(EVENT_KIND_ORDER, counts[0])
            if count
        )
        assert totals[0] == expected
        assert totals[1] == 0.0


BOUNDARY_WRITES = np.random.default_rng(5).random((2, 50)) < 0.4

#: Every kernel entry point that takes a warmup, as warmup -> counts.
WARMUP_ENTRY_POINTS = {
    "scan_window_counts": lambda warmup: scan_window_counts(
        BOUNDARY_WRITES, [3], warmup=warmup
    ),
    "scan_threshold_counts": lambda warmup: scan_threshold_counts(
        "t1", BOUNDARY_WRITES, [2], warmup=warmup
    ),
    "batched_counts": lambda warmup: batched_counts(
        batched_run_arrays("sw3", BOUNDARY_WRITES)[0], warmup
    ),
    "packed_run_counts": lambda warmup: packed_run_counts(
        "sw3", pack_write_masks(BOUNDARY_WRITES), warmup
    )[0],
}


class TestBoundaries:
    """Bad warmups, windows and thresholds raise; they never miscount."""

    @pytest.mark.parametrize("entry", sorted(WARMUP_ENTRY_POINTS))
    @pytest.mark.parametrize("warmup", [-3, -1, 51, 500])
    def test_out_of_range_warmup_raises(self, entry, warmup):
        with pytest.raises(InvalidParameterError, match="warmup"):
            WARMUP_ENTRY_POINTS[entry](warmup)

    @pytest.mark.parametrize("entry", sorted(WARMUP_ENTRY_POINTS))
    def test_warmup_of_the_whole_length_counts_nothing(self, entry):
        counts = WARMUP_ENTRY_POINTS[entry](50)
        assert counts.shape[-1] == 6 and not counts.any()
        assert WARMUP_ENTRY_POINTS[entry](0).sum() == BOUNDARY_WRITES.size

    @pytest.mark.parametrize("k", [3.7, 3.0, True, "3"])
    def test_non_integer_window_raises(self, k):
        with pytest.raises(InvalidParameterError, match="window size"):
            scan_window_counts(BOUNDARY_WRITES, [k])
        with pytest.raises(InvalidParameterError, match="window size"):
            ensure_odd_window(k)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
    def test_non_integer_threshold_raises(self, m):
        for method in ("t1", "t2"):
            with pytest.raises(InvalidParameterError, match="threshold"):
                scan_threshold_counts(method, BOUNDARY_WRITES, [m])
        with pytest.raises(InvalidParameterError, match="threshold"):
            ensure_threshold(m)

    def test_numpy_integers_pass(self):
        assert ensure_odd_window(np.int64(3)) == 3
        assert type(ensure_odd_window(np.int64(3))) is int
        assert ensure_threshold(np.int32(2)) == 2
        assert type(ensure_threshold(np.int32(2))) is int
        np.testing.assert_array_equal(
            scan_window_counts(BOUNDARY_WRITES, np.array([1, 3, 5])),
            scan_window_counts(BOUNDARY_WRITES, [1, 3, 5]),
        )
        np.testing.assert_array_equal(
            scan_threshold_counts("t2", BOUNDARY_WRITES, np.array([1, 2])),
            scan_threshold_counts("t2", BOUNDARY_WRITES, [1, 2]),
        )


class TestSweepExecutorBatching:
    def _tasks(self):
        return [
            EngineTask(
                name,
                ScheduleSpec(0.25 + 0.1 * index, 400, seed=50 + index),
                MODEL,
                warmup=100,
                tag=(name, index),
            )
            for name in ("sw9", "t1_4")
            for index in range(4)
        ]

    def test_batched_outcomes_identical_serial_vs_parallel(self):
        serial = SweepExecutor(jobs=1).map(self._tasks())
        parallel = SweepExecutor(jobs=2).map(self._tasks())
        assert [o.identity() for o in serial] == [
            o.identity() for o in parallel
        ]
        assert all(o.backend_name == "batched" for o in serial)

    def test_executor_reports_batches(self):
        executor = SweepExecutor(jobs=1)
        executor.map(self._tasks())
        dispatch = executor.report()["dispatch"]
        assert dispatch["batches"] >= 2
        assert dispatch["batched_runs"] == 8

    def test_instrumentation_on_batch_counter(self):
        counters = CounterInstrumentation()
        writes = stack_write_masks([Schedule.from_string("rwrw")] * 3)
        run_batched_masks("sw3", writes, [MODEL] * 3,
                          instrumentation=counters)
        assert counters.batches == 1
        assert counters.batched_runs == 3
        assert counters.runs == 3
