"""Property tests for the batched multi-schedule kernels.

The contract under test, hypothesis-swept rather than example-based:

* batched == reference, byte-identically, for every algorithm the
  kernels cover — totals, counts, and (materialized) per-request
  classifications — whether a run goes through a batch or alone through
  ``engine.run`` on the auto path (a batch of one);
* kernel coverage is exactly session-hostability, and every spec with
  a parameter of at most 5 decides alike whether passed parsed or by
  name, and like a fresh session, on every schedule of up to 10
  requests at every warmup;
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
)
from repro.core.packed import pack_write_masks, packed_run_counts
from repro.core.registry import make_algorithm
from repro.core.session import (
    AllocationSession,
    ensure_threshold,
    parse_algorithm_name,
)
from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.costmodels.base import EVENT_KIND_ORDER
from repro.engine import (
    BatchedBackend,
    CounterInstrumentation,
    SweepExecutor,
    run,
    run_batched_masks,
)
from repro.engine.parallel import EngineTask, ScheduleSpec
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.types import READ, WRITE, Schedule, ensure_odd_window, write_bits
from repro.workload import bernoulli_schedule

MODEL = ConnectionCostModel()


def stack_masks(schedules):
    """The ``(B, N)`` bool write matrix of same-length schedules."""
    return np.stack([write_bits(schedule) for schedule in schedules])

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
        if parse_algorithm_name(algorithm_name) is None:
            return
        schedules = [Schedule.from_string(text) for text in texts]
        writes = stack_masks(schedules)
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
        writes = stack_masks(schedules)
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
        results = run_batched_masks("sw3", stack_masks(schedules), models)
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
        for name in NAMES + ("sw1-unoptimized",):
            assert BatchedBackend().supports(name)

    def test_unsupported(self):
        """Kernel coverage is exactly session-hostability."""
        backend = BatchedBackend()
        assert not backend.supports("ewma_20")
        for name in ("ewma_20", "hsw9_2", "bogus", "sw1-unoptimized",
                     "sw7", "t2_9"):
            assert backend.supports(name) == (
                parse_algorithm_name(name) is not None
            )

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


def _all_masks(length):
    """Every write mask of ``length`` requests: ``(2**length, length)``."""
    values = np.arange(2 ** length)[:, None]
    return ((values >> np.arange(length)) & 1).astype(bool)


#: Every kernel spec with a parameter of at most 5.
SMALL_SPECS = tuple(
    parse_algorithm_name(name)
    for name in ("st1", "st2", "sw1", "sw1-unoptimized", "sw3", "sw5")
    + tuple(f"t{family}_{m}" for family in (1, 2) for m in range(1, 6))
)

_CODE = {kind: code for code, kind in enumerate(EVENT_KIND_ORDER)}


def _fed(spec, masks):
    """``(codes, copy_after)`` of a fresh session fed each mask row."""
    codes = np.empty(masks.shape, dtype=np.int64)
    copy_after = np.empty(masks.shape, dtype=bool)
    for row, mask in enumerate(masks.tolist()):
        session = AllocationSession(spec)
        for column, bit in enumerate(mask):
            decision = session.feed(WRITE if bit else READ)
            codes[row, column] = _CODE[decision.kind]
            copy_after[row, column] = decision.mobile_has_copy
    return codes, copy_after


def _counts_from(codes):
    """``(B, N + 1, 6)``: row ``b``'s per-kind counts from each warmup on."""
    onehot = (codes[:, :, None] == np.arange(len(EVENT_KIND_ORDER))).astype(
        np.int64
    )
    counts = np.zeros(
        (codes.shape[0], codes.shape[1] + 1, len(EVENT_KIND_ORDER)),
        dtype=np.int64,
    )
    counts[:, :-1] = onehot[:, ::-1].cumsum(axis=1)[:, ::-1]
    return counts


class TestSpecNameExhaustive:
    """A parsed spec and its name decide alike, exhaustively.

    For every spec with a parameter of at most 5 and every mask of up
    to 10 requests: ``batched_run_arrays`` on the spec equals it on the
    name and a fresh session's ``feed`` sequence; at every warmup,
    ``packed_run_counts`` on the spec equals the counts of those codes
    and their scheme flips.  ``sw1-unoptimized`` (SWk at k = 1, which
    shares no rule with SW1) also runs every mask through a lone
    auto-dispatched ``engine.run``, traced and streamed at every warmup.
    """

    UNOPTIMIZED = parse_algorithm_name("sw1-unoptimized")

    @pytest.mark.parametrize("length", range(11))
    def test_every_mask_and_warmup_equals_replay(self, length):
        masks = _all_masks(length)
        packed = pack_write_masks(masks)
        for spec in SMALL_SPECS:
            codes, copy_after = batched_run_arrays(spec, masks)
            named_codes, named_copy = batched_run_arrays(spec.name, masks)
            fed_codes, fed_copy = _fed(spec, masks)
            for got in (codes, named_codes):
                np.testing.assert_array_equal(got, fed_codes)
            for got in (copy_after, named_copy):
                np.testing.assert_array_equal(got, fed_copy)
            expected = _counts_from(fed_codes)
            flips = np.count_nonzero(fed_copy[:, 1:] != fed_copy[:, :-1],
                                     axis=1)
            for warmup in range(length + 1):
                counts, packed_flips = packed_run_counts(spec, packed, warmup)
                np.testing.assert_array_equal(counts, expected[:, warmup])
                np.testing.assert_array_equal(packed_flips, flips)
            if spec == self.UNOPTIMIZED:
                self._check_engine(spec.name, masks, fed_codes, expected,
                                   flips)

    @staticmethod
    def _check_engine(name, masks, codes, expected, flips):
        for row, mask in enumerate(masks):
            schedule = Schedule.from_string(
                "".join("w" if bit else "r" for bit in mask)
            )
            traced = run(name, schedule, MODEL)
            assert traced.backend_name == "batched"
            assert traced.event_kinds == tuple(
                EVENT_KIND_ORDER[code] for code in codes[row]
            )
            for warmup in range(len(mask) + 1):
                auto = run(name, schedule, MODEL, stream=True, warmup=warmup)
                assert auto.backend_name == "batched"
                assert [auto.event_counts.get(kind, 0)
                        for kind in EVENT_KIND_ORDER] == (
                    expected[row, warmup].tolist()
                )
                assert auto.scheme_changes == flips[row]


class TestParameterScans:
    @given(texts=schedule_batches(max_rows=4, max_length=50),
           warmup=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_k_scan_equals_per_kernel_loop(self, texts, warmup):
        writes = stack_masks(
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
        writes = stack_masks(
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
        writes = stack_masks(schedules)
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

    def test_outcomes_report_their_lone_dispatch(self):
        """Ragged lengths, uncovered algorithms and empty schedules in
        one map: each outcome reports the backend, reason and costs of
        its lone auto-dispatched ``engine.run``."""
        cases = [("sw9", "rwrw"), ("sw9", "rwrwrrw"), ("sw1", "rwrw"),
                 ("sw1-unoptimized", "rwrw"), ("ewma_20", "rwrw"),
                 ("st1", "")]
        tasks = [EngineTask(name, Schedule.from_string(text), MODEL)
                 for name, text in cases]
        outcomes = SweepExecutor(jobs=1).map(tasks)
        assert [o.backend_name for o in outcomes] == [
            "batched", "batched", "batched", "batched", "reference",
            "batched",
        ]
        for (name, text), outcome in zip(cases, outcomes):
            solo = run(name, Schedule.from_string(text), MODEL, stream=True)
            assert outcome.backend_name == solo.backend_name
            assert outcome.dispatch_reason == solo.dispatch_reason
            assert outcome.total_cost == solo.total_cost
            assert outcome.event_counts == solo.event_counts

    def test_group_of_one_same_outcome_as_large_group(self):
        """A task's outcome must not depend on its chunk-mates."""
        def task(text):
            return EngineTask("sw9", Schedule.from_string(text), MODEL)

        lone = SweepExecutor(jobs=1).map([task("rwr")])
        grouped = SweepExecutor(jobs=1).map(
            [task("rwr")] + [task("wrw")] * 4
        )
        assert lone[0].identity() == grouped[0].identity()

    def test_executor_reports_batches(self):
        executor = SweepExecutor(jobs=1)
        executor.map(self._tasks())
        dispatch = executor.report()["dispatch"]
        assert dispatch["batches"] >= 2
        assert dispatch["batched_runs"] == 8

    def test_instrumentation_on_batch_counter(self):
        counters = CounterInstrumentation()
        writes = stack_masks([Schedule.from_string("rwrw")] * 3)
        run_batched_masks("sw3", writes, [MODEL] * 3,
                          instrumentation=counters)
        assert counters.batches == 1
        assert counters.batched_runs == 3
        assert counters.runs == 3
