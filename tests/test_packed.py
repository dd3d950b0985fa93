"""Byte-identity suite for the packed masks and the tile scheduler.

The contract, hypothesis-swept: a :class:`~repro.core.packed.PackedMasks`
input fed through any thread count and any tile size produces the same
bytes — counts, totals, flips, materialized events — as the unpacked
bool matrix on one thread, for every algorithm family the batched
kernels cover.  Thread counts and tile heights are forced through the
scheduler's private budget, since small test grids would otherwise
always run serially.  Plus unit coverage of the packbits layout
(roundtrip, footprint, validators), the packed prefix sum, the
int32→int64 accumulator promotion guard and the default thread budget.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.packed as packed_module
import repro.engine.batched as batched_engine
from repro.core.batched import batched_counts, batched_run_arrays
from repro.core.session import AllocationSession
from repro.core.packed import (
    PackedMasks,
    _shift_right,
    accumulator_dtype,
    pack_write_masks,
    packed_cumulative,
    packed_run_counts,
)
from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.engine import FunctionTask, SweepExecutor, run, run_batched_masks
from repro.engine.batched import _row_tiles, run_batched_columns
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.costmodels.base import EVENT_KIND_ORDER
from repro.types import AllocationScheme, Operation, Schedule, write_bits

MODEL = ConnectionCostModel()

#: One representative per family: ST1, ST2, SW1, SWk, T1m, T2m.
FAMILY_NAMES = ("st1", "st2", "sw1", "sw5", "t1_3", "t2_3")

THREAD_COUNTS = (1, 2, 4)


def _run_on(threads, *args, tile_height=None, entry=run_batched_masks,
            **kwargs):
    """``entry`` (``run_batched_masks`` by default) on ``threads`` tile
    threads, whatever the size.

    ``tile_height`` overrides the default tile height (the element
    budget shrinks to ``tile_height`` rows of the launch's length).
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched_engine, "_thread_budget",
                      lambda _elements: threads)
        if tile_height is not None:
            length = args[1].shape[1]
            patch.setattr(batched_engine, "_TILE_ELEMENTS",
                          tile_height * length)
        return entry(*args, **kwargs)


@st.composite
def schedule_batches(draw, max_rows=5, max_length=60):
    """A non-ragged batch: B schedule strings of one shared length."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    return [
        draw(st.text(alphabet="rw", min_size=length, max_size=length))
        for _ in range(rows)
    ]


def _stack(schedules):
    return np.stack([write_bits(schedule) for schedule in schedules])


def _writes_from(texts):
    return _stack([Schedule.from_string(text) for text in texts])


class TestPackedLayout:
    @given(texts=schedule_batches(max_rows=4, max_length=40))
    @settings(max_examples=25, deadline=None)
    def test_pack_unpack_roundtrip(self, texts):
        writes = _writes_from(texts)
        packed = pack_write_masks(writes)
        assert packed.shape == writes.shape
        np.testing.assert_array_equal(packed.to_bool(), writes)
        # Pad bits past ``length`` are zero — the popcount contract.
        if writes.shape[1] % 8 and writes.shape[0]:
            tail = int(packed.bits[:, -1].max())
            spare = 8 - writes.shape[1] % 8
            assert tail & ((1 << spare) - 1) == 0

    def test_footprint_is_an_eighth(self):
        writes = np.ones((8, 4096), dtype=bool)
        packed = pack_write_masks(writes)
        assert packed.nbytes * 8 == writes.nbytes
        assert packed.nbytes <= writes.nbytes / 6

    def test_empty_inputs(self):
        empty = pack_write_masks(np.empty((3, 0), dtype=bool))
        assert empty.shape == (3, 0)
        assert empty.to_bool().shape == (3, 0)
        counts, flips = packed_run_counts("sw3", empty)
        assert counts.shape == (3, 6) and not counts.any()
        assert not flips.any()

    def test_layout_validators(self):
        with pytest.raises(InvalidParameterError, match="uint8"):
            PackedMasks(np.zeros((2, 3), dtype=np.int64), 24)
        with pytest.raises(InvalidParameterError, match="cannot hold"):
            PackedMasks(np.zeros((2, 3), dtype=np.uint8), 99)
        with pytest.raises(InvalidParameterError, match="bool"):
            PackedMasks.from_bool(np.zeros((2, 3), dtype=np.uint8))

    def test_rows_is_a_view(self):
        packed = pack_write_masks(np.ones((4, 16), dtype=bool))
        tile = packed.rows(1, 3)
        assert tile.batch == 2 and tile.length == 16
        assert tile.bits.base is packed.bits

    def test_unknown_algorithm_raises(self):
        packed = pack_write_masks(np.ones((1, 8), dtype=bool))
        with pytest.raises(UnknownAlgorithmError):
            packed_run_counts("nope", packed)
        with pytest.raises(InvalidParameterError, match="PackedMasks"):
            packed_run_counts("sw3", np.ones((1, 8), dtype=bool))


class TestByteIdentity:
    """{unpacked, packed} x {1, 2, 4 threads} x every family."""

    @pytest.mark.parametrize("algorithm_name", FAMILY_NAMES)
    @given(texts=schedule_batches())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_packed_threaded_equals_unpacked_serial(
        self, algorithm_name, texts
    ):
        writes = _writes_from(texts)
        models = [MODEL] * writes.shape[0]
        baseline = _run_on(1, algorithm_name, writes, models)
        packed = pack_write_masks(writes)
        for threads in THREAD_COUNTS:
            for results in (
                _run_on(threads, algorithm_name, writes, models),
                _run_on(threads, algorithm_name, packed, models),
            ):
                for expected, got in zip(baseline, results):
                    assert got.total_cost == expected.total_cost
                    assert got.event_counts == expected.event_counts
                    assert got.scheme_changes == expected.scheme_changes

    @pytest.mark.parametrize("algorithm_name", FAMILY_NAMES)
    @given(texts=schedule_batches(max_rows=3, max_length=40),
           warmup=st.integers(0, 8))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_packed_counts_equal_code_counts(
        self, algorithm_name, texts, warmup
    ):
        writes = _writes_from(texts)
        warmup = min(warmup, writes.shape[1])
        codes, copy_after = batched_run_arrays(algorithm_name, writes)
        counts, flips = packed_run_counts(
            algorithm_name, pack_write_masks(writes), warmup
        )
        np.testing.assert_array_equal(counts, batched_counts(codes, warmup))
        if writes.shape[1]:
            expected_flips = (copy_after[:, 1:] != copy_after[:, :-1]).sum(
                axis=1
            )
            np.testing.assert_array_equal(flips, expected_flips)

    @pytest.mark.parametrize("algorithm_name", FAMILY_NAMES)
    def test_materialized_events_survive_packing(self, algorithm_name):
        schedules = [Schedule.from_string("rwrrwwrwrrrwr")] * 3
        packed = pack_write_masks(_stack(schedules))
        results = _run_on(
            2, algorithm_name, packed, [MODEL] * 3, stream=False
        )
        for schedule, got in zip(schedules, results):
            reference = run(algorithm_name, schedule, MODEL,
                            backend="reference")
            assert got.total_cost == reference.total_cost
            assert got.events == reference.events
            assert got.event_kinds == reference.event_kinds
            assert got.schemes == reference.schemes


def _all_masks(length):
    """Every write mask of ``length`` requests: the ``(2^N, N)`` batch."""
    return (
        np.arange(1 << length)[:, None] >> np.arange(length)[None, :] & 1
    ).astype(bool)


def _flips_of(copy_after):
    return (copy_after[:, 1:] != copy_after[:, :-1]).sum(axis=1)


class TestThresholdKernels:
    """The bit-parallel T1m/T2m counts, exhaustively up to 12 requests."""

    @pytest.mark.parametrize("length", range(13))
    def test_every_mask_every_threshold_every_warmup(self, length):
        writes = _all_masks(length)
        packed = pack_write_masks(writes)
        for family in ("t1", "t2"):
            for m in range(1, 14):
                name = f"{family}_{m}"
                codes, copy_after = batched_run_arrays(name, writes)
                flips = _flips_of(copy_after)
                for warmup in range(length + 1):
                    counts, got_flips = packed_run_counts(
                        name, packed, warmup
                    )
                    np.testing.assert_array_equal(
                        counts, batched_counts(codes, warmup), err_msg=name
                    )
                    np.testing.assert_array_equal(
                        got_flips, flips, err_msg=name
                    )

    @pytest.mark.parametrize("name", ["t1_1", "t1_3", "t1_9",
                                      "t2_1", "t2_3", "t2_9"])
    def test_a_slice_matches_the_session_replay(self, name):
        length, warmup = 9, 2
        writes = _all_masks(length)[::37]
        counts, flips = packed_run_counts(
            name, pack_write_masks(writes), warmup
        )
        for row, mask in enumerate(writes):
            session = AllocationSession.from_name(name)
            decisions = [
                session.feed(Operation.WRITE if write else Operation.READ)
                for write in mask
            ]
            expected = [0] * len(EVENT_KIND_ORDER)
            for decision in decisions[warmup:]:
                expected[EVENT_KIND_ORDER.index(decision.kind)] += 1
            assert counts[row].tolist() == expected
            copies = [decision.mobile_has_copy for decision in decisions]
            assert flips[row] == sum(
                a != b for a, b in zip(copies, copies[1:])
            )

    @given(texts=schedule_batches(max_rows=3, max_length=40),
           shift=st.integers(0, 50), fill=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_shift_right_delays_every_bit(self, texts, shift, fill):
        writes = _writes_from(texts)
        length = writes.shape[1]
        shifted = PackedMasks(
            _shift_right(pack_write_masks(writes).bits, shift, fill), length
        ).to_bool()
        expected = np.full(writes.shape, fill)
        expected[:, shift:] = writes[:, :max(length - shift, 0)]
        np.testing.assert_array_equal(shifted, expected)


class TestPackedMemory:
    """The packed tier never unpacks: its peak stays a small multiple
    of the packed bytes, for every family it decides on the bits."""

    @pytest.mark.parametrize(
        "name", ["st1", "sw1", "t1_4", "t2_4", "t1_99", "t2_99"]
    )
    def test_peak_is_a_small_multiple_of_the_packed_bytes(self, name):
        rng = np.random.default_rng(29)
        packed = pack_write_masks(rng.random((8, 250_000)) < 0.4)
        tracemalloc.start()
        try:
            packed_run_counts(name, packed, 1_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * packed.nbytes, (name, peak / packed.nbytes)


class TestPackedScans:
    @given(texts=schedule_batches(max_rows=3, max_length=40))
    @settings(max_examples=10, deadline=None)
    def test_packed_cumulative_is_the_cumsum(self, texts):
        writes = _writes_from(texts)
        np.testing.assert_array_equal(
            packed_cumulative(pack_write_masks(writes)),
            np.cumsum(writes, axis=1),
        )


class TestRaggedTiles:
    """B not divisible by the tile size, N not divisible by 8."""

    @pytest.mark.parametrize("algorithm_name", FAMILY_NAMES)
    def test_ragged_tiles_are_invisible(self, algorithm_name):
        rng = np.random.default_rng(17)
        writes = rng.random((5, 13)) < 0.5
        models = [MODEL] * 5
        baseline = _run_on(1, algorithm_name, writes, models)
        packed = pack_write_masks(writes)
        for tile_height in (1, 2, 3, 7):
            results = _run_on(
                2, algorithm_name, packed, models, tile_height=tile_height
            )
            for expected, got in zip(baseline, results):
                assert got.total_cost == expected.total_cost
                assert got.event_counts == expected.event_counts
                assert got.scheme_changes == expected.scheme_changes

    @pytest.mark.parametrize("algorithm_name", FAMILY_NAMES)
    def test_columns_match_per_row_results(self, algorithm_name):
        rng = np.random.default_rng(23)
        writes = rng.random((7, 13)) < 0.5
        warmup = 4
        baseline = _run_on(
            1, algorithm_name, writes, [MODEL] * 7, warmup=warmup,
            stream=False,
        )
        for threads, tile_height in ((1, None), (2, 3)):
            counts, copy, codes = _run_on(
                threads, algorithm_name, writes, warmup,
                tile_height=tile_height, entry=run_batched_columns,
            )
            assert counts.shape == (7, 6) and codes.shape == (7, 9)
            for row, expected in enumerate(baseline):
                assert {
                    kind: int(count)
                    for kind, count in zip(EVENT_KIND_ORDER, counts[row])
                    if count
                } == expected.event_counts
                assert copy[row] == (
                    expected.schemes[-1] is AllocationScheme.TWO_COPIES
                )
                assert [EVENT_KIND_ORDER[code] for code in codes[row]] == list(
                    expected.event_kinds[warmup:]
                )

    def test_columns_reject_empty_rows(self):
        with pytest.raises(InvalidParameterError):
            run_batched_columns("sw3", np.zeros((2, 0), dtype=bool))

    @pytest.mark.parametrize("writes", [
        [[0.5, 0.2, 0.0]],
        [[2, 0, 1]],
        np.array([[1, 0, 1]], dtype=np.uint8),
    ])
    def test_columns_reject_non_bool_blocks(self, writes):
        with pytest.raises(InvalidParameterError, match="bool"):
            run_batched_columns("sw3", writes)

    def test_columns_take_lists_of_bools(self):
        counts, copy, codes = run_batched_columns(
            "sw3", [[True, False, True], [False, False, False]]
        )
        expected, expected_copy, expected_codes = run_batched_columns(
            "sw3", np.array([[True, False, True], [False, False, False]])
        )
        np.testing.assert_array_equal(counts, expected)
        np.testing.assert_array_equal(copy, expected_copy)
        np.testing.assert_array_equal(codes, expected_codes)

    def test_row_tiles_cover_exactly(self, monkeypatch):
        # Long rows fill a tile up to the element budget: a sweep row of
        # 250k requests tiles 4 high.
        assert _row_tiles(100, 250_000, 1) == [
            (start, start + 4) for start in range(0, 100, 4)
        ]
        assert _row_tiles(256, 250_000, 2) == [
            (start, start + 4) for start in range(0, 256, 4)
        ]
        # A row longer than the budget is a tile on its own.
        assert _row_tiles(3, 1 << 21, 1) == [(0, 1), (1, 2), (2, 3)]
        # Short rows too: a service group of 390 rows of L + 50
        # requests is one tile.
        assert _row_tiles(390, 59, 1) == [(0, 390)]
        assert _row_tiles(40_000, 59, 1) == [
            (0, 17_772), (17_772, 35_544), (35_544, 40_000)
        ]
        # An empty batch is one empty tile, whatever the length.
        assert _row_tiles(0, 1, 1) == [(0, 0)]
        assert _row_tiles(3, 0, 1) == [(0, 3)]
        # Tiles shrink so a small batch still feeds every thread.
        assert _row_tiles(8, 250_000, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert _row_tiles(8, 59, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
        monkeypatch.setattr(batched_engine, "_TILE_ELEMENTS", 2 * 13)
        assert _row_tiles(5, 13, 1) == [(0, 2), (2, 4), (4, 5)]

    @given(batch=st.integers(0, 3_000), length=st.integers(0, 1 << 22),
           threads=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_row_tiles_respect_the_element_budget(
        self, batch, length, threads
    ):
        tiles = _row_tiles(batch, length, threads)
        assert tiles[0][0] == 0 and tiles[-1][1] == batch
        for (_, stop), (start, _) in zip(tiles, tiles[1:]):
            assert stop == start
        budget = max(batched_engine._TILE_ELEMENTS, length)
        for start, stop in tiles:
            assert (stop - start) * length <= budget
            assert stop > start or batch == 0


class TestAccumulatorGuard:
    def test_dtype_promotes_past_the_safe_length(self):
        assert accumulator_dtype(0) is np.int32
        assert accumulator_dtype(packed_module._INT32_SAFE_LENGTH) is np.int32
        assert (
            accumulator_dtype(packed_module._INT32_SAFE_LENGTH + 1)
            is np.int64
        )
        assert accumulator_dtype(2**31) is np.int64
        with pytest.raises(InvalidParameterError):
            accumulator_dtype(-1)

    def test_promoted_accumulators_keep_byte_identity(self, monkeypatch):
        # Shrink the guard so ordinary schedules take the int64 path;
        # every count must come out identical to the int32 tier.
        rng = np.random.default_rng(23)
        writes = rng.random((4, 37)) < 0.6
        expected_codes, _ = batched_run_arrays("sw5", writes)
        expected_counts, expected_flips = packed_run_counts(
            "sw5", pack_write_masks(writes)
        )
        monkeypatch.setattr(packed_module, "_INT32_SAFE_LENGTH", 4)
        assert accumulator_dtype(37) is np.int64
        codes, _ = batched_run_arrays("sw5", writes)
        np.testing.assert_array_equal(codes, expected_codes)
        counts, flips = packed_run_counts("sw5", pack_write_masks(writes))
        np.testing.assert_array_equal(counts, expected_counts)
        np.testing.assert_array_equal(flips, expected_flips)


class TestThreadBudget:
    def test_default_budget_is_serial_below_the_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert batched_engine._thread_budget(0) == 1
        assert batched_engine._thread_budget((1 << 20) - 1) == 1
        assert batched_engine._thread_budget(1 << 20) == 4
        # Wide hosts cap at eight threads.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert batched_engine._thread_budget(1 << 30) == 8

    def test_sweep_workers_run_one_kernel_thread(self):
        tasks = [
            FunctionTask.call(batched_engine._thread_budget, 1 << 30, tag=i)
            for i in range(4)
        ]
        assert SweepExecutor(jobs=2).map(tasks) == [1] * 4
