"""Exhaustive drain-split identity of the allocation service.

A session's carry bits and copy flag are its whole decision state, so
feeding it a mask in two pieces must end exactly where one run over the
whole mask ends.  For every family of the service mix and every write
mask of ``LENGTH`` requests, one session per mask is fed the mask split
at every point ``s`` — columns ``[:s]`` then ``[s:]`` — through the
block path (``submit_block``) and through the queued path (``submit``
then ``drain_shard``).  Per-request event kinds, event counts, the final
replica flag and the total must equal one ``engine.run`` over the whole
mask.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodels import MessageCostModel
from repro.costmodels.base import EVENT_KIND_ORDER
from repro.engine import run as engine_run
from repro.service import AllocationService, ServiceConfig, SessionKey
from repro.types import READ, WRITE, AllocationScheme, Schedule

#: The eight-family session mix of the service benchmark workloads.
FAMILIES = ("sw9", "sw5", "sw3", "sw1", "t1_4", "t2_4", "st1", "st2")

#: Every mask of this many requests is enumerated.  Nine is the longest
#: carry of the mix (sw9), so every family's carry is refilled with real
#: bits; at ten the file takes about twice as long.
LENGTH = 9

#: Every split point of a mask.
SPLITS = range(LENGTH + 1)

#: Row ``i`` is the mask whose bit ``j`` is bit ``j`` of ``i``.
MASKS = (np.arange(1 << LENGTH)[:, None] >> np.arange(LENGTH)) & 1 == 1

#: Distinct prices for all six event kinds, so totals see every count.
MODEL = MessageCostModel(0.4)

_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KIND_ORDER)}


@pytest.fixture(scope="module")
def references():
    """family -> (codes, counts, final copy flags, totals) of engine.run;
    counts are ``(2^N, 6)`` in ``EVENT_KIND_ORDER``."""
    found = {}
    for name in FAMILIES:
        codes = np.empty(MASKS.shape, dtype=np.int64)
        counts = np.zeros((len(MASKS), len(EVENT_KIND_ORDER)), dtype=np.int64)
        copies = np.empty(len(MASKS), dtype=bool)
        totals = []
        for row, mask in enumerate(MASKS):
            result = engine_run(
                name,
                Schedule.from_string("".join("w" if b else "r" for b in mask)),
                MODEL,
                stream=False,
            )
            codes[row] = [_KIND_CODE[kind] for kind in result.event_kinds]
            for kind, count in result.event_counts.items():
                counts[row, _KIND_CODE[kind]] = count
            copies[row] = result.schemes[-1] is AllocationScheme.TWO_COPIES
            totals.append(result.total_cost)
        found[name] = (codes, counts, copies, totals)
    return found


def _service(name):
    """A one-shard service with one fresh session per (split, mask)."""
    service = AllocationService(
        ServiceConfig(
            num_shards=1, drain_threshold=1 << 30, max_queue_depth=1 << 30
        )
    )
    keys = [
        [SessionKey(f"split-{split}", f"mask-{row}") for row in range(len(MASKS))]
        for split in SPLITS
    ]
    for split_keys in keys:
        for key in split_keys:
            service.open_session(key, name, MODEL)
    return service, keys


def _check(service, keys, reference):
    """Compare the group's columns and log with the reference, per split.

    Sessions were opened split by split, so row ``split * 2^N + mask``
    of the group is mask ``mask`` fed with split ``split``.
    """
    codes, counts, copies, totals = reference
    group, _row, _shard = service._lookup(keys[0][0])
    logged = np.full((len(SPLITS),) + MASKS.shape, -1, dtype=np.int64)
    filled = np.zeros(group.size, dtype=np.intp)
    for rows, writes, block_codes in group.history:
        split, mask = np.divmod(rows, len(MASKS))
        columns = filled[rows][:, None] + np.arange(block_codes.shape[1])
        assert np.array_equal(writes, MASKS[mask[:, None], columns])
        logged[split[:, None], mask[:, None], columns] = block_codes
        filled[rows] += block_codes.shape[1]
    by_split = (len(SPLITS), len(MASKS))
    assert np.array_equal(logged, np.broadcast_to(codes, logged.shape))
    assert (group.counts[: group.size].sum(axis=1) == LENGTH).all()
    assert np.array_equal(
        group.counts[: group.size].reshape(by_split + (-1,)),
        np.broadcast_to(counts, by_split + counts.shape[1:]),
    )
    assert np.array_equal(
        group.copy[: group.size].reshape(by_split),
        np.broadcast_to(copies, by_split),
    )
    # The public view prices the same counts with the session's model.
    for split_keys in keys:
        for row in range(0, len(MASKS), 37):
            info = service.session_info(split_keys[row])
            assert info["decisions"] == LENGTH
            assert info["total_cost"] == totals[row]


@pytest.mark.parametrize("name", FAMILIES)
def test_block_split_equals_one_run(name, references):
    service, keys = _service(name)
    for split, split_keys in zip(SPLITS, keys):
        plan = service.plan_block(split_keys)
        service.submit_block(plan, MASKS[:, :split])
        service.submit_block(plan, MASKS[:, split:])
    _check(service, keys, references[name])


@pytest.mark.parametrize("name", FAMILIES)
def test_queued_split_equals_one_run(name, references):
    """Both pieces of every split queue together, so each drain also
    buckets sessions of different pending lengths."""
    service, keys = _service(name)
    for first in (True, False):
        for split, split_keys in zip(SPLITS, keys):
            piece = MASKS[:, :split] if first else MASKS[:, split:]
            for key, bits in zip(split_keys, piece.tolist()):
                for bit in bits:
                    service.submit(key, WRITE if bit else READ)
        service.drain_shard(0)
    _check(service, keys, references[name])
