"""Tests for the sharded multi-tenant allocation service."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.costmodels.base import CostEventKind
from repro.engine import run as engine_run
from repro.engine.instrumentation import Instrumentation
from repro.exceptions import (
    InvalidParameterError,
    ServiceError,
    ServiceOverloadError,
    UnknownAlgorithmError,
)
from repro.service import (
    AllocationService,
    LoadGenerator,
    ServiceConfig,
    ServiceCounters,
    SessionKey,
    run_self_test,
    shard_of,
)
from repro.types import READ, WRITE, Operation, Schedule


def _key(index: int) -> SessionKey:
    return SessionKey(f"client-{index}", f"item-{index % 5}")


class TestKeys:
    def test_shard_placement_is_deterministic_and_in_range(self):
        for index in range(200):
            key = _key(index)
            shard = shard_of(key, 16)
            assert shard == shard_of(SessionKey(key.client, key.object), 16)
            assert 0 <= shard < 16

    def test_namespace_separates_populations(self):
        plain = SessionKey("c", "x")
        test = SessionKey("c", "x", "test")
        assert plain.digest() != test.digest()

    def test_empty_fields_rejected(self):
        with pytest.raises(InvalidParameterError):
            SessionKey("", "x")
        with pytest.raises(InvalidParameterError):
            shard_of(SessionKey("c", "x"), 0)


class TestSessionLifecycle:
    def test_duplicate_open_rejected(self):
        service = AllocationService()
        service.open_session(_key(0), "sw3")
        with pytest.raises(ServiceError):
            service.open_session(_key(0), "sw3")

    def test_unknown_and_unhostable_algorithms_rejected(self):
        service = AllocationService()
        with pytest.raises(UnknownAlgorithmError):
            service.open_session(_key(0), "bogus")
        with pytest.raises(UnknownAlgorithmError):
            service.open_session(_key(0), "ewma_20")

    def test_submit_to_unopened_session_rejected(self):
        service = AllocationService()
        with pytest.raises(ServiceError):
            service.submit(_key(0), READ)

    def test_open_reports_home_shard(self):
        service = AllocationService(ServiceConfig(num_shards=8))
        shard = service.open_session(_key(3), "t1_2")
        assert shard == shard_of(_key(3), 8)


class TestDecisions:
    def test_serve_one_matches_protocol_semantics(self):
        service = AllocationService()
        key = _key(1)
        service.open_session(key, "st2")
        assert service.serve_one(key, WRITE) is CostEventKind.WRITE_PROPAGATED
        assert service.serve_one(key, READ) is CostEventKind.LOCAL_READ

    def test_queued_and_blocked_paths_agree_with_engine(self):
        """Mixed submit()/submit_block() decisions replay byte-identically."""
        rng = np.random.default_rng(11)
        service = AllocationService(ServiceConfig(num_shards=4))
        keys = [_key(i) for i in range(12)]
        names = ["sw5", "sw1", "t2_3", "st1"] * 3
        for key, name in zip(keys, names):
            service.open_session(key, name, MessageCostModel(0.4))
        history = {key: [] for key in keys}
        # A few single submissions...
        for key in keys[:6]:
            for _ in range(3):
                bit = bool(rng.random() < 0.5)
                service.submit(key, WRITE if bit else READ)
                history[key].append(bit)
        service.drain_all()
        # ...then two uniform blocks over the whole population.
        plan = service.plan_block(keys)
        for _ in range(2):
            matrix = rng.random((len(keys), 7)) < 0.5
            service.submit_block(plan, matrix)
            for row, key in enumerate(keys):
                history[key].extend(bool(bit) for bit in matrix[row])
        for key, name in zip(keys, names):
            bits = history[key]
            schedule = Schedule.from_string(
                "".join("w" if bit else "r" for bit in bits)
            )
            reference = engine_run(
                name, schedule, MessageCostModel(0.4), stream=False
            )
            info = service.session_info(key)
            assert info["total_cost"] == reference.total_cost
            counts = {
                kind.value: count
                for kind, count in reference.event_counts.items()
            }
            assert info["event_counts"] == counts

    def test_replay_verify_passes_and_audit_conserves(self):
        service = AllocationService(ServiceConfig(num_shards=4))
        rng = np.random.default_rng(5)
        keys = [_key(i) for i in range(20)]
        for index, key in enumerate(keys):
            service.open_session(key, ["sw9", "sw1", "t1_3", "st2"][index % 4])
        plan = service.plan_block(keys)
        service.submit_block(plan, rng.random((20, 31)) < 0.4)
        audit = service.audit()
        assert audit["sessions_audited"] == 20
        assert audit["requests_audited"] == 20 * 31
        replay = service.replay_verify(sample=20)
        assert replay["sessions_replayed"] == 20
        assert replay["decisions_replayed"] == 20 * 31

    def test_repeated_key_in_a_block_is_rejected(self):
        """A repeated key would be decided twice from one state and only
        one row kept; planning such a block must fail instead."""
        service = AllocationService(ServiceConfig(num_shards=2))
        key = _key(0)
        service.open_session(key, "sw3")
        service.open_session(_key(1), "sw3")
        for keys in ([key, key], [key, _key(1), key]):
            with pytest.raises(InvalidParameterError, match="more than once"):
                service.plan_block(keys)
        assert service.session_info(key)["decisions"] == 0
        plan = service.plan_block([key, _key(1)])
        assert service.submit_block(plan, np.ones((2, 5), dtype=bool)) == 10
        assert service.session_info(key)["decisions"] == 5
        assert service.replay_verify()["decisions_replayed"] == 10

    def test_audit_requires_recording(self):
        service = AllocationService(ServiceConfig(record_decisions=False))
        service.open_session(_key(0), "sw3")
        service.serve_one(_key(0), READ)
        with pytest.raises(ServiceError):
            service.audit()
        with pytest.raises(ServiceError):
            service.replay_verify()


class TestBackpressure:
    def test_auto_drain_levels_the_queue(self):
        counters = ServiceCounters()
        service = AllocationService(
            ServiceConfig(num_shards=1, drain_threshold=5),
            instrumentation=counters,
        )
        key = _key(0)
        service.open_session(key, "sw3")
        for _ in range(12):
            service.submit(key, READ)
        # Two automatic drains at depth 5; two operations still queued.
        assert counters.backpressure_events == 2
        assert service.decisions == 10
        assert service.drain_all() == 2

    def test_overload_raises_without_auto_drain(self):
        service = AllocationService(
            ServiceConfig(
                num_shards=1, drain_threshold=2, max_queue_depth=3,
                auto_drain=False,
            )
        )
        key = _key(0)
        service.open_session(key, "sw3")
        for _ in range(3):
            service.submit(key, WRITE)
        with pytest.raises(ServiceOverloadError):
            service.submit(key, WRITE)
        service.drain_shard(shard_of(key, 1))
        service.submit(key, WRITE)  # queue has room again

    def test_overload_carries_a_retry_after_hint(self):
        service = AllocationService(
            ServiceConfig(
                num_shards=1, drain_threshold=2, max_queue_depth=2,
                auto_drain=False,
            )
        )
        key = _key(0)
        service.open_session(key, "sw3")
        service.submit(key, WRITE)
        service.submit(key, WRITE)
        with pytest.raises(ServiceOverloadError) as excinfo:
            service.submit(key, WRITE)
        # No drain observed yet: the hint is the conservative default.
        assert excinfo.value.retry_after > 0
        assert excinfo.value.shard == 0
        assert excinfo.value.depth == 2
        service.drain_all()
        service.submit(key, WRITE)
        service.submit(key, WRITE)
        with pytest.raises(ServiceOverloadError) as excinfo:
            service.submit(key, WRITE)
        # After a drain the hint is depth over the observed drain rate.
        assert 0 < excinfo.value.retry_after < 10.0

    def test_shed_submissions_do_not_corrupt_the_ledgers(self):
        # Graceful shedding: a rejected submission must leave session
        # state, queues and the decision log untouched, so the audit
        # and the engine replay still pass afterwards.
        service = AllocationService(
            ServiceConfig(
                num_shards=1, drain_threshold=2, max_queue_depth=2,
                auto_drain=False,
            )
        )
        key = _key(0)
        service.open_session(key, "sw3")
        accepted = 0
        for index in range(20):
            try:
                service.submit(key, WRITE if index % 3 else READ)
                accepted += 1
            except ServiceOverloadError:
                service.drain_all()
        service.drain_all()
        assert service.decisions == accepted
        audit = service.audit()
        assert audit["requests_audited"] == accepted
        replay = service.replay_verify(sample=1)
        assert replay["decisions_replayed"] == accepted


class TestInstrumentation:
    def test_counters_stay_bounded_and_accurate(self):
        counters = ServiceCounters()
        service = AllocationService(
            ServiceConfig(num_shards=2), instrumentation=counters
        )
        keys = [_key(i) for i in range(6)]
        for key in keys:
            service.open_session(key, "sw3")
        plan = service.plan_block(keys)
        service.submit_block(plan, np.zeros((6, 10), dtype=bool))
        assert counters.sessions_opened == 6
        assert counters.drained_decisions == 60
        assert counters.requests == 60
        assert not counters.dispatch_log  # bounded by construction
        summary = counters.summary()
        assert summary["drained_decisions"] == 60

    def test_one_drain_hook_per_group_block(self):
        class HookCounts(Instrumentation):
            def __init__(self):
                self.calls = Counter()

            def on_run_start(self, *args):
                self.calls["on_run_start"] += 1

            def on_run_end(self, *args):
                self.calls["on_run_end"] += 1

            def on_batch(self, *args):
                self.calls["on_batch"] += 1

            def on_shard_drain(self, *args):
                self.calls["on_shard_drain"] += 1

        hooks = HookCounts()
        service = AllocationService(
            ServiceConfig(num_shards=4), instrumentation=hooks
        )
        keys = [_key(i) for i in range(60)]
        for index, key in enumerate(keys):
            service.open_session(key, ("sw3", "t1_4", "st1")[index % 3])
        plan = service.plan_block(keys)
        groups = len(plan.segments)
        assert groups > 3
        service.submit_block(plan, np.ones((60, 9), dtype=bool))
        assert hooks.calls == {"on_shard_drain": groups}
        # A queued drain of one group and a serve_one: one hook each.
        for _ in range(3):
            service.submit(keys[0], READ)
        service.drain_all()
        service.serve_one(keys[0], WRITE)
        assert hooks.calls == {"on_shard_drain": groups + 2}

    def test_metrics_reports_occupancy(self):
        service = AllocationService(ServiceConfig(num_shards=4))
        for index in range(10):
            service.open_session(_key(index), "st1")
        metrics = service.metrics()
        assert metrics["sessions"] == 10
        assert 1 <= metrics["occupied_shards"] <= 4
        assert metrics["algorithms"] == ["st1"]


class TestLoadGenerator:
    def test_rounds_are_individually_reproducible(self):
        generator = LoadGenerator(50, seed=3)
        again = LoadGenerator(50, seed=3)
        assert np.array_equal(
            generator.round_matrix(4, 20), again.round_matrix(4, 20)
        )
        assert generator.keys() == again.keys()

    def test_different_seeds_differ(self):
        a = LoadGenerator(50, seed=3).round_matrix(0, 20)
        b = LoadGenerator(50, seed=4).round_matrix(0, 20)
        assert not np.array_equal(a, b)


class TestFailoverDrill:
    def test_drill_needs_a_replica_set(self):
        service = AllocationService(ServiceConfig(num_shards=2))
        with pytest.raises(ServiceError, match="replica set"):
            service.failover_drill(0)

    def test_drill_reports_byte_identity(self):
        counters = ServiceCounters()
        service = AllocationService(
            ServiceConfig(num_shards=2, replicas=3),
            instrumentation=counters,
        )
        service.open_session(_key(0), "sw3")
        report = service.failover_drill(0, requests=150)
        assert report["byte_identical"] is True
        assert report["replicas"] == 3
        assert report["failovers"] + report["kills_skipped"] == 1
        assert counters.failover_drills == 1
        assert counters.failover_divergences == 0

    def test_drill_is_seeded_and_repeatable(self):
        service = AllocationService(ServiceConfig(num_shards=2, replicas=3))
        first = service.failover_drill(1, requests=150, seed=42)
        second = service.failover_drill(1, requests=150, seed=42)
        assert first == second

    def test_drill_rejects_bad_shard(self):
        service = AllocationService(ServiceConfig(num_shards=2, replicas=3))
        with pytest.raises(InvalidParameterError):
            service.failover_drill(7)

    def test_config_validates_replica_count(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(replicas=9)


class TestSelfTest:
    def test_small_self_test_verifies(self):
        report = run_self_test(
            400, rounds=2, ops_per_round=10, num_shards=8, replay_sample=8
        )
        assert report["decisions"] == 400 * 2 * 10
        assert report["audit"]["shards_audited"] == 8
        assert report["replay"]["sessions_replayed"] == 8
        assert report["decisions_per_sec"] > 0
        assert report["failover"] is None

    def test_self_test_with_replicas_drills_failover(self):
        report = run_self_test(
            100, rounds=1, ops_per_round=5, num_shards=4,
            replay_sample=2, audit_sessions_per_shard=2,
            replicas=3, failover_drills=2,
        )
        failover = report["failover"]
        assert failover["drills"] == 2
        assert failover["byte_identical"] is True
        assert failover["failovers"] + failover["kills_skipped"] == 2
