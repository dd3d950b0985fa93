"""The parallel sweep executor's determinism contract.

Parallel must equal serial byte-for-byte — with generated and concrete
schedules, with chaos runs under fault injection, through the
content-addressed cache, and at the run-all and CLI layers.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.engine import (
    EngineTask,
    FunctionTask,
    ResultCache,
    ScenarioSpec,
    ScheduleSpec,
    SweepExecutor,
    serial_executor,
)
from repro.engine.parallel import _pack, _task_key, _WireSchedule
from repro.exceptions import InvalidParameterError
from repro.sim.faults import FaultConfig
from repro.types import Operation, Request, Schedule
from repro.workload import PoissonWorkload, bernoulli_schedule, spawn_seeds

MODEL = ConnectionCostModel()


def _spec_grid(count=6, length=1_500, warmup=100):
    return [
        EngineTask(
            "sw9",
            ScheduleSpec(0.2 + 0.1 * index, length, seed=seed),
            MODEL,
            warmup=warmup,
            tag=index,
        )
        for index, seed in enumerate(spawn_seeds(7, count))
    ]


def _identities(outcomes):
    return [outcome.identity() for outcome in outcomes]


class TestSeeding:
    def test_spawned_children_are_positional(self):
        first = spawn_seeds(42, 4)
        second = spawn_seeds(42, 4)
        for a, b in zip(first, second):
            assert np.random.default_rng(a).random() == (
                np.random.default_rng(b).random()
            )

    def test_spawn_from_generator_rejected(self):
        with pytest.raises(InvalidParameterError):
            spawn_seeds(np.random.default_rng(1), 2)

    def test_spec_rejects_live_generator(self):
        with pytest.raises(InvalidParameterError):
            ScheduleSpec(0.3, 100, seed=np.random.default_rng(1))

    @pytest.mark.parametrize("length", [-3, 2.5, True, "4"])
    def test_spec_rejects_bad_length(self, length):
        with pytest.raises(InvalidParameterError, match="length"):
            ScheduleSpec(0.3, length, seed=1)

    def test_spec_accepts_numpy_and_zero_lengths(self):
        assert len(ScheduleSpec(0.3, np.int64(5), seed=1).build()) == 5
        assert len(ScheduleSpec(0.3, 0, seed=1).build()) == 0

    @pytest.mark.parametrize("length", [-3, 2.5, True, "4"])
    def test_scenario_spec_rejects_bad_length(self, length):
        with pytest.raises(InvalidParameterError, match="length"):
            ScenarioSpec("diurnal", length, seed=1)

    def test_scenario_spec_accepts_numpy_lengths(self):
        assert len(ScenarioSpec("diurnal", np.int64(50), seed=1).build()) == 50

    def test_spec_build_is_reproducible(self):
        spec = ScheduleSpec(0.3, 500, seed=spawn_seeds(3, 1)[0])
        assert spec.build().to_string() == spec.build().to_string()


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_spec_grid(self, jobs):
        tasks = _spec_grid()
        assert _identities(serial_executor().map(tasks)) == _identities(
            SweepExecutor(jobs=jobs).map(tasks)
        )

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_concrete_schedules(self, jobs):
        schedule = bernoulli_schedule(0.4, 3_000, rng=11)
        tasks = [
            EngineTask(name, schedule, MODEL, tag=name)
            for name in ("st1", "st2", "sw1", "sw9", "t1_4", "t2_3")
        ]
        serial = serial_executor().map(tasks)
        parallel = SweepExecutor(jobs=jobs).map(tasks)
        assert _identities(serial) == _identities(parallel)
        # The auto dispatch decision must survive the worker
        # boundary too.
        assert [o.backend_name for o in serial] == [
            o.backend_name for o in parallel
        ]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_chaos_runs_with_faults(self, jobs):
        schedule = bernoulli_schedule(0.35, 400, rng=2008)
        tasks = [
            EngineTask(
                "sw5",
                schedule,
                MODEL,
                faults=FaultConfig(
                    drop=rate, delay_jitter=0.02, seed=int(rate * 100),
                    episodes=((1.0, 4.0),),
                ),
                capture_kinds=True,
                capture_wire=True,
                tag=rate,
            )
            for rate in (0.02, 0.05, 0.1, 0.2)
        ]
        serial = serial_executor().map(tasks)
        parallel = SweepExecutor(jobs=jobs).map(tasks)
        assert _identities(serial) == _identities(parallel)
        assert all(o.wire is not None for o in parallel)
        assert all(o.event_kinds is not None for o in parallel)

    def test_timestamped_schedules_cross_the_pool(self):
        schedule = PoissonWorkload(3.0, 1.0, seed=5).generate(600)
        tasks = [
            EngineTask(name, schedule, MODEL, backend="protocol", tag=name)
            for name in ("sw1", "sw5", "st1")
        ]
        assert _identities(serial_executor().map(tasks)) == _identities(
            SweepExecutor(jobs=2).map(tasks)
        )

    def test_multi_object_schedules(self):
        schedule = _multi_object_schedule()
        tasks = [
            EngineTask(name, schedule, MODEL, backend=backend,
                       tag=(name, backend))
            for name in ("sw1", "sw5", "t1_2")
            for backend in ("auto", "reference", "protocol")
        ]
        assert _identities(serial_executor().map(tasks)) == _identities(
            SweepExecutor(jobs=2).map(tasks)
        )

    def test_message_model_tasks(self):
        tasks = [
            dataclasses.replace(task, cost_model=MessageCostModel(0.8))
            for task in _spec_grid()
        ]
        assert _identities(serial_executor().map(tasks)) == _identities(
            SweepExecutor(jobs=2).map(tasks)
        )

    def test_function_tasks_ordered(self):
        tasks = [
            FunctionTask.call(divmod, index, 3) for index in range(10)
        ]
        assert SweepExecutor(jobs=2).map(tasks) == [
            divmod(index, 3) for index in range(10)
        ]

    def test_worker_failure_propagates(self):
        tasks = [FunctionTask.call(int, "not a number")]
        with pytest.raises(ValueError):
            SweepExecutor(jobs=1).map(tasks)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            SweepExecutor(jobs=0)

    @pytest.mark.parametrize("kwargs", [
        {"jobs": 1.5}, {"jobs": True}, {"jobs": "2"},
        {"chunk_size": 0}, {"chunk_size": 2.5}, {"chunk_size": True},
    ])
    def test_non_integer_counts_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(InvalidParameterError, match=name):
            SweepExecutor(**kwargs)

    def test_map_rejects_non_integer_chunk_size(self):
        with pytest.raises(InvalidParameterError, match="chunk_size"):
            SweepExecutor(jobs=2).map(_spec_grid(count=2), chunk_size=1.5)


def _multi_object_schedule(length=600, seed=3):
    rng = np.random.default_rng(seed)
    names = (("x",), ("x", "y"), ("y",))
    return Schedule(
        Request(
            Operation.WRITE if rng.random() < 0.4 else Operation.READ,
            objects=names[rng.integers(len(names))],
        )
        for _ in range(length)
    )


class TestWireSchedule:
    @pytest.mark.parametrize("make", [
        lambda: bernoulli_schedule(0.3, 1_001, rng=4),
        lambda: PoissonWorkload(3.0, 1.0, seed=5).generate(600),
        _multi_object_schedule,
        lambda: Schedule(),
    ], ids=["bernoulli", "timestamped", "multi-object", "empty"])
    def test_round_trip(self, make):
        schedule = make()
        wire = pickle.loads(pickle.dumps(_WireSchedule(schedule)))
        assert wire.length == len(schedule)
        assert np.array_equal(wire.build_mask(), schedule.write_mask())
        rebuilt = wire.build()
        assert rebuilt.content_digest() == schedule.content_digest()
        assert list(rebuilt) == list(schedule)
        assert wire.build() is rebuilt

    def test_shared_schedule_ships_once_per_chunk(self):
        """Eight tasks sharing a 200k-request schedule pickle to one
        packed mask (25 KB), not 200k ``Request`` objects."""
        schedule = bernoulli_schedule(0.4, 200_000, rng=11)
        tasks = [
            EngineTask(name, schedule, MODEL, tag=name)
            for name in ("st1", "st2", "sw1", "sw5", "sw9", "sw15",
                         "t1_4", "t2_3")
        ]
        payload = pickle.dumps(_pack(tasks, range(len(tasks))))
        assert len(payload) < 64 * 1024


class TestInstrumentationAggregation:
    def test_report_totals_match_serial(self):
        tasks = _spec_grid()
        serial = SweepExecutor(jobs=1)
        serial.map(tasks)
        parallel = SweepExecutor(jobs=2)
        parallel.map(tasks)
        a, b = serial.report(), parallel.report()
        for key in ("runs", "requests", "total_cost", "backend_runs",
                    "event_counts"):
            assert a["dispatch"][key] == b["dispatch"][key], key
        assert b["tasks"] == len(tasks)
        assert b["executed"] == len(tasks)


class TestCachedSweeps:
    def test_hit_identical_to_cold(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        tasks = _spec_grid()
        executor = SweepExecutor(jobs=1, cache=cache)
        cold = executor.map(tasks)
        warm = executor.map(tasks)
        assert executor.cache_hits == len(tasks)
        assert _identities(cold) == _identities(warm)
        assert not any(o.from_cache for o in cold)
        assert all(o.from_cache for o in warm)

    def test_parallel_warm_hits_skip_the_pool(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        tasks = _spec_grid()
        SweepExecutor(jobs=2, cache=cache).map(tasks)
        warm = SweepExecutor(jobs=2, cache=cache)
        outcomes = warm.map(tasks)
        assert warm.executed == 0
        assert all(o.from_cache for o in outcomes)

    def test_key_includes_algorithm_and_model(self):
        schedule = bernoulli_schedule(0.3, 200, rng=1)
        base = EngineTask("sw9", schedule, MODEL)
        assert _task_key(base) != _task_key(
            dataclasses.replace(base, algorithm="sw5")
        )
        assert _task_key(base) != _task_key(
            dataclasses.replace(base, cost_model=MessageCostModel(0.5))
        )
        assert _task_key(base) != _task_key(
            dataclasses.replace(base, faults=FaultConfig(drop=0.1, seed=2))
        )

    def test_tag_never_in_key(self):
        schedule = bernoulli_schedule(0.3, 200, rng=1)
        assert _task_key(EngineTask("sw9", schedule, MODEL, tag="a")) == (
            _task_key(EngineTask("sw9", schedule, MODEL, tag="b"))
        )

    def test_unseeded_spec_uncacheable(self):
        task = EngineTask("sw9", ScheduleSpec(0.3, 100, seed=None), MODEL)
        assert _task_key(task) is None

    def test_hit_carries_requesting_tag(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        schedule = bernoulli_schedule(0.3, 200, rng=1)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.map([EngineTask("sw9", schedule, MODEL, tag="first")])
        [hit] = executor.map([EngineTask("sw9", schedule, MODEL, tag="second")])
        assert hit.from_cache and hit.tag == "second"


class TestRunAllParallel:
    IDS = ["fig1", "t-multi", "t-faults"]

    def _strip(self, results):
        return [
            {
                key: value
                for key, value in result.to_dict().items()
                if key not in ("elapsed_seconds", "from_cache")
            }
            for result in results
        ]

    def test_jobs2_identical_to_serial(self):
        from repro.experiments import run_all

        serial = run_all(quick=True, only=self.IDS)
        parallel = run_all(quick=True, jobs=2, only=self.IDS)
        assert self._strip(serial) == self._strip(parallel)

    def test_cache_hit_identical_to_cold(self, tmp_path):
        from repro.experiments import run_all

        cache = ResultCache(root=tmp_path)
        cold = run_all(quick=True, cache=cache, only=self.IDS)
        warm = run_all(quick=True, cache=cache, only=self.IDS)
        assert self._strip(cold) == self._strip(warm)
        assert all(result.from_cache for result in warm)
        assert not any(result.from_cache for result in cold)

    def test_unknown_only_id_rejected(self):
        from repro.exceptions import UnknownExperimentError
        from repro.experiments import run_all

        with pytest.raises(UnknownExperimentError):
            run_all(quick=True, only=["no-such-experiment"])


class TestCLIParallel:
    def test_run_all_summary_counts(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(
            "repro.experiments.registry._EXPERIMENTS",
            [cls for cls in __import__(
                "repro.experiments.registry", fromlist=["_EXPERIMENTS"]
            )._EXPERIMENTS if cls.experiment_id in ("fig1", "t-multi")],
        )
        assert main(["run-all", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits / 2 misses" in out
        assert main(["run-all", "--quick", "--jobs", "2"]) == 0
        assert "cache: 2 hits / 0 misses" in capsys.readouterr().out

    def test_run_all_no_cache_flag(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(
            "repro.experiments.registry._EXPERIMENTS",
            [cls for cls in __import__(
                "repro.experiments.registry", fromlist=["_EXPERIMENTS"]
            )._EXPERIMENTS if cls.experiment_id == "fig1"],
        )
        assert main(["run-all", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert ResultCache(root=tmp_path).stats().entries == 0

    def test_simulate_replicates(self, capsys):
        from repro.cli import main

        assert main([
            "simulate", "sw9", "--theta", "0.3", "--length", "500",
            "--seed", "9", "--replicates", "3", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "replicates     : 3 (jobs=2)" in out
        assert out.count("replicate ") == 3

    def test_simulate_single_replicate_output_shape(self, capsys):
        from repro.cli import main

        assert main([
            "simulate", "sw9", "--theta", "0.3", "--length", "500",
            "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "total cost     :" in out
        assert "scheme changes :" in out
