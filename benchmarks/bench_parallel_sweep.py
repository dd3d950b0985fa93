"""Parallel sweep executor: fan-out speedup and cache-hit latency.

Times the same synthetic sweep grid (reference-backend engine runs, so
each task carries real compute) serially, fanned across worker
processes, and served from a warm content-addressed cache.  Every
benchmark asserts the executor's byte-identity invariant, so the suite
doubles as a determinism check at benchmark sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only``.
The host's CPU count bounds any achievable fan-out speedup.  The
repository's throughput trajectory is ``bench/`` (``python bench/run.py``),
whose ``sweep-grid`` workload drives the same executor.
"""

from __future__ import annotations

import os

import pytest

from repro.costmodels import ConnectionCostModel
from repro.engine import EngineTask, ResultCache, ScheduleSpec, SweepExecutor
from repro.workload import spawn_seeds

MODEL = ConnectionCostModel()


def _grid(points: int = 24, length: int = 30_000):
    """A sweep grid of seeded ScheduleSpec tasks (built in workers)."""
    seeds = spawn_seeds(2024, points)
    return [
        EngineTask(
            "sw9",
            ScheduleSpec(0.2 + 0.6 * index / points, length, seed=seed),
            MODEL,
            backend="reference",
            warmup=200,
            tag=index,
        )
        for index, seed in enumerate(seeds)
    ]


def _identities(outcomes):
    return [outcome.identity() for outcome in outcomes]


SERIAL_IDENTITIES = _identities(SweepExecutor(jobs=1).map(_grid()))


def test_sweep_serial(benchmark):
    outcomes = benchmark.pedantic(
        lambda: SweepExecutor(jobs=1).map(_grid()), rounds=1, iterations=1
    )
    assert _identities(outcomes) == SERIAL_IDENTITIES


@pytest.mark.parametrize("jobs", [2, 4])
def test_sweep_parallel(benchmark, jobs):
    outcomes = benchmark.pedantic(
        lambda: SweepExecutor(jobs=jobs).map(_grid()), rounds=1, iterations=1
    )
    assert _identities(outcomes) == SERIAL_IDENTITIES


def test_sweep_warm_cache(benchmark, tmp_path):
    cache = ResultCache(root=tmp_path)
    SweepExecutor(jobs=1, cache=cache).map(_grid())  # populate

    def warm():
        executor = SweepExecutor(jobs=1, cache=cache)
        outcomes = executor.map(_grid())
        assert executor.cache_hits == len(outcomes)
        return outcomes

    outcomes = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert _identities(outcomes) == SERIAL_IDENTITIES
    assert all(outcome.from_cache for outcome in outcomes)


def test_concrete_schedule_transfer(benchmark):
    """One concrete 200k-request schedule shared by 8 tasks, shipped to
    the workers as a packed mask in each chunk."""
    from repro.workload import bernoulli_schedule

    schedule = bernoulli_schedule(0.4, 200_000, rng=11)
    tasks = [
        EngineTask(name, schedule, MODEL, tag=name)
        for name in ("st1", "st2", "sw1", "sw5", "sw9", "sw15", "t1_4", "t2_3")
    ]
    expected = _identities(SweepExecutor(jobs=1).map(tasks))
    jobs = min(4, max(2, os.cpu_count() or 1))
    outcomes = benchmark.pedantic(
        lambda: SweepExecutor(jobs=jobs).map(tasks), rounds=1, iterations=1
    )
    assert _identities(outcomes) == expected
