"""The parallel sweep executor: fan a grid across processes, safely.

Every claim in the paper is sweep-shaped — cost curves over
(algorithm × k/m × ω × workload × seed) grids — and every point of
such a grid is one independent, deterministic engine run.  The
:class:`SweepExecutor` exploits exactly that:

* **Process fan-out.**  Tasks are chunked across a
  ``ProcessPoolExecutor``; ``jobs=1`` is the serial degenerate case
  (no pool, no pickling) and produces *the same bytes* as any other
  job count, which the determinism suite enforces.
* **Packed schedules.**  Concrete :class:`~repro.types.Schedule`
  objects are deduplicated by content digest and cross the process
  boundary in the chunk payload as a bit-packed write mask (plus
  timestamps and object sets only when present) — a million-request
  schedule ships as 125 KB once per chunk, not as a pickled tuple of a
  million ``Request`` objects, no matter how many grid points share it.
* **Per-grid-point seeding.**  A :class:`ScheduleSpec` defers workload
  generation to the worker; specs seeded with spawned
  ``SeedSequence`` children (:mod:`repro.workload.seeding`) draw
  streams that are a pure function of the grid point, so serial and
  parallel sweeps are byte-identical.
* **Deterministic ordered merge.**  Results come back in task order
  regardless of completion order.
* **Per-worker instrumentation.**  Every worker threads a
  :class:`~repro.engine.instrumentation.CounterInstrumentation`
  through its runs; the per-worker summaries are aggregated back into
  one dispatch report (:meth:`SweepExecutor.report`).
* **Content-addressed caching.**  With a
  :class:`~repro.engine.cache.ResultCache` attached, each task is
  keyed by the digest of (schedule content, algorithm + params, cost
  model, fault spec, engine version); hits are returned byte-identical
  to a cold run without touching the pool.

Two task shapes cover the repository's sweeps: :class:`EngineTask`
(one :func:`repro.engine.run` invocation, projected into a picklable
:class:`SweepOutcome`) and :class:`FunctionTask` (any module-level
callable — experiment bodies, offline-optimal ratio measurements,
optimizer agreement trials).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import time
import typing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._version import __version__
from ..costmodels.base import CostEventKind, CostModel
from ..exceptions import InvalidParameterError
from ..types import Operation, Request, Schedule, ensure_integer, write_bits
from ..workload.poisson import bernoulli_mask, bernoulli_schedule
from ..workload.seeding import SeedLike, seed_fingerprint
from ..core.packed import pack_write_masks
from .batched import _single_kernel_thread
from .cache import CACHE_SCHEMA, ResultCache, digest_parts
from .dispatch import AUTO, BATCHED, route, run_batched_masks
from .dispatch import run as engine_run
from .instrumentation import CounterInstrumentation

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..sim.faults import FaultConfig

__all__ = [
    "EngineTask",
    "FunctionTask",
    "ScenarioSpec",
    "ScheduleSpec",
    "SweepExecutor",
    "SweepOutcome",
    "WireStats",
    "serial_executor",
]


# ---------------------------------------------------------------------------
# Task shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleSpec:
    """A workload described by parameters, generated inside the worker.

    Shipping the recipe instead of the stream keeps the task payload
    tiny and — when ``seed`` is an int or a spawned ``SeedSequence`` —
    makes the stream a pure function of the grid point, independent of
    which process executes it or in what order.
    """

    theta: float
    length: int
    seed: SeedLike = None
    kind: str = "bernoulli"

    def __post_init__(self):
        if ensure_integer(self.length, "length") < 0:
            raise InvalidParameterError(
                f"length must be >= 0, got {self.length}"
            )
        if isinstance(self.seed, np.random.Generator):
            raise InvalidParameterError(
                "a ScheduleSpec must be rebuildable; seed it with an int "
                "or a SeedSequence, not a live Generator"
            )
        if self.kind != "bernoulli":
            raise InvalidParameterError(
                f"unknown schedule spec kind {self.kind!r}"
            )

    def build(self) -> Schedule:
        """Generate the concrete schedule (identical on every build)."""
        return bernoulli_schedule(self.theta, self.length, rng=self.seed)

    def build_mask(self) -> np.ndarray:
        """The schedule's write mask without the request objects.

        Bit-identical to ``build().write_mask()`` (one shared draw
        path); the batched kernels consume masks directly, so a seeded
        sweep never pays per-request ``Request`` construction.
        """
        return bernoulli_mask(self.theta, self.length, rng=self.seed)

    def fingerprint(self) -> Optional[Tuple]:
        """Content-addressable form, or ``None`` when unseeded."""
        seed_part = seed_fingerprint(self.seed)
        if seed_part is None:
            return None
        return (self.kind, repr(float(self.theta)), int(self.length), seed_part)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered non-stationary scenario, generated inside the worker.

    The scenario-aware counterpart of :class:`ScheduleSpec`: the task
    ships the registry name plus ``(length, seed)`` and the worker
    rebuilds the exact stream through
    :func:`repro.workload.scenarios.get_scenario`.  The cache key folds
    in the scenario's configuration fingerprint, so re-registering a
    name with different parameters can never resurrect stale sweep
    results.
    """

    scenario: str
    length: int
    seed: SeedLike = None

    def __post_init__(self):
        if ensure_integer(self.length, "length") < 0:
            raise InvalidParameterError(
                f"length must be >= 0, got {self.length}"
            )
        if isinstance(self.seed, np.random.Generator):
            raise InvalidParameterError(
                "a ScenarioSpec must be rebuildable; seed it with an int "
                "or a SeedSequence, not a live Generator"
            )
        from ..workload.scenarios import get_scenario

        get_scenario(self.scenario)  # fail fast on unknown names

    def generate(self):
        """The full :class:`~repro.workload.scenarios.ScenarioRun`."""
        from ..workload.scenarios import get_scenario

        return get_scenario(self.scenario).generate(self.length, self.seed)

    def build(self) -> Schedule:
        """Generate the concrete schedule (identical on every build)."""
        return self.generate().schedule

    def build_mask(self) -> np.ndarray:
        """The schedule's write mask without the request objects."""
        return self.build().write_mask()

    def fingerprint(self) -> Optional[Tuple]:
        """Content-addressable form, or ``None`` when unseeded."""
        seed_part = seed_fingerprint(self.seed)
        if seed_part is None:
            return None
        from ..workload.scenarios import get_scenario

        return (
            "scenario",
            get_scenario(self.scenario).fingerprint(),
            int(self.length),
            seed_part,
        )


#: Spec-shaped schedule sources a task may carry instead of a concrete
#: :class:`~repro.types.Schedule`.
_SPEC_TYPES = (ScheduleSpec, ScenarioSpec)


@dataclass(frozen=True)
class EngineTask:
    """One :func:`repro.engine.run` invocation, sweep-ready.

    ``schedule`` is a concrete :class:`~repro.types.Schedule` (shipped
    to workers as packed bits) or a :class:`ScheduleSpec` /
    :class:`ScenarioSpec` (generated in the worker).
    ``capture_kinds``/``capture_wire`` opt into the heavier projections
    a caller actually needs — the per-request event-kind tuple and the
    protocol run's ledger/overhead books.  ``tag`` is an
    opaque caller label carried onto the outcome, never part of the
    cache key.
    """

    algorithm: str
    schedule: Union[Schedule, ScheduleSpec, ScenarioSpec]
    cost_model: CostModel
    backend: str = AUTO
    stream: bool = True
    warmup: int = 0
    latency: float = 0.05
    faults: Optional["FaultConfig"] = None
    replicas: int = 1
    capture_kinds: bool = False
    capture_wire: bool = False
    tag: Any = None

    def __post_init__(self):
        if not isinstance(self.algorithm, str):
            raise InvalidParameterError(
                "EngineTask takes a short algorithm name (a configured "
                "instance cannot be content-addressed or cheaply shipped "
                f"to a worker); got {self.algorithm!r}"
            )
        ensure_integer(self.replicas, "replicas")


@dataclass(frozen=True)
class FunctionTask:
    """An arbitrary module-level callable as a sweep task.

    The function, its arguments and its return value must be picklable.
    Caching is opt-in via ``cache_key``: the caller names the content
    parts that determine the result (the executor adds the schema and
    package version).  ``None`` means never cached.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    cache_key: Optional[Tuple[Any, ...]] = None
    tag: Any = None

    @classmethod
    def call(cls, fn: Callable[..., Any], *args: Any,
             cache_key: Optional[Tuple[Any, ...]] = None,
             tag: Any = None, **kwargs: Any) -> "FunctionTask":
        """Convenience constructor mirroring the call syntax."""
        return cls(fn=fn, args=args, kwargs=tuple(sorted(kwargs.items())),
                   cache_key=cache_key, tag=tag)


SweepTask = Union[EngineTask, FunctionTask]


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireStats:
    """Protocol-run observables projected into picklable form."""

    #: (connections, data_messages, control_messages) — the logical book.
    breakdown: Tuple[int, int, int]
    #: The transport-overhead book (ARQ retransmissions, acks, ...).
    overhead: Dict[str, int]
    resyncs_verified: int
    logical_messages: int
    final_version: int
    #: SC replica count the run executed against (1 = single SC).
    replicas: int = 1
    #: Primary promotions during the run.
    failovers: int = 0
    #: Replica serving as primary when the run ended.
    final_primary: Optional[int] = None
    #: Simulated seconds from each primary loss to its successor serving.
    failover_latencies: Tuple[float, ...] = ()
    #: (epoch, winner) per election that promoted a primary.
    election_history: Tuple[Tuple[int, int], ...] = ()

    @property
    def overhead_messages(self) -> int:
        """Transmissions that exist only because the link is unreliable."""
        if "overhead_messages" in self.overhead:
            return self.overhead["overhead_messages"]
        return (self.overhead.get("retransmissions", 0)
                + self.overhead.get("acks", 0)
                + self.overhead.get("handshakes", 0))


@dataclass
class SweepOutcome:
    """The picklable projection of one engine run.

    Everything except ``elapsed_seconds`` and ``from_cache`` is a pure
    function of the task — that invariant is what "cache hits are
    byte-identical to a cold run" and "parallel equals serial" mean,
    and :meth:`identity` is the tuple the determinism suite compares.
    """

    algorithm_name: str
    backend_name: str
    requests: int
    warmup: int
    total_cost: float
    event_counts: Dict[CostEventKind, int]
    scheme_changes: Optional[int]
    dispatch_reason: str
    diagnostic: Optional[str] = None
    event_kinds: Optional[Tuple[CostEventKind, ...]] = None
    wire: Optional[WireStats] = None
    tag: Any = None
    elapsed_seconds: float = 0.0
    from_cache: bool = False

    @property
    def counted_requests(self) -> int:
        return self.requests - self.warmup

    @property
    def mean_cost(self) -> float:
        counted = self.counted_requests
        return self.total_cost / counted if counted else 0.0

    def identity(self) -> Tuple:
        """Every run-determined field, for byte-identity comparisons."""
        return (
            self.algorithm_name,
            self.backend_name,
            self.requests,
            self.warmup,
            self.total_cost,
            tuple(sorted(self.event_counts.items(),
                         key=lambda kv: kv[0].value)),
            self.scheme_changes,
            self.dispatch_reason,
            self.diagnostic,
            self.event_kinds,
            self.wire,
            self.tag,
        )


# ---------------------------------------------------------------------------
# Fingerprints / cache keys
# ---------------------------------------------------------------------------


def _model_fingerprint(model: CostModel) -> Tuple:
    state = vars(model) if hasattr(model, "__dict__") else {}
    return (
        type(model).__module__,
        type(model).__qualname__,
        tuple(sorted(state.items())),
    )


def _task_key(task: SweepTask) -> Optional[str]:
    """The content-addressed cache key, or ``None`` (uncacheable)."""
    if isinstance(task, FunctionTask):
        if task.cache_key is None:
            return None
        return digest_parts("function-task", CACHE_SCHEMA, __version__,
                            task.cache_key)
    if isinstance(task.schedule, _SPEC_TYPES):
        schedule_part: Optional[Tuple] = task.schedule.fingerprint()
        if schedule_part is None:
            return None
        schedule_part = ("spec",) + schedule_part
    else:
        schedule_part = ("content", task.schedule.content_digest())
    return digest_parts(
        "engine-task",
        CACHE_SCHEMA,
        __version__,
        schedule_part,
        task.algorithm,
        _model_fingerprint(task.cost_model),
        task.backend,
        task.stream,
        task.warmup,
        repr(float(task.latency)),
        task.faults,
        task.replicas,
        task.capture_kinds,
        task.capture_wire,
    )


# ---------------------------------------------------------------------------
# Task execution (shared by the serial path and the workers)
# ---------------------------------------------------------------------------


def _project_result(task: EngineTask, result, elapsed: float) -> SweepOutcome:
    """Project an :class:`EngineResult` into a picklable outcome."""
    kinds: Optional[Tuple[CostEventKind, ...]] = None
    if task.capture_kinds:
        kinds = result.event_kinds
        if kinds is None and result.raw is not None:
            kinds = tuple(result.raw.event_kinds)
    wire: Optional[WireStats] = None
    if task.capture_wire and result.raw is not None:
        raw = result.raw
        breakdown = raw.ledger.total_breakdown()
        wire = WireStats(
            breakdown=(
                breakdown.connections,
                breakdown.data_messages,
                breakdown.control_messages,
            ),
            overhead=dict(raw.overhead.as_dict()),
            resyncs_verified=raw.resyncs_verified,
            logical_messages=raw.ledger.logical_message_count(),
            final_version=raw.final_version,
            replicas=raw.replicas,
            failovers=raw.failovers,
            final_primary=raw.final_primary,
            failover_latencies=tuple(raw.failover_latencies),
            election_history=tuple(raw.election_history),
        )
    return SweepOutcome(
        algorithm_name=result.algorithm_name,
        backend_name=result.backend_name,
        requests=result.requests,
        warmup=result.warmup,
        total_cost=result.total_cost,
        event_counts=dict(result.event_counts),
        scheme_changes=result.scheme_changes,
        dispatch_reason=result.dispatch_reason,
        diagnostic=(str(result.diagnostic)
                    if result.diagnostic is not None else None),
        event_kinds=kinds,
        wire=wire,
        tag=task.tag,
        elapsed_seconds=elapsed,
    )


def _execute_engine_task(
    task: EngineTask, schedule: Schedule, instrumentation
) -> SweepOutcome:
    started = time.perf_counter()
    result = engine_run(
        task.algorithm,
        schedule,
        task.cost_model,
        backend=task.backend,
        stream=task.stream,
        warmup=task.warmup,
        latency=task.latency,
        faults=task.faults,
        replicas=task.replicas,
        instrumentation=instrumentation,
    )
    return _project_result(task, result, time.perf_counter() - started)


def _is_batchable(task: EngineTask) -> bool:
    """Whether the task joins a kernel group.

    Exactly when auto dispatch would route the lone run to the batched
    backend: :func:`~repro.engine.dispatch.route` decides, so a grouped
    task reports the backend and dispatch reason its lone
    :func:`repro.engine.run` would.  Batchable tasks take the batched
    path *always* — even alone in their group — so a task's outcome
    never depends on which other tasks shared its chunk.
    """
    if task.backend != AUTO:
        return False
    chosen, _reason = route(
        task.algorithm.strip().lower(),
        faults=task.faults,
        replicas=task.replicas,
    )
    return chosen is BATCHED


def _execute_engine_tasks(entries, counters) -> List[Tuple[int, SweepOutcome]]:
    """Execute engine tasks, batching what the kernels can take.

    ``entries`` is a list of ``(index, task, source)`` where ``source``
    is ``(schedule_thunk, mask_thunk, length)`` — lazy accessors so a
    batchable task resolves only its write mask (never building
    ``Request`` objects) while a fallback task materializes the full
    schedule.  Returns ``(index, outcome)`` pairs in entry order.

    Streamed groups hand the kernels a packed (8-per-byte) mask matrix
    so they take the popcount counts tier; materializing groups keep
    the bool matrix (their per-request codes would unpack it right
    back).
    """
    outcomes: Dict[int, SweepOutcome] = {}
    groups: Dict[Tuple, List[Tuple[int, EngineTask, Callable]]] = {}
    for index, task, (schedule_thunk, mask_thunk, length) in entries:
        if _is_batchable(task):
            key = (task.algorithm.strip().lower(), length,
                   task.warmup, task.stream)
            groups.setdefault(key, []).append((index, task, mask_thunk))
        else:
            outcomes[index] = _execute_engine_task(
                task, schedule_thunk(), counters
            )
    for (name, length, warmup, stream), members in groups.items():
        writes = np.empty((len(members), length), dtype=bool)
        for row, (_index, _task, mask_thunk) in enumerate(members):
            writes[row] = mask_thunk()
        results = run_batched_masks(
            name,
            pack_write_masks(writes) if stream else writes,
            [task.cost_model for _index, task, _thunk in members],
            warmup=warmup,
            stream=stream,
            instrumentation=counters,
        )
        for (index, task, _thunk), result in zip(members, results):
            outcomes[index] = _project_result(
                task, result, result.elapsed_seconds
            )
    return [(index, outcomes[index]) for index, _task, _source in entries]


class _WireSchedule:
    """A concrete schedule in its chunk-payload form.

    The write mask travels bit-packed (1 bit a request); timestamps
    travel only when some request carries one, and object sets only
    when some request names objects.  It answers the same
    ``build()`` / ``build_mask()`` / ``length`` surface as the specs.
    ``build()`` is memoized, so the fallback tasks of one chunk that
    share a schedule rebuild its ``Request`` objects once.
    """

    def __init__(self, schedule: Schedule):
        self.length = len(schedule)
        self.bits = np.packbits(write_bits(schedule))
        self.timestamps = None
        if any(request.timestamp for request in schedule):
            self.timestamps = np.fromiter(
                (request.timestamp for request in schedule),
                dtype=np.float64,
                count=self.length,
            )
        self.objects = None
        if any(request.objects for request in schedule):
            self.objects = tuple(request.objects for request in schedule)
        self._built: Optional[Schedule] = None

    def build_mask(self) -> np.ndarray:
        return np.unpackbits(self.bits, count=self.length).view(bool)

    def build(self) -> Schedule:
        if self._built is None:
            mask = self.build_mask()
            times = (self.timestamps.tolist() if self.timestamps is not None
                     else itertools.repeat(0.0))
            objects = (self.objects if self.objects is not None
                       else itertools.repeat(()))
            schedule = Schedule(
                Request(Operation.WRITE if is_write else Operation.READ,
                        timestamp, names)
                for is_write, timestamp, names in zip(
                    mask.tolist(), times, objects
                )
            )
            schedule._prefill_write_mask(mask)
            self._built = schedule
        return self._built


def _task_sources(schedule) -> Tuple[Callable, Callable, int]:
    """(schedule thunk, mask thunk, length) for any task schedule.

    The mask thunk never builds ``Request`` objects, so a batched task
    resolves only its write mask; fallback tasks call the schedule
    thunk.
    """
    if isinstance(schedule, Schedule):
        return (lambda: schedule), schedule.write_mask, len(schedule)
    return schedule.build, schedule.build_mask, schedule.length


def _run_chunk(items):
    """Execute one chunk of ``(index, task)`` pairs in this process.

    The workers and the serial path both run it.  Returns the
    ``(index, result)`` pairs and this chunk's instrumentation stats.
    """
    counters = CounterInstrumentation()
    started = time.perf_counter()
    results = []
    engine_entries = []
    calls = 0
    for index, task in items:
        if isinstance(task, FunctionTask):
            calls += 1
            results.append((index, task.fn(*task.args, **dict(task.kwargs))))
        else:
            engine_entries.append((index, task, _task_sources(task.schedule)))
    results.extend(_execute_engine_tasks(engine_entries, counters))
    stats = counters.summary()
    stats["pid"] = os.getpid()
    stats["tasks"] = len(items)
    stats["function_calls"] = calls
    stats["wall_seconds"] = time.perf_counter() - started
    return results, stats


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class SweepExecutor:
    """Deterministic parallel map over sweep tasks, with caching.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs everything in
        process — the serial degenerate case every parallel run must
        match byte-for-byte.
    cache:
        A :class:`~repro.engine.cache.ResultCache`, or ``None`` to run
        every task cold.
    chunk_size:
        Tasks per worker chunk; default balances ~4 chunks per worker.

    In process, large batched launches fan their row tiles across the
    cores; worker processes run one kernel thread each, since ``jobs``
    already owns the cores.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
    ):
        if ensure_integer(jobs, "jobs") < 1:
            raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.chunk_size = _ensure_chunk_size(chunk_size)
        self.tasks = 0
        self.executed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.workers: Dict[int, Dict[str, Any]] = {}
        #: Per-index cache flags of the most recent :meth:`map` call.
        self.last_map_cached: List[bool] = []

    # -- public API ----------------------------------------------------

    def map(
        self,
        tasks: Sequence[SweepTask],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Execute ``tasks``; results in task order.

        :class:`EngineTask` items yield :class:`SweepOutcome`;
        :class:`FunctionTask` items yield their return value.  A task
        failure raises (after in-flight chunks drain) — a sweep is a
        reproduction artifact, and a silently missing grid point would
        corrupt it.
        """
        chunk_size = _ensure_chunk_size(chunk_size)
        tasks = list(tasks)
        results: List[Any] = [None] * len(tasks)
        cached = [False] * len(tasks)
        keys: List[Optional[str]] = [None] * len(tasks)
        pending: List[int] = []
        for index, task in enumerate(tasks):
            key = _task_key(task) if self.cache is not None else None
            keys[index] = key
            if key is not None:
                hit = self.cache.get(key)
                if hit is not ResultCache.MISS:
                    results[index] = _revive(task, hit)
                    cached[index] = True
                    continue
            pending.append(index)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                self._execute_serial(tasks, pending, results)
            else:
                self._execute_parallel(tasks, pending, results, chunk_size)
            if self.cache is not None:
                for index in pending:
                    if keys[index] is not None:
                        self.cache.put(keys[index],
                                       _strip_for_cache(results[index]))

        self.tasks += len(tasks)
        self.executed += len(pending)
        hits = sum(cached)
        self.cache_hits += hits
        self.cache_misses += sum(
            1 for index in pending if keys[index] is not None
        )
        self.last_map_cached = cached
        return results

    def report(self) -> Dict[str, Any]:
        """Executor totals plus the aggregated per-worker dispatch report."""
        merged = _merge_summaries(self.workers.values())
        return {
            "jobs": self.jobs,
            "tasks": self.tasks,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "dispatch": merged,
            "workers": {pid: dict(stats)
                        for pid, stats in sorted(self.workers.items())},
        }

    # -- execution paths -----------------------------------------------

    def _execute_serial(self, tasks, pending, results) -> None:
        chunk_results, stats = _run_chunk(
            [(index, tasks[index]) for index in pending]
        )
        for index, outcome in chunk_results:
            results[index] = outcome
        self._absorb_worker(stats)

    def _execute_parallel(self, tasks, pending, results, chunk_size) -> None:
        items = _pack(tasks, pending)
        size = chunk_size or self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (self.jobs * 4)))
        chunks = [items[start:start + size]
                  for start in range(0, len(items), size)]
        workers = min(self.jobs, len(chunks))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_single_kernel_thread
        ) as pool:
            outstanding = {pool.submit(_run_chunk, chunk) for chunk in chunks}
            failure: Optional[BaseException] = None
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    try:
                        chunk_results, stats = future.result()
                    except BaseException as error:
                        failure = failure or error
                        continue
                    for index, outcome in chunk_results:
                        results[index] = outcome
                    self._absorb_worker(stats)
            if failure is not None:
                raise failure

    def _absorb_worker(self, stats: Dict[str, Any]) -> None:
        pid = stats.get("pid", 0)
        known = self.workers.get(pid)
        if known is None:
            self.workers[pid] = dict(stats)
        else:
            self.workers[pid] = _merge_summaries([known, stats], pid=pid)


def _ensure_chunk_size(chunk_size: Optional[int]) -> Optional[int]:
    """``chunk_size`` validated: ``None`` (automatic) or an int >= 1."""
    if chunk_size is not None and ensure_integer(chunk_size, "chunk_size") < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    return chunk_size


def _pack(tasks, pending) -> List[Tuple[int, SweepTask]]:
    """The ``(index, task)`` payload of each pending task.

    Each concrete schedule is swapped for one :class:`_WireSchedule`
    per distinct content digest, so pickle's memo sends it once per
    chunk however many of the chunk's tasks share it.
    """
    wires: Dict[str, _WireSchedule] = {}
    items = []
    for index in pending:
        task = tasks[index]
        if isinstance(task, EngineTask) and isinstance(task.schedule,
                                                       Schedule):
            digest = task.schedule.content_digest()
            if digest not in wires:
                wires[digest] = _WireSchedule(task.schedule)
            task = dataclasses.replace(task, schedule=wires[digest])
        items.append((index, task))
    return items


def _revive(task: SweepTask, payload: Any) -> Any:
    """A cache hit, re-labeled for the requesting task."""
    if isinstance(payload, SweepOutcome):
        tag = task.tag if isinstance(task, EngineTask) else None
        return dataclasses.replace(payload, tag=tag, from_cache=True)
    return payload


def _strip_for_cache(payload: Any) -> Any:
    """Drop per-call labels before storing (tags are not content)."""
    if isinstance(payload, SweepOutcome):
        return dataclasses.replace(payload, tag=None, from_cache=False)
    return payload


_COUNTER_KEYS = ("runs", "requests", "total_cost", "wall_seconds",
                 "batches", "batched_runs", "tasks", "function_calls")


def _merge_summaries(summaries, pid: Optional[int] = None) -> Dict[str, Any]:
    """Sum instrumentation summaries (counters add, mappings merge)."""
    merged: Dict[str, Any] = {
        key: 0 for key in _COUNTER_KEYS
    }
    merged["backend_runs"] = {}
    merged["event_counts"] = {}
    merged["fallbacks"] = []
    for summary in summaries:
        for key in _COUNTER_KEYS:
            merged[key] += summary.get(key, 0)
        for backend, count in summary.get("backend_runs", {}).items():
            merged["backend_runs"][backend] = (
                merged["backend_runs"].get(backend, 0) + count
            )
        for kind, count in summary.get("event_counts", {}).items():
            merged["event_counts"][kind] = (
                merged["event_counts"].get(kind, 0) + count
            )
        merged["fallbacks"].extend(summary.get("fallbacks", ()))
    if pid is not None:
        merged["pid"] = pid
    return merged


def serial_executor() -> SweepExecutor:
    """A fresh uncached serial executor (the ``jobs=1`` degenerate case)."""
    return SweepExecutor(jobs=1, cache=None)
