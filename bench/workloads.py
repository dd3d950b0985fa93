"""The benchmark's five workloads, one per process.

``bench/run.py`` starts ``python -m bench.workloads`` from the repository
root with ``src`` on ``PYTHONPATH``; the child prints its result as one
JSON line.  Each workload builds its inputs from ``--seed`` alone (never
through the program's own load generator), times only the calls into the
program, and checks the program's outputs after the timed region.  The
program runs through its public entry points at their defaults: no
thread counts, caches or other knobs are passed, so the only threads
besides this one are the program's own kernel-tile pool.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import engine
from repro.core import make_algorithm
from repro.costmodels import ConnectionCostModel
from repro.engine import EngineTask, ScheduleSpec, SweepExecutor
from repro.exceptions import ReproError
from repro.service import AllocationService, SessionKey
from repro.sim.faults import FaultConfig
from repro.sim.runner import simulate_protocol
from repro.types import Operation
from repro.workload import bernoulli_schedule, get_scenario

from .trace import Recorder, Span, summarize

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"

#: The seed whose output digests are pinned in ``digests.json``.
DEFAULT_SEED = 1

#: Set-up runs at least this often per process; ``setup_s`` is their
#: median.
SETUP_REPEATS = 3

#: The eight-family session mix of the service workloads.
SERVICE_FAMILIES = ("sw9", "sw5", "sw3", "sw1", "t1_4", "t2_4", "st1", "st2")

#: The six families of the sweep grid.
SWEEP_FAMILIES = ("sw9", "sw3", "sw1", "t1_4", "t2_4", "st1")

#: Kill horizon per request of the failover schedules.  A request of
#: Bernoulli(0.6) on sw3 takes about 0.04 simulated seconds, so both
#: primary kills land inside the first half of the run.
KILL_HORIZON_PER_REQUEST = 0.02

#: Failover overhead frames that exist only because leadership changed
#: hands (a clean replica set sends none of them).
TRANSITION_FRAMES = (
    "election_frames", "catchup_frames", "breaker_probes",
    "client_retries", "handshakes",
)

SIZES = {
    "full": {
        "sessions": 100_000, "ops_per_round": 50, "digest_rounds": 2,
        "info_sample": 4096, "arrival_rate": 4000.0, "digest_arrivals": 4096,
        "tasks": 256, "task_length": 250_000, "task_warmup": 500,
        "min_passes": 2, "scenario_runs": 8, "scenario_length": 100_000,
        "chaos_seeds": 80, "chaos_requests": 2000, "setup_min_s": 1.0,
    },
    "tiny": {
        "sessions": 2_000, "ops_per_round": 20, "digest_rounds": 2,
        "info_sample": 256, "arrival_rate": 2000.0, "digest_arrivals": 256,
        "tasks": 24, "task_length": 20_000, "task_warmup": 500,
        "min_passes": 2, "scenario_runs": 2, "scenario_length": 10_000,
        "chaos_seeds": 4, "chaos_requests": 200, "setup_min_s": 0.02,
    },
}


@dataclass
class Measurement:
    """What one workload run observed."""

    setup_s: List[float] = field(default_factory=list)
    #: Peak resident set after set-up and the fixed first ops.
    peak_rss_mb: float = 0.0
    #: Per op: seconds from its due time to its completion.
    op_s: List[float] = field(default_factory=list)
    #: Per op: its due time (``perf_counter`` clock).
    due: List[float] = field(default_factory=list)
    #: Per op: decisions it made.
    op_decisions: List[int] = field(default_factory=list)
    #: Set by open-loop workloads: decisions over the whole run's wall.
    achieved_rate: Optional[float] = None
    gates: int = 0
    failures: List[str] = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    #: Per-layer counts only the workload can see (not from spans).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Extra printed metrics: name -> (value, unit, better, bound).
    extra: Dict[str, tuple] = field(default_factory=dict)

    def fold(self, *values) -> None:
        """Add output values to the digest."""
        for value in values:
            self.digest.update(json.dumps(
                value, sort_keys=True, default=_plain
            ).encode())

    def gate(self, name: str, check: Callable[[], Optional[str]]) -> None:
        """Run one correctness check; a message or typed error fails it."""
        self.gates += 1
        try:
            problem = check()
        except ReproError as error:
            problem = f"{type(error).__name__}: {error}"
        if problem:
            self.failures.append(f"{name}: {problem}")


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value)


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


class Context:
    """A workload's seed, sizes, time budget and (traced runs) recorder."""

    def __init__(self, seed: int, size: dict, seconds: float,
                 recorder: Optional[Recorder]):
        self.seed = seed
        self.size = size
        self.seconds = seconds
        self.recorder = recorder

    def rng(self, *stream: int) -> np.random.Generator:
        """An input stream that depends only on the seed and ``stream``."""
        return np.random.default_rng([self.seed, *stream])

    def span(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def set_op(self, op: Optional[int]) -> None:
        if self.recorder is not None:
            self.recorder.op = op

    def setup(self, m: Measurement, build: Callable[[], object]):
        """Run ``build`` repeatedly, timing each; keep the last.

        A cheap set-up repeats until ``setup_min_s`` have passed, so its
        median rests on many samples.
        """
        state = None
        while (len(m.setup_s) < SETUP_REPEATS
               or sum(m.setup_s) < self.size["setup_min_s"]):
            state = None  # free the previous build before the next
            started = time.perf_counter()
            state = build()
            m.setup_s.append(time.perf_counter() - started)
        return state

    def closed_loop(self, m: Measurement, min_ops: int,
                    prepare: Callable[[int], object],
                    call: Callable[[int, object], tuple],
                    after: Callable[[int, object], None]) -> None:
        """Time ``call(index, prepare(index))`` op after op.

        Ops run until ``seconds`` of op time have been measured and at
        least ``min_ops`` ran; the peak resident set is taken after the
        first ``min_ops``, a fixed amount of work.  ``call`` returns
        ``(decisions, output)``; ``prepare`` builds an op's inputs and
        ``after`` inspects its output, both outside the timed region.
        """
        timed = 0.0
        index = 0
        while index < min_ops or timed < self.seconds:
            argument = prepare(index)
            self.set_op(index)
            due = time.perf_counter()
            with self.span("bench.op"):
                decided, output = call(index, argument)
            elapsed = time.perf_counter() - due
            self.set_op(None)
            m.due.append(due)
            m.op_s.append(elapsed)
            m.op_decisions.append(decided)
            timed += elapsed
            after(index, output)
            index += 1
            if index == min_ops:
                m.peak_rss_mb = peak_rss_mb()


# ---------------------------------------------------------------------------
# service-block and service-interactive
# ---------------------------------------------------------------------------


def _population(ctx: Context):
    """Open the session population: keys, per-session θ, the service."""
    sessions = ctx.size["sessions"]
    thetas = ctx.rng(0).uniform(0.05, 0.95, sessions)
    keys = [
        SessionKey(f"client-{index:07d}", f"item-{index % 997:03d}")
        for index in range(sessions)
    ]
    service = AllocationService()
    for index, key in enumerate(keys):
        service.open_session(
            key, SERVICE_FAMILIES[index % len(SERVICE_FAMILIES)]
        )
    return keys, thetas, service


def _service_gates(m: Measurement, service: AllocationService) -> None:
    m.gate("audit", lambda: None if service.audit(8)["sessions_audited"]
           else "audited no session")
    m.gate("replay_verify", lambda: None
           if service.replay_verify(32)["sessions_replayed"]
           else "replayed no session")


def service_block(ctx: Context) -> Measurement:
    """Bulk serving: whole-population blocks through ``submit_block``."""
    m = Measurement()
    ops = ctx.size["ops_per_round"]

    def build():
        keys, thetas, service = _population(ctx)
        return keys, thetas, service, service.plan_block(keys)

    keys, thetas, service, plan = ctx.setup(m, build)
    sample = np.sort(ctx.rng(2).choice(
        len(keys), ctx.size["info_sample"], replace=False
    ))

    def prepare(index):
        return ctx.rng(1, index).random((len(keys), ops)) < thetas[:, None]

    def call(_index, writes):
        return service.submit_block(plan, writes), None

    def after(index, _output):
        if index + 1 == ctx.size["digest_rounds"]:
            m.fold([service.session_info(keys[row]) for row in sample])

    ctx.closed_loop(m, ctx.size["digest_rounds"], prepare, call, after)
    expected = len(keys) * ops
    m.gate("block_decisions", lambda: None
           if all(count == expected for count in m.op_decisions)
           else f"submit_block decided {set(m.op_decisions)}, not {expected}")
    _service_gates(m, service)
    return m


def service_interactive(ctx: Context) -> Measurement:
    """Open-loop Poisson arrivals, one ``serve_one`` decision each."""
    m = Measurement()
    rate = ctx.size["arrival_rate"]
    expected = rate * ctx.seconds
    drawn = int(expected + 10 * expected ** 0.5) + ctx.size["digest_arrivals"]

    def build():
        keys, thetas, service = _population(ctx)
        offsets = np.cumsum(ctx.rng(3).exponential(1.0 / rate, drawn))
        count = max(int(np.searchsorted(offsets, ctx.seconds)),
                    ctx.size["digest_arrivals"])
        rows = ctx.rng(4).integers(0, len(keys), drawn)[:count]
        writes = ctx.rng(5).random(drawn)[:count] < thetas[rows]
        arrivals = [
            (float(offset), keys[row],
             Operation.WRITE if write else Operation.READ)
            for offset, row, write in zip(offsets[:count], rows, writes)
        ]
        return service, arrivals

    service, arrivals = ctx.setup(m, build)
    kinds = []
    digest_arrivals = ctx.size["digest_arrivals"]
    lateness = []
    origin = time.perf_counter()
    for index, (offset, key, operation) in enumerate(arrivals):
        due = origin + offset
        now = time.perf_counter()
        while now < due:  # the generator busy-waits for the due time
            now = time.perf_counter()
        ctx.set_op(index)
        with ctx.span("bench.op"):
            kind = service.serve_one(key, operation)
        end = time.perf_counter()
        ctx.set_op(None)
        lateness.append(now - due)
        m.due.append(due)
        m.op_s.append(end - due)
        m.op_decisions.append(1)
        if index < digest_arrivals:
            kinds.append(kind)
            if index + 1 == digest_arrivals:
                m.peak_rss_mb = peak_rss_mb()
    m.achieved_rate = len(arrivals) / (end - origin)
    m.fold(kinds)
    m.extra["lateness_p50_us"] = (statistics.median(lateness) * 1e6, "us",
                                  "lower", None)
    m.extra["lateness_max_us"] = (max(lateness) * 1e6, "us", "lower", None)
    _service_gates(m, service)
    return m


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------


def _result_identity(outcome) -> tuple:
    """A sweep outcome's results, without which backend produced them."""
    return (
        outcome.algorithm_name, outcome.requests, outcome.warmup,
        outcome.total_cost,
        sorted((kind.value, count)
               for kind, count in outcome.event_counts.items()),
        outcome.scheme_changes, outcome.tag,
    )


def sweep_grid(ctx: Context) -> Measurement:
    """A θ grid over six families through the serial sweep executor."""
    m = Measurement()
    size = ctx.size
    model = ConnectionCostModel()

    def build():
        count = size["tasks"]
        seeds = np.random.SeedSequence([ctx.seed, 6]).spawn(count)
        thetas = np.linspace(0.02, 0.98, count)
        tasks = [
            EngineTask(
                SWEEP_FAMILIES[index % len(SWEEP_FAMILIES)],
                ScheduleSpec(float(thetas[index]), size["task_length"],
                             seeds[index]),
                model, warmup=size["task_warmup"], stream=True, tag=index,
            )
            for index in range(count)
        ]
        return tasks, SweepExecutor()

    tasks, executor = ctx.setup(m, build)
    passes = []

    def call(_index, _argument):
        return len(tasks) * size["task_length"], executor.map(tasks)

    ctx.closed_loop(m, size["min_passes"], lambda index: None, call,
                    lambda _index, outcomes: passes.append(outcomes))
    first = passes[0]
    m.fold([_result_identity(outcome) for outcome in first])
    m.counts["engine.fallbacks"] = sum(
        outcome.diagnostic is not None for outcome in first
    )
    identity = [outcome.identity() for outcome in first]
    m.gate("passes_identical", lambda: None if all(
        [outcome.identity() for outcome in outcomes] == identity
        for outcomes in passes
    ) else "a sweep pass differs from the first")
    for index in ctx.rng(7).choice(len(tasks), 2, replace=False):
        task, outcome = tasks[int(index)], first[int(index)]

        def check(task=task, outcome=outcome):
            alone = engine.run(task.algorithm, task.schedule.build(),
                               task.cost_model, stream=True,
                               warmup=task.warmup)
            if (alone.total_cost, alone.event_counts) != (
                    outcome.total_cost, outcome.event_counts):
                return f"task {task.tag} differs from engine.run alone"
            return None

        m.gate(f"grid_point_{task.tag}", check)
    return m


# ---------------------------------------------------------------------------
# adaptive-shift
# ---------------------------------------------------------------------------


def adaptive_shift(ctx: Context) -> Measurement:
    """The online-adaptive allocator on rotating adversaries."""
    m = Measurement()
    size = ctx.size
    model = ConnectionCostModel()
    generate_s: List[float] = []

    def build():
        started = time.perf_counter()
        schedules = [
            get_scenario("adversarial-rotating").generate(
                size["scenario_length"],
                np.random.SeedSequence([ctx.seed, 8, run]),
            ).schedule
            for run in range(size["scenario_runs"])
        ]
        generate_s.append(time.perf_counter() - started)
        return schedules

    schedules = ctx.setup(m, build)
    totals: Dict[int, float] = {}
    repeats_differ = []

    def call(_index, schedule):
        algorithm = make_algorithm("adaptive")
        with ctx.span("engine.run"):
            result = engine.run(algorithm, schedule, model, stream=True)
        return len(schedule), (algorithm, result)

    def after(index, output):
        algorithm, result = output
        run = index % len(schedules)
        m.counts["engine.fallbacks"] += result.diagnostic is not None
        if run in totals:
            if result.total_cost != totals[run]:
                repeats_differ.append(run)
            return
        totals[run] = result.total_cost
        m.counts["core.adaptive.retunes"] += algorithm.retunes
        m.counts["core.adaptive.regime_changes"] += algorithm.regime_changes
        m.gate(f"counts_{run}", lambda: None
               if sum(result.event_counts.values()) == len(schedules[run])
               else "event counts do not cover the schedule")

    for key in ("engine.fallbacks", "core.adaptive.retunes",
                "core.adaptive.regime_changes"):
        m.counts[key] = 0
    ctx.closed_loop(m, len(schedules),
                    lambda index: schedules[index % len(schedules)],
                    call, after)
    m.gate("repeats_identical", lambda: None if not repeats_differ
           else f"runs {sorted(set(repeats_differ))} repeated differently")
    m.fold([totals[run] for run in range(len(schedules))])
    m.counts["workload.scenario_generate.setup_frac"] = (
        statistics.median(generate_s) / statistics.median(m.setup_s)
    )
    return m


# ---------------------------------------------------------------------------
# failover-chaos
# ---------------------------------------------------------------------------


def _ledger(result) -> tuple:
    """The logical outputs a failover must leave untouched."""
    return (
        result.event_kinds,
        result.ledger.total_breakdown(),
        result.ledger.logical_message_count(),
        result.read_observations,
        result.final_version,
    )


def failover_chaos(ctx: Context) -> Measurement:
    """Replicated-SC chaos runs with two primary kills each."""
    m = Measurement()
    size = ctx.size
    requests = size["chaos_requests"]
    horizon = KILL_HORIZON_PER_REQUEST * requests

    def build():
        fault_seeds = ctx.rng(9).integers(0, 2**31, size["chaos_seeds"])
        return [
            (bernoulli_schedule(0.6, requests, ctx.rng(10, run)),
             FaultConfig(primary_kills=2, kill_horizon=horizon,
                         seed=int(fault_seeds[run])))
            for run in range(size["chaos_seeds"])
        ]

    runs = ctx.setup(m, build)
    first: Dict[int, object] = {}
    repeats_differ = []

    def call(_index, run):
        schedule, faults = runs[run]
        with ctx.span("sim.simulate_protocol"):
            chaos = simulate_protocol("sw3", schedule, replicas=3,
                                      faults=faults)
        return len(schedule), chaos

    def after(index, chaos):
        run = index % len(runs)
        if run not in first:
            first[run] = chaos
        elif _ledger(chaos) != _ledger(first[run]):
            repeats_differ.append(run)

    ctx.closed_loop(m, len(runs), lambda index: index % len(runs), call, after)
    m.gate("repeats_identical", lambda: None if not repeats_differ
           else f"seeds {sorted(set(repeats_differ))} repeated differently")
    for run, chaos in sorted(first.items()):
        def check(run=run, chaos=chaos):
            clean = simulate_protocol("sw3", runs[run][0])
            if _ledger(chaos) != _ledger(clean):
                return f"seed {run}: chaos ledger differs from one SC"
            return None

        m.gate(f"ledger_{run}", check)
        m.fold(_ledger(chaos), chaos.failover_latencies,
               chaos.overhead.as_dict())
    overheads = [chaos.overhead.as_dict() for chaos in first.values()]
    failovers = sum(chaos.failovers for chaos in first.values())
    latencies = [latency for chaos in first.values()
                 for latency in chaos.failover_latencies]
    for key in ("failovers", "elections", "election_frames",
                "catchup_frames", "client_retries", "frames_lost"):
        m.counts[f"sim.{key}"] = sum(book[key] for book in overheads)
    logical = sum(chaos.ledger.logical_message_count()
                  for chaos in first.values())
    m.counts["sim.logical_frac"] = logical / (
        logical + sum(book["overhead_messages"] for book in overheads)
    )
    transition = sum(book[key] for book in overheads
                     for key in TRANSITION_FRAMES)
    m.counts["sim.failover_overhead_msgs"] = (
        transition / failovers if failovers else 0.0
    )
    m.extra["failover_p50_s"] = (
        statistics.median(latencies) if latencies else 0.0, "s", "lower", 0
    )
    m.extra["failover_overhead_msgs"] = (
        m.counts["sim.failover_overhead_msgs"], "frames", "lower", 0
    )
    return m


WORKLOADS = {
    "service-block": service_block,
    "service-interactive": service_interactive,
    "sweep-grid": sweep_grid,
    "adaptive-shift": adaptive_shift,
    "failover-chaos": failover_chaos,
}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _batch_shape(_name, writes, *_args, warmup=0, **_kwargs):
    rows, length = writes.shape
    return {"rows": rows, "elements": rows * length,
            "useful": rows * (length - warmup)}


#: Public bindings wrapped in traced runs: (binding, span name, measure).
BINDINGS = (
    ("repro.service.host:AllocationService.submit_block",
     "service.submit_block", None),
    ("repro.service.host:AllocationService.serve_one",
     "service.serve_one", None),
    ("repro.service.host:AllocationService.drain_shard",
     "service.drain_shard", None),
    ("repro.service.host:AllocationService.audit", "service.audit", None),
    ("repro.service.host:AllocationService.replay_verify",
     "service.replay_verify", None),
    ("repro.service.host:run_batched_masks", "engine.run_batched_masks",
     _batch_shape),
    ("repro.engine.parallel:run_batched_masks", "engine.run_batched_masks",
     _batch_shape),
    ("repro.engine.parallel:SweepExecutor.map", "engine.sweep_map", None),
    ("repro.engine.parallel:ScheduleSpec.build_mask", "workload.build_mask",
     lambda spec: {"elements": spec.length}),
    ("repro.engine.parallel:pack_write_masks", "core.pack_write_masks",
     lambda writes: {"bytes": writes.nbytes}),
    ("repro.engine.batched:batched_run_arrays", "core.batched_run_arrays",
     lambda _name, tile: {"elements": tile.size}),
    ("repro.engine.batched:batched_counts", "core.batched_counts", None),
    ("repro.engine.batched:packed_run_counts", "core.packed_run_counts",
     lambda _name, packed, *_args: {
         "elements": packed.shape[0] * packed.shape[1],
         "bytes_in": packed.nbytes,
     }),
    ("repro.core.adaptive:scan_window_counts", "core.scan_window_counts",
     None),
    ("repro.core.adaptive:scan_threshold_counts",
     "core.scan_threshold_counts", None),
)

#: Spans whose self time is reported as a share of the timed wall.
SELF_FRAC = (
    "service.submit_block", "service.serve_one", "engine.run_batched_masks",
    "engine.sweep_map", "engine.run", "core.batched_run_arrays",
    "core.batched_counts", "core.pack_write_masks",
    "core.scan_window_counts", "core.scan_threshold_counts",
    "workload.build_mask", "sim.simulate_protocol",
)

#: (span, attribute) totals reported per op.
PER_OP = (
    ("service.drain_shard", "calls"),
    ("engine.run_batched_masks", "calls"),
    ("engine.run_batched_masks", "rows"),
    ("core.batched_run_arrays", "elements"),
    ("core.packed_run_counts", "elements"),
    ("core.packed_run_counts", "bytes_in"),
    ("core.pack_write_masks", "bytes"),
    ("core.scan_window_counts", "calls"),
    ("core.scan_threshold_counts", "calls"),
)


def layer_metrics(m: Measurement, spans: List[Span]) -> Dict[str, float]:
    """Per-layer numbers from the spans recorded inside timed ops."""
    timed = [span for span in spans if span.op is not None]
    table = summarize(timed)
    wall = table["bench.op"]["total_s"]
    ops = len(m.op_s)

    def row(name):
        return table.get(name, {})

    values = {
        f"{name}.self_frac": row(name).get("self_s", 0.0) / wall
        for name in SELF_FRAC
    }
    values["core.packed_run_counts.busy_frac"] = (
        row("core.packed_run_counts").get("self_s", 0.0) / wall
    )
    for name, key in PER_OP:
        values[f"{name}.{key}_per_op"] = row(name).get(key, 0) / ops
    batches = row("engine.run_batched_masks")
    values["engine.kernel_useful_frac"] = (
        batches["useful"] / batches["elements"] if batches else 0.0
    )
    started: Dict[int, float] = {}
    for span in timed:
        if span.name != "bench.op":
            started[span.op] = min(started.get(span.op, span.start),
                                   span.start)
    waits = [started[op] - m.due[op] for op in started]
    values["trace.wait_p50_us"] = (
        statistics.median(waits) * 1e6 if waits else 0.0
    )
    values["trace.unattributed_frac"] = row("bench.op")["self_s"] / wall
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _percentiles(samples: List[float]) -> Dict[str, tuple]:
    """p90/p99/p99.9 where at least ten samples lie beyond each."""
    ordered = sorted(samples)
    found = {}
    for label, share in (("p90", 0.9), ("p99", 0.99), ("p999", 0.999)):
        if len(ordered) * (1 - share) >= 10:
            found[f"op_{label}_us"] = (
                ordered[int(share * len(ordered))] * 1e6, "us", "lower", None
            )
    return found


def run_workload(name: str, seed: int, seconds: float, size_name: str,
                 traced: bool, out: Path) -> dict:
    """Run one workload; return its result record."""
    recorder = None
    if traced:
        recorder = Recorder()
        for target, span_name, measure in BINDINGS:
            recorder.wrap(target, span_name, measure)
    ctx = Context(seed, SIZES[size_name], seconds, recorder)
    try:
        m = WORKLOADS[name](ctx)
    finally:
        if recorder is not None:
            recorder.restore()
    digest = m.digest.hexdigest()
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())
    expected = pinned.get(f"{name}/{size_name}")
    if seed == DEFAULT_SEED and expected is not None:
        m.gate("digest", lambda: None if digest == expected
               else f"output digest {digest[:12]} != pinned {expected[:12]}")
    decisions = sum(m.op_decisions)
    rate = m.achieved_rate
    if rate is None:
        rate = statistics.median(
            count / elapsed for count, elapsed in zip(m.op_decisions, m.op_s)
        )
    attempted = len(m.op_s) + m.gates
    failed = len(m.failures)
    measured = {
        "decisions_per_s": rate,
        "op_p50_us": statistics.median(m.op_s) * 1e6,
        "setup_s": statistics.median(m.setup_s),
        "peak_rss_mb": m.peak_rss_mb,
    }
    metrics = {
        metric["name"]: (measured[metric["name"]], metric["unit"],
                         metric["better"], metric["bound"])
        for metric in json.loads(SPEC_PATH.read_text())["end_to_end"]
    }
    metrics["failed_frac"] = (failed / attempted, "frac", "lower", 0)
    metrics.update(_percentiles(m.op_s))
    metrics.update(m.extra)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "size": size_name, "trace": traced,
        "correct": not m.failures, "attempted": attempted, "failed": failed,
        "failures": m.failures, "ops": len(m.op_s), "decisions": decisions,
        "timed_s": sum(m.op_s), "digest": digest,
        "metrics": {
            key: {"value": value, "unit": unit, "better": better,
                  "bound": bound,
                  "samples": len(m.op_s) if key.startswith("op_") else None}
            for key, (value, unit, better, bound) in metrics.items()
        },
    }
    if recorder is not None:
        spans = recorder.spans
        layers = layer_metrics(m, spans)
        layers.update(m.counts)
        record["layers"] = layers
        gates = summarize([span for span in spans if span.op is None])
        record["watch"] = {
            f"{span}_s": gates[span]["total_s"]
            for span in ("service.audit", "service.replay_verify")
            if span in gates
        }
        record["bindings"] = recorder.bindings
        out.mkdir(parents=True, exist_ok=True)
        recorder.write(out / f"{name}.trace.jsonl")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, args.size,
                          bool(args.trace), args.out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
