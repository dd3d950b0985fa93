"""Run the repository benchmark and print every metric with its unit.

Usage, from the repository root::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--size full|tiny] [--out DIR]

Each workload runs in a fresh ``python -m bench.workloads`` process with
tracing off; ``--trace`` runs it a second time with tracing on and adds
the per-layer metrics and the tracing overhead.  Results go to ``DIR``
(default ``bench/out``) as one JSON file per run, stamped with the git
commit, the host and the seed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace``).  The exit code is 0 only when every correctness gate
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Bumped whenever a workload, metric or gate changes meaning.
BENCH_VERSION = 1

#: A workload's processes (untraced and traced) that run longer than
#: this together have hung.
WORKLOAD_TIMEOUT_S = 170


def git_sha():
    """The checkout's commit, or ``None`` outside a git work tree."""
    try:
        found = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = found.stdout.split()
    if found.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def provenance(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "seed": seed,
        "bench_version": BENCH_VERSION,
    }


def run_child(name: str, args, traced: bool, deadline: float) -> dict:
    """One workload in a fresh process; its result record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    # The program must run at its defaults, whatever this shell sets.
    env.pop("REPRO_KERNEL_THREADS", None)
    command = [
        sys.executable, "-m", "bench.workloads", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--size", args.size, "--trace", str(int(traced)),
        "--out", str(args.out),
    ]
    left = max(deadline - time.monotonic(), 1.0)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=left)
    if done.returncode:
        raise RuntimeError(
            f"{name} exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def print_record(record: dict, declared: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} ({mode}; seed {record['seed']}, "
          f"{record['seconds']:g} s, {record['size']}; {record['ops']} ops, "
          f"{record['decisions']} decisions in {record['timed_s']:.2f} s)")
    for key, metric in record["metrics"].items():
        samples = metric["samples"]
        note = f"  n={samples}" if samples else ""
        bound = metric["bound"]
        note += f"  bound {bound:g}" if bound is not None else "  unbounded"
        print(f"  {key:<28} {metric['value']:>16.6g} {metric['unit']:<12}"
              f"{note}")
    for key, value in record.get("layers", {}).items():
        unit = declared.get(key, {}).get("unit", "")
        print(f"  {key:<44} {value:>14.6g} {unit}")
    for key, value in record.get("watch", {}).items():
        print(f"  {key:<44} {value:>14.6g} s (gate, watch only)")
    absent = [target for target, state in record.get("bindings", {}).items()
              if state == "absent"]
    if absent:
        print(f"  absent bindings: {', '.join(absent)}")
    verdict = "all passed" if record["correct"] else "FAILED"
    print(f"  gates: {record['attempted'] - record['ops']} run, {verdict}; "
          f"digest {record['digest'][:16]}")
    for failure in record["failures"]:
        print(f"    {failure}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"bench: no program to measure under {ROOT} (need "
              "src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced for the per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    section = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric for metric in spec[section]}
    stamp = provenance(args.seed)
    names = [args.workload] if args.workload else workloads
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
        try:
            records = [run_child(name, args, False, deadline)]
            if args.trace:
                records.append(run_child(name, args, True, deadline))
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        if args.trace:
            untraced, traced = records
            traced["layers"]["trace.overhead_frac"] = (
                traced["metrics"]["op_p50_us"]["value"]
                / untraced["metrics"]["op_p50_us"]["value"] - 1
            )
        for record in records:
            record["provenance"] = stamp
            record["written_ns"] = time.time_ns()
            mode = "traced" if record["trace"] else "untraced"
            path = args.out / (f"{name}.{mode}.seed{args.seed}."
                               f"{record['written_ns']}.json")
            path.write_text(json.dumps(record, indent=1) + "\n")
            print_record(record, declared)
            summary["correct"] &= record["correct"]
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
        values = (records[-1]["layers"] if args.trace else
                  {key: metric["value"]
                   for key, metric in records[0]["metrics"].items()})
        prefix = "" if args.workload else f"{name}/"
        for key, metric in declared.items():
            summary["metrics"][prefix + key] = {
                "value": values.get(key, 0.0), "unit": metric["unit"],
            }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
