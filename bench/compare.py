"""Compare two sets of benchmark runs, one row per workload and metric.

Usage, from the repository root::

    python bench/compare.py BASE_DIR CANDIDATE_DIR

Each directory holds the result files of untraced runs
(``python bench/run.py --out DIR``); run the two sets alternately on one
host.  Every metric is judged by its own direction and bound, as the
result files record them:

* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, the wider of the two sets) exceeds the bound and not every
  candidate run reads better than every base run;
* ``worse`` -- the candidate median is worse than the base median by
  more than the bound;
* ``better`` -- the candidate wins at least nine in ten of the pairs
  (i-th run against i-th run) and the medians differ by more than the
  base's own spread;
* ``within`` -- otherwise.

Metrics without a bound are listed without a verdict.  Runs of one seed
must agree on the output digest.  The exit code is 1 when a row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    """workload -> its untraced result records, in the order they ran."""
    runs: dict = {}
    for path in directory.glob("*.json"):
        record = json.loads(path.read_text())
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    for found in runs.values():
        found.sort(key=lambda record: record["written_ns"])
    return runs


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    low, _median, high = statistics.quantiles(values, n=4)
    middle = abs(statistics.median(values))
    if not middle:
        return 0.0 if high == low else math.inf
    return (high - low) / middle


def verdict(base, candidate, better: str, bound) -> tuple:
    """(relative worsening, spread, verdict) of one metric."""
    sign = 1 if better == "lower" else -1
    base_median = statistics.median(base)
    worsening = sign * (statistics.median(candidate) - base_median)
    if base_median:
        relative = worsening / abs(base_median)
    else:
        relative = 0.0 if not worsening else math.copysign(math.inf, worsening)
    wider = max(spread(base), spread(candidate))
    if bound is None:
        return relative, wider, "-"
    every_run_better = all(sign * (new - old) < 0
                           for new in candidate for old in base)
    pairs = list(zip(base, candidate))
    wins = sum(sign * (new - old) < 0 for old, new in pairs)
    if wider > bound and not every_run_better:
        return relative, wider, "unresolved"
    if relative > bound:
        return relative, wider, "worse"
    if wins >= 0.9 * len(pairs) and -relative > spread(base):
        return relative, wider, "better"
    return relative, wider, "within"


def compare(base_dir: Path, candidate_dir: Path) -> list:
    """The comparison rows: (workload, metric, unit, base, candidate,
    relative worsening, spread, bound, verdict)."""
    base_runs, candidate_runs = load(base_dir), load(candidate_dir)
    rows = []
    for workload in sorted(set(base_runs) & set(candidate_runs)):
        base, candidate = base_runs[workload], candidate_runs[workload]
        for metric, first in base[0]["metrics"].items():
            if not all(metric in run["metrics"] for run in candidate):
                continue
            old = [run["metrics"][metric]["value"] for run in base]
            new = [run["metrics"][metric]["value"] for run in candidate]
            relative, wider, judged = verdict(old, new, first["better"],
                                              first["bound"])
            rows.append((workload, metric, first["unit"],
                         statistics.median(old), statistics.median(new),
                         relative, wider, first["bound"], judged))
        digests = {}
        for run in base + candidate:
            digests.setdefault(run["seed"], set()).add(run["digest"])
        differing = sorted(seed for seed, found in digests.items()
                           if len(found) > 1)
        rows.append((workload, "digest", "-", "-", "-", 0.0, 0.0, 0,
                     f"worse (seeds {differing})" if differing else "within"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.base, args.candidate)
    if not rows:
        print("no workload has untraced runs in both directories",
              file=sys.stderr)
        return 2
    print(f"{'workload':<20} {'metric':<24} {'unit':<12} {'base':>12} "
          f"{'candidate':>12} {'worse by':>9} {'spread':>8} {'bound':>6}  "
          "verdict")
    for (workload, metric, unit, old, new, relative, wider, bound,
         judged) in rows:
        numbers = (f"{old:>12.6g} {new:>12.6g}" if metric != "digest"
                   else f"{'-':>12} {'-':>12}")
        bound_text = "-" if bound is None else f"{bound:g}"
        print(f"{workload:<20} {metric:<24} {unit:<12} {numbers} "
              f"{relative:>9.2%} {wider:>8.2%} {bound_text:>6}  {judged}")
    return 1 if any(row[-1].startswith("worse") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
