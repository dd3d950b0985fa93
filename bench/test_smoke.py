"""Smoke test of the benchmark: every workload at tiny sizes.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(out: Path, *flags: str, cwd: Path = BENCH.parent):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--size", "tiny",
         "--seconds", "0.3", "--out", str(out), *flags],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def records(out: Path, traced: bool):
    found = [json.loads(path.read_text()) for path in out.glob("*.json")]
    return [record for record in found if record["trace"] == traced]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    done = run_bench(out)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, done.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    done = run_bench(out, "--trace")
    assert done.returncode == 0, done.stdout + done.stderr
    return out, done.stdout


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    out, stdout = untraced
    summary = json.loads(stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            found = summary["metrics"][f"{workload}/{metric['name']}"]
            assert found["unit"] == metric["unit"]
            assert found["value"] > 0
    for line in ("decisions_per_s", "op_p50_us", "setup_s", "peak_rss_mb",
                 "failed_frac", "failover_p50_s", "failover_overhead_msgs"):
        assert line in stdout


def test_gates_and_pinned_digests_pass(untraced):
    out, _stdout = untraced
    pinned = json.loads((BENCH / "digests.json").read_text())
    runs = records(out, traced=False)
    assert sorted(run["workload"] for run in runs) == sorted(WORKLOADS)
    for run in runs:
        assert run["correct"], run["failures"]
        assert run["digest"] == pinned[f"{run['workload']}/tiny"]
        assert run["provenance"]["seed"] == run["seed"]


def test_traced_run_reports_every_layer_metric(traced):
    out, stdout = traced
    summary = json.loads(stdout.splitlines()[-1])
    assert summary["correct"]
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    produced = set()
    for run in records(out, traced=True):
        layers = run["layers"]
        produced |= set(layers)
        assert layers["trace.unattributed_frac"] <= 0.10, run["workload"]
        assert "trace.overhead_frac" in layers
        assert "absent" not in run["bindings"].values()
        assert (out / f"{run['workload']}.trace.jsonl").is_file()
    assert produced == declared
    for workload in WORKLOADS:
        for name in declared:
            assert f"{workload}/{name}" in summary["metrics"]


def test_one_workload_prints_one_result_line(tmp_path):
    done = run_bench(tmp_path, "--workload", "failover-chaos", "--seed", "3",
                     "--trace", "0")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert set(summary["metrics"]) == {
        metric["name"] for metric in SPEC["end_to_end"]
    }
    assert summary["attempted"] >= 1


def test_compare_finds_no_worse_row_against_itself(untraced):
    out, _stdout = untraced
    rows = compare.compare(out, out)
    assert rows
    assert not [row for row in rows if row[-1].startswith("worse")]


def test_compare_flags_a_regression():
    verdict = compare.verdict([100.0, 101.0, 99.0], [130.0, 131.0, 129.0],
                              "lower", 0.10)
    assert verdict[2] == "worse"
    verdict = compare.verdict([100.0, 140.0, 70.0], [101.0, 139.0, 72.0],
                              "lower", 0.10)
    assert verdict[2] == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path / "out", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
