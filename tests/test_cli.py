"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_experiment_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-an-experiment"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "sw9"])
        assert args.theta == 0.3
        assert args.model == "connection"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "t-conclusion" in out

    def test_simulate_connection(self, capsys):
        code = main(
            ["simulate", "sw9", "--theta", "0.3", "--length", "2000",
             "--seed", "42"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean cost/req" in out
        assert "sw9" in out

    def test_simulate_message_model(self, capsys):
        code = main(
            ["simulate", "sw1", "--model", "message", "--omega", "0.4",
             "--length", "1000", "--seed", "1"]
        )
        assert code == 0
        assert "message" in capsys.readouterr().out

    def test_simulate_replicas_failover_campaign(self, capsys):
        code = main(
            ["simulate", "sw3", "--length", "300", "--seed", "7",
             "--replicas", "3", "--faults", "crash=0@5,seed=3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replica set" in out
        assert "1 failover(s)" in out
        assert "promoted" in out

    def test_simulate_replicas_matches_single_sc(self, capsys):
        main(["simulate", "sw3", "--length", "300", "--seed", "7",
              "--backend", "protocol"])
        single = capsys.readouterr().out
        main(["simulate", "sw3", "--length", "300", "--seed", "7",
              "--replicas", "3"])
        replicated = capsys.readouterr().out
        # The logical cost lines are byte-identical; only the wire
        # summary differs.
        for line in single.splitlines():
            if "cost" in line:
                assert line in replicated

    def test_simulate_rejects_bad_replica_count(self, capsys):
        assert main(["simulate", "sw3", "--length", "100",
                     "--replicas", "7"]) == 2

    def test_simulate_crash_without_replica_set_exits_nonzero(self):
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "sw3",
             "--length", "60", "--faults", "crash=0@5"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert completed.returncode != 0
        assert "InvalidParameterError" in completed.stderr
        assert "replica set" in completed.stderr

    def test_simulate_deterministic_with_seed(self, capsys):
        main(["simulate", "st1", "--length", "500", "--seed", "9"])
        first = capsys.readouterr().out
        main(["simulate", "st1", "--length", "500", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_advise_connection(self, capsys):
        assert main(["advise", "--target", "0.10"]) == 0
        out = capsys.readouterr().out
        assert "k = 9" in out

    def test_advise_message(self, capsys):
        assert main(["advise", "--target", "0.5", "--model", "message",
                     "--omega", "0.2"]) == 0
        assert "k = 1" in capsys.readouterr().out

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "t-conclusion", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_choose_known_theta(self, capsys):
        assert main(["choose", "--theta", "0.8"]) == 0
        assert "t1_" in capsys.readouterr().out

    def test_choose_unknown_theta_message(self, capsys):
        assert main(["choose", "--model", "message", "--omega", "0.8"]) == 0
        assert "sw7" in capsys.readouterr().out

    def test_choose_no_worst_case(self, capsys):
        assert main(["choose", "--theta", "0.8", "--no-worst-case"]) == 0
        assert "st1" in capsys.readouterr().out

    def test_serve_self_test_with_replicas(self, capsys):
        code = main(
            ["serve", "--self-test", "--sessions", "100", "--rounds", "1",
             "--ops-per-round", "5", "--shards", "4", "--replay-sample", "2",
             "--replicas", "3", "--failover-drills", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failover drills" in out
        assert "byte-identical" in out

    def test_trace_command(self, tmp_path, capsys):
        import numpy as np

        from repro.workload import bernoulli_schedule, save_trace

        path = tmp_path / "steady.trace"
        save_trace(
            bernoulli_schedule(0.2, 5_000, rng=np.random.default_rng(3)),
            path,
        )
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stationary" in out
        assert "recommendation" in out
