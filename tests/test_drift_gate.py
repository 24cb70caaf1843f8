"""tools/drift.py gate through a stand-in for subprocess.run, and the counting
helper that collect wraps solvers and kernels with."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_SPEC = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

COUNTERS = {"centralized.pgd_iterations": 648.0, "admm.rounds": 0}


def gate(monkeypatch, capsys, last_line=lambda workload, seed: None):
    """gate's exit, its output and each run's (argv, cwd); ``last_line`` may
    replace a run's JSON line."""
    calls = []

    def run(argv, cwd, capture_output, text):
        calls.append((argv, cwd))
        workload, seed = argv[3], int(argv[5])
        metrics = {name: {"value": value, "unit": "count"} for name, value in COUNTERS.items()}
        line = json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, f"meta {{}}\n{last_line(workload, seed) or line}\n", "")

    monkeypatch.setattr(drift.subprocess, "run", run)
    return drift.gate(), capsys.readouterr().out, calls


def test_gate_runs_ci_s_thirteen_runs_in_this_tree(monkeypatch, capsys):
    code, out, calls = gate(monkeypatch, capsys)
    runs = [(name, 1, 1) for name in ("complete-sweep", "bounded-sparse", "consensus")]
    runs += [("op_b-defect", seed, 0) for seed in range(1, 11)]
    assert calls == [([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace)], str(ROOT)) for workload, seed, trace in runs]
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13 + 3 * 2
    assert lines[:3] == ["complete-sweep seed 1: correct, 0 of 9 calls failed",
                         "- complete-sweep centralized.pgd_iterations: 648", "- complete-sweep admm.rounds: 0"]
    assert lines[-1] == "op_b-defect seed 10: correct, 0 of 9 calls failed"


def test_a_run_that_is_not_correct_fails_the_gate(monkeypatch, capsys):
    failed = json.dumps({"correct": False, "attempted": 9, "failed": 2, "metrics": {}})
    code, out, calls = gate(monkeypatch, capsys, lambda workload, seed: failed if seed == 4 else None)
    assert code == 1 and len(calls) == 13
    assert "op_b-defect seed 4: not correct, 2 of 9 calls failed\n" in out


def test_a_run_with_no_json_fails_the_gate_and_prints_no_counters(monkeypatch, capsys):
    code, out, calls = gate(monkeypatch, capsys, lambda workload, seed: "Traceback" if workload == "consensus" else None)
    assert code == 1 and len(calls) == 13
    assert "consensus seed 1: no JSON on the last line of stdout\nop_b-defect seed 1: correct" in out


def module():
    def solve(x):
        if x < 0:
            raise ValueError("negative")
        return types.SimpleNamespace(iterations=x)

    space = types.ModuleType("space")
    space.solve = space.other = solve
    return space


def test_counting_counts_calls_and_sums_a_field():
    space = module()
    with drift.counting(space, ("solve", "other")) as calls:
        space.solve(3), space.other(4)
        with pytest.raises(ValueError):
            space.solve(-1)  # a call that raises counts
    assert calls == [3]
    with drift.counting(space, ("solve", "other"), "iterations") as iterations:
        space.solve(3), space.other(4)
    assert iterations == [7]


def test_counting_restores_the_originals_where_the_block_raises():
    space = module()
    originals = dict(vars(space))
    with pytest.raises(ValueError), drift.counting(space, ("solve",), "iterations"):
        assert space.solve is not originals["solve"]
        space.solve(-1)
    assert vars(space) == originals
