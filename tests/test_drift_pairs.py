"""tools/drift.py pairs and its verdicts, with no benchmark run: the statistics
on BENCH_32.json's recorded runs, the protocol through a stand-in for
subprocess.run, and each verdict on made-up runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_SPEC = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

WORKLOADS = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
RECORDED = json.loads((ROOT / "BENCH_32.json").read_text())["end_to_end"]


@pytest.mark.parametrize("workload", RECORDED)
@pytest.mark.parametrize("metric", [metric["name"] for metric in METRICS])
def test_the_statistics_reproduce_bench_32_from_its_runs(workload, metric):
    recorded, seeds = RECORDED[workload][metric], RECORDED[workload]["seeds"]
    parent, change = (dict(zip(seeds, recorded[side]["runs"])) for side in ("parent", "change"))
    assert drift.timing(parent, change, "lower") == recorded


def tree(root, name, lines):
    path = root / name / "src" / "secalloc"
    path.mkdir(parents=True)
    (path / "model.py").write_text("x = 1\n" * lines)
    return str(root / name)


@pytest.fixture
def stubbed(tmp_path, monkeypatch):
    """pairs run on two made-up trees; each call's (argv, cwd) is recorded. The
    change's consensus run at seed 14 prints a traceback in place of JSON."""
    trees, calls = {"parent": tree(tmp_path, "parent", 7), "change": tree(tmp_path, "change", 5)}, []

    def run(argv, cwd, capture_output, text):
        calls.append((argv, cwd))
        side, workload, seed = "parent" if cwd == trees["parent"] else "change", argv[3], int(argv[5])
        if (side, workload, seed) == ("change", "consensus", 14):
            return subprocess.CompletedProcess(argv, 1, "wall_s 0.1 s\nTraceback: no JSON\n", "")
        value = 1 + seed / 1000 + (0.002 if side == "parent" else 0.0)  # the change wins every pair
        metrics = {metric["name"]: {"value": value, "unit": metric["unit"]} for metric in METRICS}
        last = json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, f"wall_s {value} s\n{last}\n", "")

    monkeypatch.setattr(drift.subprocess, "run", run)
    drift.pairs(trees["parent"], trees["change"], str(tmp_path / "out"))
    return trees, calls, json.loads((tmp_path / "out" / "pairs.json").read_text())


def test_each_pair_runs_the_parent_first_at_odd_seeds_each_in_its_own_tree(stubbed):
    trees, calls, _ = stubbed
    expected = [([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "5",
                  "--trace", "0"], trees[side])
                for workload in WORKLOADS for seed in range(11, 21)
                for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    assert len(calls) == 60 and calls == expected


def test_pairs_json_holds_the_blocks_of_bench_32(stubbed):
    _, _, doc = stubbed
    assert list(doc) == ["command", "pairs", "machine", "src_lines", "end_to_end"]
    assert doc["command"] == "python3 bench/run.py --workload <workload> --seed <seed> --seconds 5 --trace 0"
    assert list(doc["machine"]) == list(json.loads((ROOT / "BENCH_32.json").read_text())["machine"])
    assert doc["src_lines"] == {"parent": 7, "change": 5}
    assert list(doc["end_to_end"]) == WORKLOADS
    block = doc["end_to_end"]["complete-sweep"]
    assert list(block) == ["seeds", "correct", "failed", *(metric["name"] for metric in METRICS)]
    assert block["seeds"] == list(range(11, 21)) and block["correct"] is True
    assert block["failed"] == {"parent": 0, "change": 0}
    assert block["wall_s"]["parent"]["runs"] == [round(1.002 + seed / 1000, 4) for seed in range(11, 21)]
    assert block["wall_s"]["change_better_pairs"] == 10


def test_a_run_with_no_json_is_not_correct_and_left_out(stubbed):
    _, _, doc = stubbed
    block = doc["end_to_end"]["consensus"]
    assert block["correct"] is False
    assert block["wall_s"]["change"]["runs"] == [round(1 + seed / 1000, 4) for seed in range(11, 21) if seed != 14]
    assert len(block["wall_s"]["parent"]["runs"]) == 10
    assert block["wall_s"]["change_better_pairs"] == 9


def test_a_side_with_under_two_runs_has_no_statistics():
    assert drift.timing({11: 1.0}, {11: 1.0, 12: 1.1}, "lower") is None


PARENT = {seed: 1.0 + (seed % 5) / 100 for seed in range(11, 21)}  # runs 1.00-1.04: q1-q3 spread 2.5% of the median


@pytest.mark.parametrize(
    "change, bound, expected",
    [
        ({seed: value * 1.1 for seed, value in PARENT.items()}, 0.25, "within the bound"),
        ({seed: value * 1.3 for seed, value in PARENT.items()}, 0.25, "worse beyond the bound"),
        ({seed: value * 1.005 for seed, value in PARENT.items()}, 0.01, "unresolved"),
        ({seed: value * 0.9 for seed, value in PARENT.items()}, 0.01, "within the bound"),  # every change run wins
    ],
    ids=["within", "worse", "spread wider than the bound", "every change run beats every parent run"],
)
def test_verdicts(change, bound, expected):
    assert drift.verdict(drift.timing(PARENT, change, "lower"), bound, "lower") == expected


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    change = {seed: value * 0.7 for seed, value in PARENT.items()}
    assert drift.verdict(drift.timing(PARENT, change, "higher"), 0.25, "higher") == "worse beyond the bound"


def test_summary_prints_a_verdict_per_workload_and_metric(stubbed, tmp_path, capsys):
    drift.summary(str(tmp_path / "out"))
    text = capsys.readouterr().out
    assert "- consensus: not every run correct, failed calls {'parent': 0, 'change': 0}" in text
    assert "- complete-sweep: every run correct" in text
    verdicts = [line for line in text.splitlines() if line.startswith("  - ")]
    assert len(verdicts) == len(WORKLOADS) * len(METRICS)
    assert all(line.endswith("pairs: within the bound") for line in verdicts)
    assert "  - wall_s (bound 0.25): 1.0175 -> 1.0155 s, ratio 0.998, change better in 10 of 10 pairs: " in text
