"""The waterfill verb builds the threshold matrix once per call: the
report's thresholds come from the table the allocation itself summed."""

import os

from helpers import complete_network
from secalloc import cli, waterfill
from secalloc.model import BehavioralModel

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_one_threshold_matrix_per_call(tmp_path, monkeypatch, capsys):
    calls = []
    build = waterfill._threshold_matrix

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(waterfill, "_threshold_matrix", counting)
    scenario = os.path.join(ROOT, "scenarios", "case_study.yaml")
    assert cli.main(["waterfill", scenario, "-o", str(tmp_path / "wf.txt")]) == 0
    assert len(calls) == 1


def test_trace_carries_the_threshold_table():
    net = complete_network([12.0, 9.0, 5.0, 3.0], [4.0, 3.0])
    behavior = BehavioralModel(0.7)
    trace = waterfill.waterfill_allocate(net, behavior)
    table = waterfill.build_threshold_table(net, behavior)
    assert trace.thresholds == table
    ids = trace.activation_order
    for b, j in enumerate(ids):
        assert trace.breakpoints[b] == sum(table.entries[(i, j)] for i in ids[:b])
