"""Bad bytes in a scenario file, YAML's .nan, and the sweep grid's domain:
each ends in exit 2 with a diagnostic, never in a traceback."""

import os

import pytest

from secalloc import cli
from secalloc.errors import ScenarioError
from secalloc.scenario_io import parse_scenario

SINGLE_EDGE = os.path.join(os.path.dirname(__file__), "..", "scenarios", "single_edge.yaml")

VALID = (
    "behavior:\n"
    "  gamma: 0.5\n"
    "targets:\n"
    "  - {id: a, loss_value: 5.0, prob_model: {family: exponential, baseline: 1.0}}\n"
    "sources:\n"
    "  - {id: s1, supply_upper: 3.0}\n"
    "edges: complete\n"
)


def _solve(tmp_path, capsys, data: bytes):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(data)
    code = cli.main(["solve", str(path), "-o", str(tmp_path / "report.txt")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "data, line",
    [
        (VALID.replace("gamma: 0.5", "gamma: 0.5\x07").encode(), 2),
        (VALID.encode() + b"# \xff\n", 8),
        (VALID.replace("s1", "s\xe9").encode("latin-1"), 6),
    ],
    ids=["control-character", "invalid-utf8-comment", "latin-1-id"],
)
def test_unreadable_bytes_exit_2(tmp_path, capsys, data, line):
    code, err = _solve(tmp_path, capsys, data)
    assert code == cli.EXIT_SCENARIO
    assert err.startswith("scenario error:\n")
    assert f"line {line}: " in err
    assert "Traceback" not in err


def test_valid_utf8_still_reads(tmp_path, capsys):
    code, _ = _solve(tmp_path, capsys, VALID.replace("s1", "s\xe9").encode("utf-8"))
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("spelling", [".nan", ".NaN", ".NAN", "nan"])
def test_yaml_nan_reads_as_nan(spelling):
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(VALID.replace("loss_value: 5.0", f"loss_value: {spelling}"))
    assert caught.value.diagnostics == ("line 4: targets[0].loss_value must be > 0",)


@pytest.mark.parametrize(
    "verb, flag, value, message",
    [
        ("sweep-gamma", "--stop", "1.5", "gamma grid --stop must be in (0, 1], got 1.5"),
        ("sweep-gamma", "--start", "0", "gamma grid --start must be in (0, 1], got 0.0"),
        ("sweep-gamma", "--stop", "inf", "gamma grid --stop must be in (0, 1], got inf"),
        ("sweep-tau", "--start", "-1", "tau grid --start must be in [0, 1], got -1.0"),
        ("sweep-tau", "--stop", "2", "tau grid --stop must be in [0, 1], got 2.0"),
    ],
)
def test_grid_end_outside_domain(tmp_path, capsys, verb, flag, value, message):
    code = cli.main([verb, SINGLE_EDGE, "-o", str(tmp_path / "x.csv"), flag, value])
    assert code == cli.EXIT_SCENARIO
    assert message in capsys.readouterr().err
