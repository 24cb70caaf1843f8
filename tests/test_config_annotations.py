"""A config field converts the same way as a CLI flag and as a scenario key.

Both entry points take each field's type from its annotation in the
config dataclass, through ``model._schema``: an int field rejects 2.5 as
a flag and in a scenario file, and a float field takes 0.5 in both.
"""

import argparse
from typing import get_type_hints

import pytest

from secalloc import cli
from secalloc.admm import AdmmConfig
from secalloc.centralized import SolverConfig
from secalloc.model import _schema

SCENARIO = (
    "behavior: {gamma: 0.5}\n"
    "targets:\n"
    "  - {id: t1, loss_value: 12.0}\n"
    "  - {id: t2, loss_value: 6.0}\n"
    "sources:\n"
    "  - {id: s1, supply_upper: 1.0}\n"
    "edges: complete\n"
)


def run(tmp_path, capsys, argv, extra=""):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO + extra)
    try:
        code = cli.main([*argv, str(path), "-o", str(tmp_path / "out.txt")])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("verb, section", [("solve", "solver"), ("admm", "admm")])
def test_a_fractional_iteration_cap_is_rejected_by_both(verb, section, tmp_path, capsys):
    code, err = run(tmp_path, capsys, [verb, "--max-iterations", "2.5"])
    assert code == 2 and "argument --max-iterations: invalid int value: '2.5'" in err
    code, err = run(tmp_path, capsys, [verb], f"{section}: {{max_iterations: 2.5}}\n")
    assert code == 2 and f"line 8: {section}.max_iterations must be an integer" in err


def test_a_fractional_penalty_is_accepted_by_both(tmp_path, capsys):
    assert run(tmp_path, capsys, ["admm", "--eta", "0.5"]) == (0, "")
    assert run(tmp_path, capsys, ["admm"], "admm: {eta: 0.5}\n") == (0, "")


@pytest.mark.parametrize("verb, config_cls", [
    ("solve", SolverConfig), ("admm", AdmmConfig), ("sweep-gamma", SolverConfig),
    ("sweep-tau", SolverConfig),
])
def test_each_flag_converts_by_its_fields_annotation(verb, config_cls):
    [verbs] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a.type for a in verbs.choices[verb]._actions}
    annotations = get_type_hints(config_cls)
    assert list(_schema(config_cls)[0].items()) == list(annotations.items())
    for name, annotation in annotations.items():
        assert flags[name].__name__ == annotation.__name__
        assert flags[name]("3") == annotation("3") and type(flags[name]("3")) is annotation
