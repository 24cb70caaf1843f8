"""Scenario files are read with libyaml's parser where PyYAML has it, and a
file that libyaml rejects is read again by the pure-Python reader. So a file
the pure reader accepts parses to the same scenario, and a rejected file gets
the pure reader's messages; the only change is that some files the pure
reader cannot read are accepted. Both parsers feed one composer, which caps
how deep collections nest.

The property mutates the shipped scenarios with a derandomized hypothesis
profile, so every run sees the same cases.
"""

import glob
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalloc import cli, scenario_io
from secalloc.errors import ScenarioError
from secalloc.scenario_io import MAX_NESTING, ScenarioFile, parse_scenario
from test_input_errors import VALID

ROOT = os.path.join(os.path.dirname(__file__), "..")
SHIPPED = [
    open(path, encoding="utf-8").read()
    for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.yaml")))
]
PROPERTY = settings(derandomize=True, database=None, deadline=None)
HAS_LIBYAML = hasattr(yaml, "CSafeLoader")
needs_libyaml = pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")

# characters where libyaml and the pure reader differ, or that neither allows
# (NUL, lone surrogates), and YAML's indicators and breaks
CHARACTERS = [
    "\t", "?", "!", "\ufeff", "\x00", "\r", "\ud800", "\udfff",
    " ", "\n", ":", "-", "#", "[", "]", "{", "}", ",", "'", '"',
    "&", "*", "|", ">", "%", "@", "\x85", "\u2028", "\xe9", "0", "a",
]


def _outcome(parse, text):
    """The scenario ``parse`` returns, or the diagnostics it raises."""
    try:
        return parse(text)
    except ScenarioError as exc:
        return exc.diagnostics


def _pure(text):
    return scenario_io._parse_with(text, scenario_io._PureLoader)


@st.composite
def mutated_scenarios(draw):
    text = draw(st.sampled_from(SHIPPED))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        character = "" if edit == "delete" else draw(st.sampled_from(CHARACTERS))
        text = text[:k] + character + text[k + (edit != "insert"):]
    return text


@settings(PROPERTY, max_examples=300)
@given(mutated_scenarios())
@example(VALID.replace("gamma: 0.5", "gamma:\t0.5"))
@example(VALID.replace("s1", "s\ud800"))
@example(VALID.replace("{family: exponential", "{family:, exponential"))
@example(VALID.replace("sources:\n", "sources:\n\ufeff"))
@example(VALID.replace("id: s1", "id: s?1"))
@example(VALID.replace("\n", "\r\n"))
@example(VALID.replace("\n", "\r"))
@example(VALID + "\x00")
def test_pure_reader_verdicts_stand(text):
    expected = _outcome(_pure, text)
    got = _outcome(parse_scenario, text)
    if isinstance(expected, ScenarioFile) or not isinstance(got, ScenarioFile):
        assert got == expected


def test_shipped_scenarios_parse_alike():
    for text in SHIPPED:
        assert parse_scenario(text) == _pure(text)


@needs_libyaml
@pytest.mark.parametrize(
    "text, reads_as",
    [
        (VALID.replace("gamma: 0.5", "gamma:\t0.5"), VALID),  # a tab as separation
        (VALID.replace("sources:\n", "sources:\n\ufeff"), VALID),  # U+FEFF in the document
        # a ? in a plain scalar of a flow mapping, which the pure reader
        # takes for an explicit key
        (VALID.replace("id: s1", "id: s?1"), VALID.replace("id: s1", "id: 's?1'")),
    ],
    ids=["tab", "bom-inside", "question-mark"],
)
def test_libyaml_accepts_what_the_pure_reader_cannot_read(text, reads_as):
    with pytest.raises(ScenarioError):
        _pure(text)
    assert parse_scenario(text) == _pure(reads_as)


def test_lone_surrogate_is_a_diagnostic():
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(VALID.replace("s1", "s\ud800"))
    assert caught.value.diagnostics == ("line 6: character #xd800 is not allowed",)


def test_file_libyaml_rejects_gets_the_pure_readers_messages():
    text = VALID.replace("{family: exponential", "{family:, exponential")
    if HAS_LIBYAML:
        with pytest.raises(ScenarioError):
            scenario_io._parse_with(text, scenario_io._LibyamlLoader)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert caught.value.diagnostics == (
        "line 4: unknown key targets[0].prob_model.exponential",
        "line 4: targets[0].prob_model.family must be exponential or reciprocal",
    )


def test_without_libyaml_the_pure_reader_decides(monkeypatch):
    monkeypatch.setattr(scenario_io, "_LibyamlLoader", None)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(VALID.replace("gamma: 0.5", "gamma:\t0.5"))
    assert caught.value.diagnostics == ("line 2: found character '\\t' that cannot start any token",)


# --------------------------------------------------------------------------
# nesting: past MAX_NESTING collections, a line-anchored error, never a crash


def _flow(depth: int) -> str:
    return VALID.replace("gamma: 0.5", "gamma: " + "[" * depth + "]" * depth)


def _block(depth: int) -> str:
    return VALID.replace("gamma: 0.5", "gamma:\n" + "".join(
        "  " * (level + 2) + "- \n" for level in range(depth)
    ))


MESSAGE = f"collections nest deeper than {MAX_NESTING} levels"


@pytest.mark.parametrize(
    "text, line", [(_flow(600), 2), (_block(600), 1 + MAX_NESTING)], ids=["flow", "block"]
)
def test_deep_nesting_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["solve", str(path), "-o", str(tmp_path / "report.txt")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SCENARIO
    assert f"line {line}: {MESSAGE}" in err
    assert "Traceback" not in err


def test_nesting_at_the_limit_reads_to_a_diagnostic():
    # the root and behavior mappings are two levels, so gamma's value may
    # hold MAX_NESTING - 2 more
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(_flow(MAX_NESTING - 2))
    assert caught.value.diagnostics == ("line 2: behavior.gamma must be a number",)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(_flow(MAX_NESTING - 1))
    assert caught.value.diagnostics == (f"line 2: {MESSAGE}",)


def test_hundred_thousand_levels_exit_2_in_a_fresh_interpreter(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(_flow(100_000), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "secalloc.cli", "solve", str(path), "-o", str(tmp_path / "r.txt")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == cli.EXIT_SCENARIO
    assert f"line 2: {MESSAGE}" in done.stderr
    assert "Traceback" not in done.stderr
