"""One set of value rules for scenario fields, solver overrides and CLI flags.

The fuzz property breaks one field, key or override of a valid scenario at
a time; the round-trip property writes and reparses random valid
scenarios. Both use a derandomized hypothesis profile, so every run sees
the same cases.
"""

import contextlib
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalloc import cli
from secalloc.admm import AdmmConfig
from secalloc.centralized import SolverConfig
from secalloc.errors import DomainError, ScenarioError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    bound_problems,
    field_problem,
)
from secalloc.scenario_io import ScenarioFile, parse_scenario, write_scenario

PROPERTY = settings(derandomize=True, database=None, deadline=None)
CASE_STUDY = os.path.join(os.path.dirname(__file__), "..", "scenarios", "case_study.yaml")

# A scenario as a tree: a mapping is a tuple of (key, value) pairs, so that
# a key can repeat; a list is a list; a scalar is its YAML text.
BASE = (
    ("behavior", (("gamma", "0.5"),)),
    ("targets", [
        (("id", "t1"), ("loss_value", "12.0"),
         ("prob_model", (("family", "exponential"), ("baseline", "1.0"))),
         ("demand_lower", "0.5"), ("demand_upper", "8.0")),
        (("id", "t2"), ("loss_value", "9.0"),
         ("prob_model", (("family", "reciprocal"), ("baseline", "2.0")))),
    ]),
    ("sources", [
        (("id", "s1"), ("supply_upper", "10.0"), ("supply_lower", "1.0"),
         ("weight_tau", "0.25"), ("utility_coeffs", (("t1", "1.0"), ("t2", "2.0")))),
    ]),
    ("edges", "complete"),
    ("solver", (("mode", "op_a"), ("step_size", "1.0"), ("max_iterations", "20000"),
                ("gradient_tolerance", "1.0e-7"), ("objective_tolerance", "1.0e-10"))),
    ("admm", (("eta", "1.0"), ("max_iterations", "5000"),
              ("primal_tolerance", "1.0e-6"), ("dual_tolerance", "1.0e-6"))),
)
BAD_VALUES = ["nan", ".inf", "-.inf", "0", "-1", "abc", "[1]", "{a: 1}"]


def render(node, indent=0):
    pad = " " * indent
    lines = []
    if isinstance(node, tuple):
        for key, value in node:
            if isinstance(value, str):
                lines.append(f"{pad}{key}: {value}")
            else:
                lines.append(f"{pad}{key}:")
                lines += render(value, indent + 2)
        return lines
    for item in node:
        first, *rest = render(item, indent + 2)
        lines += [f"{pad}- {first.lstrip()}", *rest]
    return lines


def to_text(tree):
    return "\n".join(render(tree)) + "\n"


def edit(node, path, change):
    """``node`` with ``change`` applied to the subtree at ``path``."""
    if not path:
        return change(node)
    head, rest = path[0], path[1:]
    if isinstance(node, tuple):
        return tuple((k, edit(v, rest, change) if k == head else v) for k, v in node)
    return [edit(v, rest, change) if i == head else v for i, v in enumerate(node)]


def walk(node, path=()):
    """(path, node) of every mapping and scalar in the tree."""
    yield path, node
    if isinstance(node, tuple):
        for key, value in node:
            yield from walk(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, path + (i,))


LEAVES = [p for p, n in walk(BASE) if isinstance(n, str)]
KEYS = [(p, k) for p, n in walk(BASE) if isinstance(n, tuple) for k, _ in n]
MAPPINGS = [p for p, n in walk(BASE) if isinstance(n, tuple)]


@st.composite
def broken_scenarios(draw):
    """BASE with one field set to a bad value, or one key dropped, added or repeated."""
    kind = draw(st.sampled_from(["set", "drop", "unknown", "duplicate"]))
    if kind == "set":
        value = draw(st.sampled_from(BAD_VALUES))
        return to_text(edit(BASE, draw(st.sampled_from(LEAVES)), lambda _: value))
    if kind == "unknown":
        path = draw(st.sampled_from(MAPPINGS))
        return to_text(edit(BASE, path, lambda m: m + (("bogus", "1"),)))
    path, key = draw(st.sampled_from(KEYS))
    if kind == "drop":
        return to_text(edit(BASE, path, lambda m: tuple(kv for kv in m if kv[0] != key)))
    return to_text(edit(BASE, path, lambda m: m + ((key, dict(m)[key]),)))


def with_leaf(path, value):
    return to_text(edit(BASE, path, lambda _: value))


def table_problems(scenario):
    """(field, phrase) for every value of ``scenario`` that the rules reject."""
    found = []

    def check(record, family=None):
        for name, value in record.items():
            problem = field_problem(name.split(".")[0], value, family)
            if problem:
                found.append((name, problem))
        found.extend((None, phrase) for phrase in bound_problems(record))

    check({"gamma": scenario.behavior.gamma})
    for t in scenario.network.targets:
        check({"loss_value": t.loss_value, "demand_lower": t.demand_lower,
               "demand_upper": t.demand_upper})
        check({"family": t.prob_model.family, "baseline": t.prob_model.baseline},
              t.prob_model.family)
    for s in scenario.network.sources:
        check({"supply_upper": s.supply_upper, "supply_lower": s.supply_lower,
               "weight_tau": s.weight_tau,
               **{f"utility_coeffs.{x}": c for x, c in s.utility_coeffs.items()}})
    check(dict(scenario.solver))
    check(dict(scenario.admm))
    return found


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class TestFuzzedScenarios:
    def test_base_scenario_is_valid(self):
        assert table_problems(parse_scenario(to_text(BASE))) == []

    @settings(PROPERTY, max_examples=200)
    @given(broken_scenarios())
    @example(with_leaf(("targets", 0, "demand_lower"), "nan"))
    @example(with_leaf(("targets", 0, "demand_upper"), "nan"))
    @example(with_leaf(("sources", 0, "supply_lower"), "nan"))
    @example(with_leaf(("targets", 0, "loss_value"), ".inf"))
    @example(with_leaf(("targets", 0, "prob_model", "baseline"), ".inf"))
    @example(with_leaf(("targets", 0, "demand_lower"), ".inf"))
    @example(with_leaf(("solver", "step_size"), ".inf"))
    @example(with_leaf(("solver", "gradient_tolerance"), ".inf"))
    @example(with_leaf(("admm", "eta"), ".inf"))
    def test_parse_accepts_only_valid_values_and_cli_exits_2(self, text):
        try:
            scenario = parse_scenario(text)
        except ScenarioError as exc:
            assert exc.diagnostics
            for message in exc.diagnostics:
                assert re.match(r"line \d+: ", message), message
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "broken.yaml")
                with open(path, "w") as handle:
                    handle.write(text)
                code, err = run_cli(["solve", path, "-o", os.path.join(tmp, "out")])
            assert code == cli.EXIT_SCENARIO
            assert "Traceback" not in err
        else:
            assert table_problems(scenario) == []

    def test_duplicate_utility_coeff_key(self):
        coeffs = (("t1", "1.0"), ("t1", "5.0"), ("t2", "2.0"))
        text = to_text(edit(BASE, ("sources", 0, "utility_coeffs"), lambda _: coeffs))
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert info.value.diagnostics == ("line 23: duplicate key 't1'",)


def _finite(lo, hi, exclude_min=False):
    return st.floats(min_value=lo, max_value=hi, exclude_min=exclude_min,
                     allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw):
    """Random valid scenarios: both families, .inf and finite demand caps,
    floors, complete or explicit edges, and solver/admm overrides."""
    n_targets, n_sources = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    targets = []
    for k in range(n_targets):
        family = draw(st.sampled_from(["exponential", "reciprocal"]))
        floor = 0.0 if family == "exponential" else 1.0
        lower = draw(st.just(0.0) | _finite(0.0, 1e3))
        upper = draw(st.just(math.inf) | _finite(lower, lower + 1e3))
        targets.append(TargetSpec(
            f"t{k}", draw(_finite(0.0, 1e6, exclude_min=True)),
            AttackProbabilityModel(family, draw(_finite(floor, 50.0, exclude_min=True))),
            lower, upper,
        ))
    complete = draw(st.booleans())
    pairs = [(t.id, f"s{j}") for t in targets for j in range(n_sources)]
    edges = pairs
    if not complete:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
        for t in targets:  # every node keeps an incident edge
            chosen.append((t.id, f"s{draw(st.integers(0, n_sources - 1))}"))
        for j in range(n_sources):
            chosen.append((targets[draw(st.integers(0, n_targets - 1))].id, f"s{j}"))
        edges = draw(st.permutations(sorted(set(chosen))))
    sources = []
    for j in range(n_sources):
        upper = draw(_finite(0.0, 1e4, exclude_min=True))
        incident = [x for x, y in edges if y == f"s{j}"]
        sources.append(SourceSpec(
            f"s{j}", upper, draw(st.just(0.0) | _finite(0.0, upper)),
            draw(_finite(0.0, 10.0)),
            {x: draw(_finite(-10.0, 10.0)) for x in incident},
        ))
    positive = _finite(0.0, 1e3, exclude_min=True)
    solver = draw(st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["op_a", "op_b"]),
        "step_size": positive,
        "max_iterations": st.integers(1, 10**6),
        "gradient_tolerance": positive,
        "objective_tolerance": positive,
    }))
    admm = draw(st.fixed_dictionaries({}, optional={
        "eta": positive,
        "max_iterations": st.integers(1, 10**6),
        "primal_tolerance": positive,
        "dual_tolerance": positive,
    }))
    network = TransportNetwork(tuple(targets), tuple(sources), tuple(edges))
    behavior = BehavioralModel(draw(_finite(0.0, 1.0, exclude_min=True)))
    return ScenarioFile(network, behavior, complete, solver, admm)


@settings(PROPERTY, max_examples=150)
@given(valid_scenarios())
def test_write_then_parse_round_trips(scenario):
    assert parse_scenario(write_scenario(scenario)) == scenario


SOLVER_FLAGS = ["--step-size", "--max-iterations", "--gradient-tolerance", "--objective-tolerance"]
ADMM_FLAGS = ["--eta", "--max-iterations", "--primal-tolerance", "--dual-tolerance"]
FLAG_CASES = [
    (verb, flag) for verb in ("solve", "sweep-gamma", "sweep-tau") for flag in SOLVER_FLAGS
] + [("admm", flag) for flag in ADMM_FLAGS]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("verb, flag", FLAG_CASES)
def test_bad_flag_value_is_a_usage_error(verb, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([verb, CASE_STUDY, flag, value, "-o", str(tmp_path / "out")])
    assert info.value.code == cli.EXIT_SCENARIO
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "Traceback" not in err


PROB = AttackProbabilityModel.exponential(1.0)
# (constructor, field, value) that the constructors accepted before the
# table, and that scenario files reject
NEWLY_REJECTED = [
    (lambda **kw: TargetSpec("t", **{"loss_value": 1.0, "prob_model": PROB, **kw}), name, value)
    for name, value in (("loss_value", math.inf), ("demand_lower", math.inf))
] + [
    (lambda **kw: AttackProbabilityModel(family, **kw), "baseline", math.inf)
    for family in ("exponential", "reciprocal")
] + [
    (config, name, value)
    for config, names in (
        (SolverConfig,
         ("step_size", "max_iterations", "gradient_tolerance", "objective_tolerance")),
        (AdmmConfig, ("eta", "max_iterations", "primal_tolerance", "dual_tolerance")),
    )
    for name in names
    for value in (math.nan, math.inf)
]


@pytest.mark.parametrize("make, name, value", NEWLY_REJECTED)
def test_constructors_reject_what_scenarios_reject(make, name, value):
    with pytest.raises(DomainError, match=f"{name} must be"):
        make(**{name: value})
