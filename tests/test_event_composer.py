"""Both parsers feed one composer: a single loop over the parser's events
that builds PyYAML's node tree on a stack of open collections, and leaves
every tag unresolved.

Its trees must match the ones PyYAML's own recursive composer builds from
the same parser's events, node for node: kinds, values, styles, and start
and end marks, with aliases pointing at the same nodes. Tags are the one
exception. A file either composer rejects, the other rejects at the same
line. The property mutates the shipped scenarios with a derandomized
hypothesis profile, so every run sees the same cases.
"""

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings

from secalloc import scenario_io
from secalloc.errors import ScenarioError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from secalloc.scenario_io import ScenarioFile, parse_scenario, write_scenario
from test_loader_equivalence import HAS_LIBYAML, PROPERTY, SHIPPED, mutated_scenarios

if HAS_LIBYAML:

    class _PythonComposerOnLibyaml(yaml.composer.Composer, yaml.CSafeLoader):
        """PyYAML's recursive composer and tag resolver over libyaml's events."""

        def __init__(self, stream):
            yaml.CSafeLoader.__init__(self, stream)
            yaml.composer.Composer.__init__(self)

    # (loader under test, PyYAML's composer over the same parser)
    LOADERS = [
        (scenario_io._PureLoader, yaml.SafeLoader),
        (scenario_io._LibyamlLoader, _PythonComposerOnLibyaml),
    ]
else:
    LOADERS = [(scenario_io._PureLoader, yaml.SafeLoader)]


def _shape(node, seen):
    """``node``'s tree without tags; a node met again is named by the order
    in which it was first met, so aliases must point at the same nodes."""
    if id(node) in seen:
        return ("alias", seen[id(node)])
    seen[id(node)] = len(seen)
    marks = (node.start_mark.line, node.start_mark.column, node.end_mark.line, node.end_mark.column)
    # the parsers differ in how they spell "no style": libyaml reports a plain
    # scalar's style as "" and the pure parser as None, and the pure parser
    # reports an indentless block sequence's flow_style as None, libyaml False
    if isinstance(node, yaml.ScalarNode):
        return ("scalar", *marks, node.value, node.style or None)
    flow = bool(node.flow_style)
    if isinstance(node, yaml.SequenceNode):
        return ("sequence", *marks, flow, [_shape(v, seen) for v in node.value])
    return ("mapping", *marks, flow, [(_shape(k, seen), _shape(v, seen)) for k, v in node.value])


def _composed(text, loader):
    """The tree ``loader`` composes from ``text``, or the line it rejects."""
    try:
        node = yaml.compose(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:
        return ("rejected at line", exc.problem_mark.line)
    except yaml.reader.ReaderError as exc:
        return ("rejected at position", exc.position)
    except ValueError as exc:  # libyaml encodes the text to UTF-8
        return ("unreadable", type(exc).__name__)
    return None if node is None else _shape(node, {})


def _assert_composes_alike(text, against_safe_loader=False):
    for loader, reference in LOADERS:
        expected = _composed(text, yaml.SafeLoader if against_safe_loader else reference)
        assert _composed(text, loader) == expected, loader.__name__


def _seeded_scenario(seed: int) -> ScenarioFile:
    rng = np.random.default_rng(seed)
    n_targets, n_sources = rng.integers(2, 7), rng.integers(1, 4)
    families = ("exponential", 1.0 + rng.random()), ("reciprocal", 1.5 + rng.random())
    targets = tuple(
        TargetSpec(
            f"t{k}",
            float(rng.uniform(1.0, 20.0)),
            AttackProbabilityModel(*families[k % 2]),
            demand_lower=float(rng.uniform(0.0, 0.5)),
            demand_upper=float(rng.uniform(1.0, 5.0)) if k % 3 else float("inf"),
        )
        for k in range(n_targets)
    )
    # each target on one or two sources, and every source wired
    pairs = {(k, k % n_sources) for k in range(n_targets)}
    pairs |= {(k, int(rng.integers(n_sources))) for k in range(n_targets)}
    pairs |= {(j % n_targets, j) for j in range(n_sources)}
    edges = [(f"t{k}", f"s{j}") for k, j in sorted(pairs)]
    sources = tuple(
        SourceSpec(
            f"s{j}",
            float(rng.uniform(5.0, 10.0)),
            supply_lower=float(rng.uniform(0.0, 1.0)),
            weight_tau=float(rng.uniform(0.0, 1.0)),
            utility_coeffs={x: float(rng.uniform(0.5, 2.0)) for x, y in edges if y == f"s{j}"},
        )
        for j in range(n_sources)
    )
    network = TransportNetwork(targets, sources, tuple(edges))
    solver = {"mode": "op_b", "step_size": 0.5} if seed % 2 else {}
    admm = {"eta": 2.0, "max_iterations": 300} if seed % 3 else {}
    return ScenarioFile(network, BehavioralModel(float(rng.uniform(0.2, 1.0))), False, solver, admm)


EXPLICIT = [
    "a: &x [1, &y 2, *y]\nb: *x\n",
    "solver: &s {mode: *s}\n",
    "list: &l\n  - *l\n  - [*l]\n",
    "? key\n: value\n? [a, b]\n: {c: d}\n",
    "a: !!str 1\nb: !!float '2'\nc: !custom {d: e}\n",
    "base: &b {eta: 1.0}\nadmm:\n  <<: *b\n",
    "",  # an empty stream
    "--- \n...\n",  # a document with no content
    "# a comment only\n",
    "plain\n",
    "'single'\n",
    "block: |\n  text\nfolded: >-\n  more\n",
    "a: *undefined\n",
    "gamma: &g 0.8\nadmm: &g\n  eta: 1.0\n",  # a duplicate anchor
    "a: 1\n---\nb: 2\n",  # a second document
    "a: [1, 2\n",
]


@pytest.mark.parametrize("text", SHIPPED + EXPLICIT)
def test_explicit_and_shipped_texts_compose_as_pyyaml_does(text):
    _assert_composes_alike(text)
    _assert_composes_alike(text, against_safe_loader=True)


@pytest.mark.parametrize("seed", range(6))
def test_written_scenarios_compose_as_pyyaml_does(seed):
    text = write_scenario(_seeded_scenario(seed))
    _assert_composes_alike(text)
    _assert_composes_alike(text, against_safe_loader=True)
    assert parse_scenario(text) == _seeded_scenario(seed)


@settings(PROPERTY, max_examples=300)
@given(mutated_scenarios())
@example(SHIPPED[0].replace("behavior:", "behavior: &b", 1) + "again: *b\n")
@example(SHIPPED[0] + "again: *b\n")
def test_mutated_scenarios_compose_as_pyyaml_does(text):
    _assert_composes_alike(text)


# --------------------------------------------------------------------------
# neither PyYAML's recursive composer nor its tag resolver runs


def _explicit_edge_list(n_targets: int, n_sources: int) -> str:
    """A scenario whose edges are listed: each target on two sources."""
    prob = AttackProbabilityModel.exponential(1.0)
    targets = tuple(TargetSpec(f"t{k}", 1.0 + k % 7, prob) for k in range(n_targets))
    edges = sorted(
        {(f"t{k}", f"s{k % n_sources}") for k in range(n_targets)}
        | {(f"t{k}", f"s{(3 * k + 1) % n_sources}") for k in range(n_targets)}
    )
    sources = tuple(SourceSpec(f"s{j}", 10.0) for j in range(n_sources))
    network = TransportNetwork(targets, sources, tuple(edges))
    return write_scenario(ScenarioFile(network, BehavioralModel(0.5), False, {}, {}))


def test_no_recursive_composer_or_tag_resolver_runs(monkeypatch):
    texts = SHIPPED + [_explicit_edge_list(100, 20)]
    expected = [parse_scenario(text) for text in texts]

    def forbidden(*args, **kwargs):
        raise AssertionError("PyYAML's composer or resolver ran")

    monkeypatch.setattr(yaml.composer.Composer, "compose_node", forbidden)
    monkeypatch.setattr(yaml.resolver.BaseResolver, "resolve", forbidden)
    for text, scenario in zip(texts, expected):
        for loader, _ in LOADERS:
            assert scenario_io._parse_with(text, loader) == scenario
        assert parse_scenario(text) == scenario


# --------------------------------------------------------------------------
# the composer's own messages stand alone


SINGLE_EDGE = next(text for text in SHIPPED if "- [t1, s1]" in text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SINGLE_EDGE.replace("gamma: 0.8", "gamma: &g 0.8") + "admm: &g\n  eta: 1.0\n",
            "line 13: found duplicate anchor 'g' (first occurrence on line 3)",
        ),
        (
            SINGLE_EDGE + "---\nfoo: 1\n",
            "line 13: expected a single document in the stream, but found another document",
        ),
    ],
    ids=["duplicate-anchor", "second-document"],
)
def test_composer_messages_stand_alone(text, message):
    assert SINGLE_EDGE.count("\n") == 12
    for loader, _ in LOADERS:
        with pytest.raises(ScenarioError) as caught:
            scenario_io._parse_with(text, loader)
        assert caught.value.diagnostics == (message,)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert caught.value.diagnostics == (message,)


def test_duplicate_id_among_3000_targets_names_its_line():
    lines = ["behavior:", "  gamma: 0.5", "targets:"]
    lines += [f"  - {{id: t{k}, loss_value: 1.0}}" for k in range(3000)]
    lines[3 + 2500] = "  - {id: t10, loss_value: 1.0}"
    lines += ["sources:", "  - {id: s1, supply_upper: 3.0}", "edges: complete"]
    with pytest.raises(ScenarioError) as caught:
        parse_scenario("\n".join(lines) + "\n")
    assert caught.value.diagnostics == ("line 2504: duplicate target id 't10'",)
