"""``write_scenario`` emits with libyaml's emitter where PyYAML has it and
every id is non-empty and printable, and with the pure emitter otherwise.
Either way it writes the bytes of ``yaml.safe_dump``, and
``parse_scenario`` reads them back to the same scenario.

The two emitters differ on an empty mapping key, a "\\r" key and long
strings with non-printable characters, and libyaml cannot encode a lone
surrogate; the property draws ids from those cases with a derandomized
hypothesis profile, so every run sees the same ones.
"""

import glob
import importlib.util
import os
from dataclasses import asdict, replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalloc.model import AttackProbabilityModel, SourceSpec, TargetSpec, TransportNetwork
from secalloc.scenario_io import ScenarioFile, build_case_study, parse_scenario, write_scenario

ROOT = os.path.join(os.path.dirname(__file__), "..")
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.yaml")))
PROPERTY = settings(derandomize=True, database=None, deadline=None)
HAS_LIBYAML = hasattr(yaml, "CSafeDumper")
needs_libyaml = pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")


def _generate():
    path = os.path.join(ROOT, "bench", "generate.py")
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(scenario):
    doc = {
        "behavior": asdict(scenario.behavior),
        "targets": [asdict(t) for t in scenario.network.targets],
        "sources": [asdict(s) for s in scenario.network.sources],
        "edges": "complete" if scenario.edges_complete else [list(e) for e in scenario.network.edges],
    }
    for key in ("solver", "admm"):
        if getattr(scenario, key):
            doc[key] = dict(getattr(scenario, key))
    return doc


def safe_dump(scenario):
    return yaml.safe_dump(_doc(scenario), default_flow_style=False, sort_keys=False)


def check_written(scenario):
    text = write_scenario(scenario)
    assert text == safe_dump(scenario)
    assert parse_scenario(text) == scenario


def seeded():
    """Complete, sparse and explicit-edge networks in canonical form, their
    values jittered so that every float carries all its digits."""
    generate = _generate()
    cases = {}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        cases[f"complete {seed}"] = generate.complete_network(rng, 6, 3)
        cases[f"sparse {seed}"] = generate.bounded_network(rng, 5, 3, solver={"mode": "op_b"})
        cases[f"explicit {seed}"] = generate.explicit_network(rng, 12, 4)
    return {
        name: canonical(generate.jitter(scenario, np.random.default_rng(7), 0.01))
        for name, scenario in cases.items()
    }


def canonical(scenario):
    """The scenario with each source's utility slopes spelled out for its
    targets, as parse_scenario fills them in."""
    network = scenario.network
    sources = tuple(
        replace(s, utility_coeffs={x: s.utility_slope(x) for x, y in network.edges if y == s.id})
        for s in network.sources
    )
    return replace(scenario, network=TransportNetwork(network.targets, sources, network.edges))


SEEDED = seeded()


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_scenarios(path):
    with open(path, encoding="utf-8") as handle:
        check_written(parse_scenario(handle.read()))


@pytest.mark.parametrize("name", list(SEEDED))
def test_seeded_networks(name):
    check_written(SEEDED[name])


# ids where the emitters differ, or that sit next to such a case
DIVERGENT_IDS = [
    "", "\r", " ", "\x85", "\t", "\ufeff", "s\ud800", "\udfff", "a\x85" * 30,
    "x" * 90 + "\x01", "a b " * 30, "null", "1.0", "- a", "\xe9", "\U0001f600",
]
ids = st.one_of(
    st.sampled_from(DIVERGENT_IDS),
    st.text(max_size=100),
    st.text(alphabet=st.sampled_from("a \r\x85\x01\ud800:#"), max_size=120),
)
values = st.floats(1e-300, 1e300)


@st.composite
def scenarios(draw):
    n_targets, n_sources = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    target_ids = draw(st.lists(ids, min_size=n_targets, max_size=n_targets, unique=True))
    source_ids = draw(st.lists(ids, min_size=n_sources, max_size=n_sources, unique=True))
    targets = tuple(
        TargetSpec(x, draw(values), AttackProbabilityModel.exponential(draw(values)))
        for x in target_ids
    )
    sources = tuple(
        SourceSpec(y, draw(values), utility_coeffs={x: draw(values) for x in target_ids})
        for y in source_ids
    )
    network = TransportNetwork.complete(targets, sources)
    complete = draw(st.booleans())
    return ScenarioFile(network, build_case_study()[1], complete, {}, {})


def _with_ids(target_id, source_id):
    scenario = SEEDED["sparse 0"]
    network = scenario.network
    rename = {network.targets[0].id: target_id, network.sources[0].id: source_id}
    targets = (replace(network.targets[0], id=target_id), *network.targets[1:])
    coeffs = [{rename.get(x, x): c for x, c in s.utility_coeffs.items()} for s in network.sources]
    sources = tuple(
        replace(s, id=rename.get(s.id, s.id), utility_coeffs=c)
        for s, c in zip(network.sources, coeffs)
    )
    edges = tuple((rename.get(x, x), rename.get(y, y)) for x, y in network.edges)
    return replace(scenario, network=TransportNetwork(targets, sources, edges))


@settings(PROPERTY, max_examples=200)
@given(scenarios())
@example(_with_ids("", "s1"))
@example(_with_ids("\r", "s\ud800"))
@example(_with_ids("a\x85" * 30, "\x85"))
def test_divergent_ids(scenario):
    check_written(scenario)


@needs_libyaml
@pytest.mark.parametrize(
    "target_id, emitter",
    [("t1", "CSafeDumper"), (" ", "CSafeDumper"), ("", "SafeDumper"), ("\r", "SafeDumper"),
     ("\x85", "SafeDumper"), ("s\ud800", "SafeDumper")],
)
def test_emitter_follows_the_ids(target_id, emitter, monkeypatch):
    dumpers = []
    dump = yaml.dump

    def recording(doc, **kwargs):
        dumpers.append(kwargs["Dumper"])
        return dump(doc, **kwargs)

    monkeypatch.setattr(yaml, "dump", recording)
    check_written(_with_ids(target_id, "s1"))
    assert dumpers == [getattr(yaml, emitter)]
