"""Each record's dataclass is its one schema.

The scenario reader takes a record's keys, scalar types and required keys
from the dataclass fields, the writer emits the fields in declaration
order, and the constructors check the fields that FIELD_RULES names. These
tests pin that all three follow the dataclasses, and pin the constructor
messages for crossed bounds.
"""

import dataclasses
import math
import types
from typing import Mapping

import pytest
import yaml

from secalloc.admm import AdmmConfig
from secalloc.centralized import SolverConfig
from secalloc.errors import DomainError, ScenarioError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    check_fields,
)
from secalloc.scenario_io import build_case_study_scenario, parse_scenario, write_scenario

MINIMAL = (
    "behavior: {gamma: 0.5}\n"
    "targets:\n"
    "  - {id: t1, loss_value: 12.0}\n"
    "sources:\n"
    "  - {id: s1, supply_upper: 3.0}\n"
    "edges: complete\n"
)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def required(cls):
    return [f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]


def test_omitted_keys_take_the_dataclass_defaults():
    scenario = parse_scenario(MINIMAL)
    assert scenario.network.targets == (TargetSpec("t1", 12.0),)
    assert scenario.network.targets[0].prob_model == AttackProbabilityModel.exponential(1.0)
    assert scenario.network.sources == (SourceSpec("s1", 3.0, utility_coeffs={"t1": 1.0}),)


def test_prob_model_defaults_to_exponential_one():
    assert TargetSpec("t", 1.0).prob_model == AttackProbabilityModel("exponential", 1.0)


@pytest.mark.parametrize(
    "section, cls, line",
    [("targets", TargetSpec, 3), ("sources", SourceSpec, 5)],
)
def test_fields_without_default_are_required(section, cls, line):
    keys = {"targets": "{id: t1, loss_value: 12.0}", "sources": "{id: s1, supply_upper: 3.0}"}
    text = MINIMAL.replace(keys[section], "{bogus_only: 1}")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    expected = [f"line {line}: unknown key {section}[0].bogus_only"] + [
        f"line {line}: {section}[0].{name} is required" for name in required(cls)
    ]
    assert [m for m in info.value.diagnostics if m.startswith(f"line {line}:")] == expected


def test_required_keys_are_the_fields_without_default():
    assert required(TargetSpec) == ["id", "loss_value"]
    assert required(SourceSpec) == ["id", "supply_upper"]
    assert required(AttackProbabilityModel) == ["family", "baseline"]
    assert required(BehavioralModel) == ["gamma"]
    assert required(SolverConfig) == required(AdmmConfig) == []


def test_writer_emits_every_field_in_declaration_order():
    scenario = build_case_study_scenario()
    doc = yaml.safe_load(write_scenario(scenario))
    assert list(doc["behavior"]) == names(BehavioralModel)
    for target in doc["targets"]:
        assert list(target) == names(TargetSpec)
        assert list(target["prob_model"]) == names(AttackProbabilityModel)
    for source in doc["sources"]:
        assert list(source) == names(SourceSpec)


def test_writer_takes_any_mapping_of_utility_slopes():
    scenario = build_case_study_scenario()
    sources = tuple(
        dataclasses.replace(s, utility_coeffs=types.MappingProxyType(dict(s.utility_coeffs)))
        for s in scenario.network.sources
    )
    network = TransportNetwork(scenario.network.targets, sources, scenario.network.edges)
    proxied = dataclasses.replace(scenario, network=network)
    assert write_scenario(proxied) == write_scenario(scenario)


@pytest.mark.parametrize(
    "section, cls",
    [("solver", SolverConfig), ("admm", AdmmConfig)],
)
def test_config_sections_read_every_config_field(section, cls):
    overrides = "".join(
        f"  {f.name}: {f.default!r}\n" for f in dataclasses.fields(cls)
    )
    scenario = parse_scenario(MINIMAL + f"{section}:\n" + overrides)
    values = getattr(scenario, section)
    assert values == dataclasses.asdict(cls())
    assert all(type(values[f.name]) is type(f.default) for f in dataclasses.fields(cls))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TargetSpec("t", 1.0, demand_lower=3.0, demand_upper=2.0),
         "target t: demand_upper must be >= demand_lower"),
        (lambda: SourceSpec("s", 1.0, supply_lower=2.0),
         "source s: supply_lower must be <= supply_upper"),
    ],
    ids=["target-demand", "source-supply"],
)
def test_constructors_reject_crossed_bounds(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_a_rejected_field_is_reported_before_a_crossing():
    with pytest.raises(DomainError) as info:
        SourceSpec("s", -1.0, supply_lower=2.0)
    assert str(info.value) == "source s: supply_upper must be > 0, got -1.0"


def test_mapping_fields_are_checked_one_entry_at_a_time():
    with pytest.raises(DomainError) as info:
        SourceSpec("s", 1.0, utility_coeffs={"t1": 1.0, "t2": math.inf})
    assert str(info.value) == "source s: utility_coeffs.t2 must be finite, got inf"


@dataclasses.dataclass
class Probe:
    """A dataclass of no program type: check_fields checks the fields that
    FIELD_RULES names and passes over the rest."""

    family: str
    baseline: float
    note: str
    utility_coeffs: Mapping[str, float]


def test_check_fields_walks_any_dataclass():
    check_fields("probe", Probe("reciprocal", 2.0, "not checked", {"a": -3.0}))
    with pytest.raises(DomainError) as info:
        check_fields("probe", Probe("reciprocal", 0.5, "", {}))
    assert str(info.value) == "probe: baseline must be > 1 for reciprocal, got 0.5"
    with pytest.raises(DomainError) as info:
        check_fields("probe", Probe("exponential", 0.5, "", {"a": 1.0, "b": math.nan}))
    assert str(info.value) == "probe: utility_coeffs.b must be finite, got nan"
