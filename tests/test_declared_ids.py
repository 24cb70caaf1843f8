"""A record's id counts as declared once read, even when another field of
the record is rejected: references to it add no second diagnostic."""

import pytest

from secalloc.errors import ScenarioError
from secalloc.scenario_io import parse_scenario

SCENARIO = """
behavior:
  gamma: 0.5
targets:
  - id: t1
    loss_value: {t1_loss}
  - id: t2
    loss_value: 9.0
sources:
  - id: s1
    supply_upper: {s1_supply}
    utility_coeffs: {{t1: 0.5, t2: 1.0}}
  - id: s2
    supply_upper: 4.0
edges:
  - [t1, s1]
  - [t2, s1]
  - [t2, s2]
"""


@pytest.mark.parametrize(
    "t1_loss, s1_supply, message",
    [
        (".inf", "10.0", "targets[0].loss_value must be finite"),
        ("-3.0", "10.0", "targets[0].loss_value must be > 0"),
        ("12.0", ".inf", "sources[0].supply_upper must be finite"),
    ],
)
def test_rejected_field_is_the_only_diagnostic(t1_loss, s1_supply, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(SCENARIO.format(t1_loss=t1_loss, s1_supply=s1_supply))
    assert len(info.value.diagnostics) == 1
    assert message in info.value.diagnostics[0]


def test_the_scenario_parses_when_every_field_passes():
    scenario = parse_scenario(SCENARIO.format(t1_loss="12.0", s1_supply="10.0"))
    assert [t.id for t in scenario.network.targets] == ["t1", "t2"]
    assert scenario.network.source_by_id("s1").utility_coeffs == {"t1": 0.5, "t2": 1.0}



BOUNDED = """
behavior:
  gamma: 0.5
targets:
  - id: t1
    loss_value: 12.0
    demand_lower: {demand_lower}
    demand_upper: {demand_upper}
sources:
  - id: s1
    supply_upper: {supply_upper}
    supply_lower: {supply_lower}
edges: complete
"""


def bounded(demand_lower="0.0", demand_upper="8.0", supply_upper="4.0", supply_lower="1.0"):
    return BOUNDED.format(
        demand_lower=demand_lower,
        demand_upper=demand_upper,
        supply_upper=supply_upper,
        supply_lower=supply_lower,
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"supply_upper": "-1.0"}, "sources[0].supply_upper must be > 0"),
        ({"supply_lower": ".inf"}, "sources[0].supply_lower must be finite"),
        ({"demand_lower": ".inf"}, "targets[0].demand_lower must be finite"),
    ],
)
def test_a_rejected_bound_reports_no_crossing(fields, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(bounded(**fields))
    assert len(info.value.diagnostics) == 1
    assert message in info.value.diagnostics[0]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"supply_lower": "5.0"}, "sources[0]: supply_lower must be <= supply_upper"),
        ({"demand_lower": "9.0"}, "targets[0]: demand_upper must be >= demand_lower"),
        ({"demand_upper": "-1.0"}, "targets[0]: demand_upper must be >= demand_lower"),
    ],
)
def test_a_crossing_of_two_valid_bounds_is_still_reported(fields, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(bounded(**fields))
    assert len(info.value.diagnostics) == 1
    assert message in info.value.diagnostics[0]


def test_the_bounded_scenario_parses():
    scenario = parse_scenario(bounded())
    assert scenario.network.source_by_id("s1").supply_lower == 1.0
    assert scenario.network.target_by_id("t1").demand_upper == 8.0
