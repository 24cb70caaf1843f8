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

