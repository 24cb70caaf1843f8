"""Targets whose numbers reach the float range.

A water-filling threshold whose amount lies past the largest float reads
inf, with no RuntimeWarning, and the water profile funds the top target
alone. Its finite neighbours keep their values bit for bit.
``TransportNetwork`` rejects targets whose total loss value overflows,
and ``parse_scenario`` anchors that at the targets section, so every verb
exits 2.
"""

import math
import re

import pytest

from helpers import complete_network
from secalloc import cli
from secalloc.centralized import solve_op_a
from secalloc.errors import DomainError, PreconditionError, ScenarioError
from secalloc.model import AttackProbabilityModel, BehavioralModel, TargetSpec
from secalloc.scenario_io import parse_scenario
from secalloc.waterfill import gamma_sensitivity, threshold, waterfill_allocate

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# (loss values, family, baseline, budget) at gamma 1e-9, where each target's
# marginal falls about as 1/L: the threshold's L is about L(0) U_1 / U_2,
# 8.75e309 for the first network and 1e600 for the last, and its amount
# past the float range; at the last baseline the largest float amount's L
# is itself past it
PAST_THE_RANGE = {
    "exponential": ([1.5e308, 12.0], "exponential", 700.0, 1.0),
    "reciprocal": ([1e300, 1e-300], "reciprocal", 2.0, 10.0),
    "exponential baseline 1e300": ([1e300, 1.0], "exponential", 1e300, 1.0),
}
VERBS = ("solve --mode op_a", "solve --mode op_b", "waterfill", "admm", "sweep-gamma", "sweep-tau")
TOTAL_LOSS = """behavior:
  gamma: 0.5
targets:
  - {id: t1, loss_value: 1.5e+308, prob_model: {family: exponential, baseline: 1.0e-300}}
  - {id: t2, loss_value: 1.2e+308, prob_model: {family: exponential, baseline: 1.0e-300}}
sources:
  - {id: s1, supply_upper: 1.0e-300}
edges: complete
"""


@pytest.mark.parametrize("name", PAST_THE_RANGE)
def test_a_threshold_past_the_float_range_reads_inf(name):
    losses, family, baseline, budget = PAST_THE_RANGE[name]
    network, behavior = complete_network(losses, [budget], baseline, family), BehavioralModel(1e-9)
    trace = waterfill_allocate(network, behavior)
    assert trace.thresholds.entries == {("t1", "t2"): math.inf}
    assert trace.breakpoints == (0.0, math.inf)
    assert trace.final_aggregates == {"t1": budget, "t2": 0.0}
    plan = solve_op_a(network, behavior).plan
    assert {t: plan.aggregate_at_target(t) for t in ("t1", "t2")} == trace.final_aggregates


@pytest.mark.parametrize("name", PAST_THE_RANGE)
def test_the_waterfill_verb_writes_inf_thresholds(name, tmp_path):
    losses, family, baseline, budget = PAST_THE_RANGE[name]
    path, out = tmp_path / "scenario.yaml", tmp_path / "out.txt"
    path.write_text(
        "behavior:\n  gamma: 1.0e-9\ntargets:\n"
        + "".join(f"  - {{id: t{k + 1}, loss_value: {u!r}, prob_model: {{family: {family}, "
                  f"baseline: {baseline!r}}}}}\n" for k, u in enumerate(losses))
        + f"sources:\n  - {{id: s1, supply_upper: {budget!r}}}\nedges: complete\n"
    )
    assert cli.main(["waterfill", str(path), "-o", str(out)]) == 0
    assert "  t1 t2 inf\n" in out.read_text() and "  t2 inf\n" in out.read_text()


def test_gamma_sensitivity_rejects_a_threshold_past_the_float_range():
    network = complete_network([1.5e308, 12.0], [1.0], 700.0)
    with pytest.raises(PreconditionError, match="finite threshold of t1 against t2"):
        gamma_sensitivity(*network.targets, BehavioralModel(1e-9))


@pytest.mark.parametrize("loss_value, expected", [(3e306, 1.7499999999994919e308), (3.1e306, math.inf)])
def test_the_largest_finite_threshold_is_kept(loss_value, expected):
    prob = AttackProbabilityModel.exponential(700.0)
    pair = TargetSpec("t1", loss_value, prob), TargetSpec("t2", 12.0, prob)
    assert threshold(*pair, BehavioralModel(1e-9)) == expected


@pytest.mark.parametrize("verb", VERBS)
def test_every_verb_rejects_a_total_loss_past_the_float_range(verb, tmp_path, capsys):
    path, out = tmp_path / "scenario.yaml", tmp_path / "out.txt"
    path.write_text(TOTAL_LOSS)
    assert cli.main([*verb.split(), str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "scenario error:\nline 4: targets: the total loss_value overflows\n"
    assert list(tmp_path.iterdir()) == [path]


def test_the_network_rejects_a_total_loss_past_the_float_range():
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(TOTAL_LOSS)
    assert caught.value.diagnostics == ("line 4: targets: the total loss_value overflows",)
    with pytest.raises(DomainError, match=f"^{re.escape('the total loss_value overflows')}$"):
        complete_network([1.5e308, 1.2e308], [1e-300], 1e-300)
    assert complete_network([1.5e308, 1e300], [1e-300], 1e-300).edge_index.loss_values.sum() < math.inf
