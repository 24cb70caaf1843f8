"""Valid numbers whose products or sums leave the float range.

``_pgd`` doubles its step where x moved and y'y underflows to 0: a utility
slope of 1e200 sets a cost scale under which the other target's scaled
gradient barely moves. ``TransportNetwork`` rejects a network whose total
supply, or whose largest reachable source utility,
sum_y supply_upper_y * max_x |tau_y c_xy|, overflows; ``parse_scenario``
reports it as a line-anchored ScenarioError, so every verb exits 2.
"""

import re
import warnings

import pytest

from secalloc import centralized, cli
from secalloc.errors import DomainError, ScenarioError
from secalloc.model import BehavioralModel, SourceSpec, TargetSpec, TransportNetwork
from secalloc.scenario_io import parse_scenario

HEAD = """behavior:
  gamma: 0.5
targets:
  - {id: t1, loss_value: 12.0, prob_model: {family: exponential, baseline: 1.0}}
  - {id: t2, loss_value: 9.0, prob_model: {family: exponential, baseline: 1.0}}
sources:
"""
SCENARIOS = {
    "BB step": ("  - {id: s1, supply_upper: 1.0, weight_tau: 0.25, utility_coeffs: {t1: 1.0e+200}}\n", (0, 5)),
    "nan utility": ("  - {id: s1, supply_upper: 1.0, weight_tau: 1.0e+300, "
                    "utility_coeffs: {t1: 1.0e+300, t2: -1.0e+300}}\n", (2,)),
    "inf supply": ("  - {id: s1, supply_upper: 1.5e+308}\n  - {id: s2, supply_upper: 1.5e+308}\n", (2,)),
}
VERBS = ("solve --mode op_a", "solve --mode op_b", "waterfill", "admm", "sweep-gamma", "sweep-tau")
UTILITY = "the largest source utility, the sum of supply_upper * max |weight_tau * utility_coeffs|, overflows"


def text(name):
    return HEAD + SCENARIOS[name][0] + "edges: complete\n"


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_every_verb_exits_with_its_code_and_writes_no_nan(name, verb, tmp_path, capsys):
    path, out = tmp_path / "scenario.yaml", tmp_path / "out.txt"
    path.write_text(text(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*verb.split(), str(path), "-o", str(out)])
    assert code in SCENARIOS[name][1]
    written = [p.read_text() for p in tmp_path.iterdir() if p != path]
    assert not any("nan" in w for w in written)
    if code == 2:
        assert written == [] and "line 7: sources: " in capsys.readouterr().err


def test_op_b_doubles_the_step_where_y_y_underflows():
    scenario = parse_scenario(text("BB step"))
    report = centralized.solve_op_b(scenario.network, scenario.behavior)
    assert report.converged and report.iterations == 2
    assert report.plan.aggregate_at_target("t1") == 1.0 and report.plan.aggregate_at_target("t2") == 0.0


def test_parse_scenario_anchors_the_overflow_at_the_sources():
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text("nan utility"))
    assert caught.value.diagnostics == (f"line 7: sources: {UTILITY}",)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text("inf supply"))
    assert caught.value.diagnostics == ("line 7: sources: the total supply_upper overflows",)


def network(*sources):
    return TransportNetwork.complete((TargetSpec("t1", 12.0), TargetSpec("t2", 9.0)), sources)


@pytest.mark.parametrize(
    "sources, message",
    [
        ((SourceSpec("s1", 1.5e308), SourceSpec("s2", 1.5e308)), "the total supply_upper overflows"),
        ((SourceSpec("s1", 1e10, weight_tau=1.0, utility_coeffs={"t1": 1e300}),), UTILITY),
        ((SourceSpec("s1", 1.0, weight_tau=1e300, utility_coeffs={"t2": -1e300}),), UTILITY),
        ((SourceSpec("s1", 1e300, weight_tau=1e8), SourceSpec("s2", 1e300, weight_tau=1e8)), UTILITY),
    ],
    ids=["supplies", "supply times slope", "tau times slope", "sum over sources"],
)
def test_the_network_rejects_totals_past_the_float_range(sources, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        network(*sources)


def test_the_largest_finite_totals_are_kept():
    kept = network(SourceSpec("s1", 8e307, weight_tau=1.0, utility_coeffs={"t1": 2.0, "t2": -2.0}),
                   SourceSpec("s2", 1e307))
    assert kept.total_supply() == 9e307
    assert centralized.solve_op_a(kept, BehavioralModel(0.5)).converged


def test_sweep_tau_rejects_a_grid_whose_stop_overflows(tmp_path, capsys):
    path, out = tmp_path / "scenario.yaml", tmp_path / "out.csv"
    path.write_text(HEAD + "  - {id: s1, supply_upper: 1.0e+10, utility_coeffs: {t1: 1.0e+300}}\nedges: complete\n")
    assert cli.main(["sweep-tau", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"scenario error:\ntau grid --stop leaves the float range ({UTILITY}), got 1.0\n"
    assert not out.exists()
