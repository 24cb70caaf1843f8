"""A solve report scores the solver's own edge vector.

``centralized._report`` scores the vector x a solve ended at, where the
public functions score the plan built from it. The plan's amounts are x's
floats, so the report's losses and utility must equal ``true_loss``,
``perceived_loss`` and ``tau_c @ to_vector(plan)`` on the reported plan to
the last bit, for op_a, op_b and ``run_admm``, on the shipped scenarios and
the binding-cap networks (whose target caps bind in op_b).
"""

from pathlib import Path

import pytest

from secalloc import cli
from secalloc.admm import AdmmConfig, run_admm
from secalloc.centralized import SolverConfig, solve_op_a, solve_op_b
from secalloc.model import perceived_loss, true_loss
from secalloc.scenario_io import parse_scenario
from test_admm_binding_caps import NETWORKS as BINDING_CAPS

SCENARIOS = {path.stem: path.read_text() for path in sorted((Path(__file__).parent.parent / "scenarios").glob("*.yaml"))}
SCENARIOS.update({f"binding caps {name}": text for name, text in BINDING_CAPS.items()})
SOLVERS = {
    "op_a": lambda s: solve_op_a(s.network, s.behavior, cli._config(SolverConfig, s.solver)),
    "op_b": lambda s: solve_op_b(s.network, s.behavior, cli._config(SolverConfig, s.solver)),
    "admm": lambda s: run_admm(s.network, s.behavior, cli._config(AdmmConfig, s.admm)),
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_the_report_scores_its_plan_to_the_bit(name, solver):
    scenario = parse_scenario(SCENARIOS[name])
    network, report = scenario.network, SOLVERS[solver](scenario)
    index = network.edge_index
    assert report.true_loss.hex() == true_loss(network, report.plan).hex()
    assert report.perceived_loss.hex() == perceived_loss(network, report.plan, scenario.behavior).hex()
    assert report.source_utility.hex() == float(index.tau_c @ index.to_vector(report.plan)).hex()
