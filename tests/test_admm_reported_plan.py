"""`run_admm` reports the op_b projection of its consensus plan.

ADMM stops on absolute residual tolerances, so the consensus meets each
bound only to within them: on `single_edge` it gave `t1 s1 2.00000049`
against `supply_upper: 2.0`. Its report is the projection, which is
feasible.
"""

import os

import pytest

from test_projector import FAMILIES, SEEDS, sparse_network
from secalloc.admm import run_admm
from secalloc.centralized import feasibility_violation
from secalloc.model import BehavioralModel
from secalloc.scenario_io import parse_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# the projection's node sums meet a binding bound to rounding only; the
# raw consensus broke these networks' bounds by 2e-7 to 3e-6
ROUNDING = 1e-14


def test_single_edge_reports_a_plan_within_its_supply():
    with open(os.path.join(SCENARIO_DIR, "single_edge.yaml"), encoding="utf-8") as handle:
        scenario = parse_scenario(handle.read())
    report = run_admm(scenario.network, scenario.behavior)
    assert feasibility_violation(scenario.network, report.plan, "op_b") <= 0.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_binding_cap_networks_report_feasible_plans(seed, family):
    network = sparse_network(seed, family)
    report = run_admm(network, BehavioralModel(0.5))
    assert feasibility_violation(network, report.plan, "op_b") <= ROUNDING
