"""Projections and solves at totals far below 1.

The sort-based threshold counts the sorted entries that stay above their
running threshold. Where a total falls below the rounding of a row's
largest entry none does, and the threshold is the largest entry less the
total, which clears the row: the projection stays inside its bounds. The
projected gradient works in units of min(1, budget), so its first step
and its stop test hold at tiny budgets, and water-filling takes no Newton
step where no target is funded.
"""

import warnings

import numpy as np
import pytest

from helpers import complete_network
from secalloc import cli
from secalloc.admm import run_admm
from secalloc.centralized import (
    feasibility_violation,
    project_box_sum,
    project_feasible,
    solve_op_a,
    solve_op_b,
)
from secalloc.model import AllocationPlan, BehavioralModel
from secalloc.scenario_io import ScenarioFile, write_scenario
from secalloc.waterfill import waterfill_allocate

LOSSES = [12.0, 9.0, 4.0]


@pytest.mark.parametrize("mode", ["op_a", "op_b"])
def test_projection_onto_tiny_supplies_is_feasible(mode):
    net = complete_network(LOSSES, [1e-20, 5e-21])
    raw = AllocationPlan({edge: float(k + 1) for k, edge in enumerate(net.edges)})
    assert feasibility_violation(net, project_feasible(raw, net, mode), mode) == 0.0


def test_box_projection_onto_a_tiny_cap_stays_under_it():
    assert project_box_sum(np.array([2.2, 1.65]), 0.0, 1e-300).sum() <= 1e-300


def test_admm_plan_on_tiny_supplies_is_feasible():
    net = complete_network(LOSSES, [1e-30, 5e-31])
    report = run_admm(net, BehavioralModel(0.5))
    assert feasibility_violation(net, report.plan, "op_b") == 0.0


@pytest.mark.parametrize("family, baseline", [("exponential", 1.0), ("reciprocal", 2.0)])
@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b])
@pytest.mark.parametrize("q", [1e-12, 1e-30, 1e-100])
def test_small_budgets_match_waterfill(q, solve, family, baseline):
    # all of the budget goes to t1; the uniform start puts a third on each
    net = complete_network(LOSSES, [q, q / 2], baseline=baseline, family=family)
    behavior = BehavioralModel(0.5)
    report = solve(net, behavior)
    assert report.iterations > 1
    want = waterfill_allocate(net, behavior).final_aggregates
    for target in net.targets:
        got = report.plan.aggregate_at_target(target.id)
        assert abs(got - want[target.id]) <= 1e-14 * 1.5 * q


@pytest.mark.parametrize("mode", ["op_a", "op_b"])
def test_cli_solves_a_tiny_budget(mode, tmp_path, capsys):
    net = complete_network(LOSSES, [1e-30, 5e-31])
    path = tmp_path / "tiny.yaml"
    path.write_text(write_scenario(ScenarioFile(net, BehavioralModel(0.5), True, {}, {})))
    assert cli.main(["solve", str(path), "--mode", mode, "-o", str(tmp_path / "out.txt")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("q", [1e-20, 1e-300])
def test_waterfill_funds_only_the_top_target_without_a_warning(q):
    net = complete_network(LOSSES, [q, q / 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aggregates = waterfill_allocate(net, BehavioralModel(0.5)).final_aggregates
    assert [aggregates[t.id] for t in net.targets] == [net.total_supply(), 0.0, 0.0]
