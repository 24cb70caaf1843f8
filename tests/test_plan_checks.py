"""Every function that takes a plan checks it the same way.

A plan must cover exactly the network's edges, or PlanMismatchError; and
no target's total may be negative, or DomainError, as in the scalar
kernel. Negative edge amounts whose target totals are nonnegative are
valid input: raw plans before projection carry them.
"""

import math

import pytest

from secalloc.admm import run_admm
from secalloc.centralized import (
    feasibility_violation, kkt_residual, project_feasible, solve_op_a, solve_op_b,
)
from secalloc.errors import DomainError, PlanMismatchError
from secalloc.model import AllocationPlan, perceived_loss, true_loss
from secalloc.scenario_io import build_case_study

NETWORK, BEHAVIOR = build_case_study()

# every function of a plan, as plan -> result
PLAN_FUNCTIONS = {
    "true_loss": lambda plan: true_loss(NETWORK, plan),
    "perceived_loss": lambda plan: perceived_loss(NETWORK, plan, BEHAVIOR),
    "kkt_residual": lambda plan: kkt_residual(NETWORK, BEHAVIOR, plan, "op_a"),
    "feasibility_violation": lambda plan: feasibility_violation(NETWORK, plan, "op_b"),
    "project_feasible": lambda plan: project_feasible(plan, NETWORK, "op_b"),
}
LOSS_FUNCTIONS = ("true_loss", "perceived_loss", "kkt_residual")


def _plan(amounts=(), drop=()):
    """0.5 on every edge of the network, then ``amounts``, less ``drop``."""
    plan = {e: 0.5 for e in NETWORK.edges}
    plan.update(amounts)
    for edge in drop:
        del plan[edge]
    return AllocationPlan(plan)


@pytest.mark.parametrize("name", PLAN_FUNCTIONS)
def test_a_plan_missing_an_edge_is_rejected(name):
    with pytest.raises(PlanMismatchError, match="plan edges differ from network edges"):
        PLAN_FUNCTIONS[name](_plan(drop=[NETWORK.edges[3]]))


@pytest.mark.parametrize("name", PLAN_FUNCTIONS)
def test_a_plan_with_an_extra_edge_is_rejected(name):
    with pytest.raises(PlanMismatchError, match="plan edges differ from network edges"):
        PLAN_FUNCTIONS[name](_plan(amounts={("t1", "s9"): 0.5}))


@pytest.mark.parametrize("name", LOSS_FUNCTIONS)
def test_a_negative_target_total_is_rejected(name):
    plan = AllocationPlan({e: -3.0 if e == ("t2", "s1") else 0.0 for e in NETWORK.edges})
    with pytest.raises(DomainError, match="total_received must be >= 0, got -3.0"):
        PLAN_FUNCTIONS[name](plan)


@pytest.mark.parametrize("name", LOSS_FUNCTIONS)
def test_a_negative_edge_amount_with_a_nonnegative_total_is_valid(name):
    plan = _plan(amounts={("t2", "s1"): -0.25})
    assert math.isfinite(PLAN_FUNCTIONS[name](plan))


def test_a_negative_total_does_not_stop_the_projection_or_the_violation():
    plan = AllocationPlan({e: -3.0 if e == ("t2", "s1") else 0.0 for e in NETWORK.edges})
    assert feasibility_violation(NETWORK, plan, "op_b") == 3.0
    assert all(v >= 0.0 for v in project_feasible(plan, NETWORK, "op_b").amounts.values())


@pytest.mark.parametrize("name", [*PLAN_FUNCTIONS, "solve_op_b start"])
def test_a_plan_with_one_edge_swapped_for_a_foreign_one_is_rejected(name):
    # as many edges as the network, so only the lookup of each edge can tell
    plan = _plan(amounts={("t1", "s9"): 0.5}, drop=[NETWORK.edges[3]])
    assert len(plan.amounts) == len(NETWORK.edges)
    call = PLAN_FUNCTIONS.get(name, lambda plan: solve_op_b(NETWORK, BEHAVIOR, start=plan))
    with pytest.raises(PlanMismatchError, match="plan edges differ from network edges"):
        call(plan)


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b, run_admm], ids=["op_a", "op_b", "admm"])
def test_a_report_is_scored_by_the_public_loss_functions(solve):
    report = solve(NETWORK, BEHAVIOR)
    assert report.true_loss == true_loss(NETWORK, report.plan)
    assert report.perceived_loss == perceived_loss(NETWORK, report.plan, BEHAVIOR)
