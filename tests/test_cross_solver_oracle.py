"""One oracle for the four solvers: op_a, op_b, water-filling and ADMM must
agree on the same complete networks.

Every network has 2 to 5 targets with strictly ordered losses, 1 to 3
sources sharing the budget, no bounds and tau = 0, and one attack model of
either family, so water-filling applies and op_b's objective is op_a's.
Both properties use a derandomized hypothesis profile, so every run sees
the same cases. The first runs op_a and op_b against water-filling at
budgets from 1e-100 to 1e4; the second runs ADMM against op_a and op_b
where its absolute tolerances suit the problem (README, Known limits).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from secalloc.admm import run_admm
from secalloc.centralized import feasibility_violation, kkt_residual, solve_op_a, solve_op_b
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from secalloc.waterfill import waterfill_allocate

GAMMAS = (1e-3, 0.3, 0.5, 1.0)


@st.composite
def networks(draw, top_exponents, budgets):
    """A complete network whose top loss is 10**e for e drawn from
    ``top_exponents``, with a total supply drawn from ``budgets``."""
    family = draw(st.sampled_from(["exponential", "reciprocal"]))
    baseline = draw(st.sampled_from([0.5, 1.0, 2.0])) + (family == "reciprocal")
    model = AttackProbabilityModel(family, baseline)
    ratios = draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=4))
    losses = 10.0 ** draw(top_exponents) * np.cumprod([1.0, *ratios])
    shares = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3)))
    supplies = draw(st.sampled_from(budgets)) * shares / shares.sum()
    targets = tuple(TargetSpec(f"t{k + 1}", float(u), model) for k, u in enumerate(losses))
    sources = tuple(SourceSpec(f"s{k + 1}", float(q)) for k, q in enumerate(supplies))
    return TransportNetwork.complete(targets, sources)


def _objective(report):
    return report.perceived_loss - report.source_utility


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    networks(st.floats(0.0, 6.0), (1e-100, 1e-30, 1e-12, 1e-3, 1.0, 1e2, 1e4)),
    st.sampled_from(GAMMAS),
)
def test_centralized_plans_are_feasible_and_match_waterfill(network, gamma):
    behavior = BehavioralModel(gamma)
    budget = network.total_supply()
    aggregates = waterfill_allocate(network, behavior).final_aggregates
    for mode, solve in (("op_a", solve_op_a), ("op_b", solve_op_b)):
        plan = solve(network, behavior).plan
        assert feasibility_violation(network, plan, mode) <= 1e-9 * budget
        for target in network.targets:
            got = plan.aggregate_at_target(target.id)
            assert abs(got - aggregates[target.id]) <= 1e-5 * budget, (mode, target.id)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(networks(st.floats(0.0, 4.0), (0.1, 1.0, 10.0)), st.sampled_from(GAMMAS[1:]))
def test_admm_and_op_b_match_op_a(network, gamma):
    behavior = BehavioralModel(gamma)
    op_a = solve_op_a(network, behavior)
    reference = _objective(op_a)
    # tau is 0 and there are no bounds: op_b's problem is op_a's
    assert abs(_objective(solve_op_b(network, behavior)) - reference) <= 1e-9 * abs(reference)
    # the bench's relative_gap gate on admm
    assert abs(_objective(run_admm(network, behavior)) - reference) <= 1e-4 * abs(reference)
    assert kkt_residual(network, behavior, op_a.plan, "op_a") <= 1e-3 * network.total_supply()
