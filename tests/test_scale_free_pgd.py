"""op_a and op_b solve the problem scaled by its starting gradient.

At large budgets every marginal is tiny, so absolute tolerances used to
pass at the uniform start: with U 12/9, exponential r = 1, gamma 0.5 and
one source of 700 or 1e4, both modes "converged in 1 iterations" at
350/350 or 5000/5000. The reciprocal family took 23,370 iterations at 700
and did not converge at 1e4. Both families now meet water-filling within
1e-9 relative: the reciprocal one in 7 and 9 iterations, 6.7e-11 and
6.6e-13 off.
"""

import math

import pytest

from helpers import complete_network
from secalloc.centralized import solve_op_a, solve_op_b
from secalloc.model import BehavioralModel
from secalloc.waterfill import waterfill_allocate


def _relative_error(network, behavior, solve):
    expected = waterfill_allocate(network, behavior).final_aggregates
    plan = solve(network, behavior).plan
    return max(
        abs(plan.aggregate_at_target(t.id) - expected[t.id]) / expected[t.id]
        for t in network.targets
    )


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b])
@pytest.mark.parametrize("family, baseline", [("exponential", 1.0), ("reciprocal", 2.0)])
@pytest.mark.parametrize("supply", [700.0, 1e4])
def test_large_budgets_reach_the_waterfill_optimum(supply, family, baseline, solve):
    network = complete_network([12.0, 9.0], [supply], baseline=baseline, family=family)
    assert _relative_error(network, BehavioralModel(0.5), solve) <= 1e-9


def test_two_targets_reach_their_closed_form():
    # gamma 1, r = 2: the optimum equalizes U e^{-t}, t1 = (7 + log(2.25/1.25)) / 2
    network = complete_network([2.25, 1.25], [7.0], baseline=2.0)
    plan = solve_op_a(network, BehavioralModel(1.0)).plan
    assert abs(plan.aggregate_at_target("t1") - (7.0 + math.log(1.8)) / 2.0) <= 1e-8
