"""op_a and op_b at budgets from 1e4 to 1e10: the spectral step is clamped in
the budget's units.

``_pgd`` works in units of amount = min(1, budget), where the scaled
gradient starts at most 1e3. With the step clamped at 1e2 in those units, a
step moved at most about 1e5, so on U 12/9 (reciprocal r = 2, gamma 0.5) op_a
and op_b took 562 iterations at a budget of 1e4, 51,328 at 1e6, and ran out
of iterations from 1e7 up. The clamp is now 1e2 max(1, budget), which bounds
a step at about 1e5 times the budget. Where x moved but the scaled gradient
did not change (y'y = 0), alpha doubles up to that clamp; a linear utility
that dominates a budget of 1e10 used to crawl there at a step of 1.

Past a budget of about 5e5 every exponential (r = 1) marginal underflows at
gamma 0.5, and op_a and op_b stop at their uniform start (README, Known
limits), so the exponential cases stop at 1e5.
"""

import pytest

from helpers import complete_network
from secalloc.centralized import solve_op_a, solve_op_b
from secalloc.model import BehavioralModel
from secalloc.scenario_io import parse_scenario
from secalloc.waterfill import waterfill_allocate

CASES = [("reciprocal", 2.0, budget) for budget in (1e4, 1e6, 1e8, 1e10)]
CASES += [("exponential", 1.0, budget) for budget in (1e4, 1e5)]

CRAWL = """behavior:
  gamma: 0.5
targets:
  - {id: t1, loss_value: 12.0, prob_model: {family: exponential, baseline: 1.0}}
  - {id: t2, loss_value: 9.0, prob_model: {family: exponential, baseline: 1.0}}
sources:
  - {id: s1, supply_upper: 1.0e+10, weight_tau: 4.16667e-202, utility_coeffs: {t1: 1.0e+300}}
edges: complete
"""


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b])
@pytest.mark.parametrize(("family", "baseline", "budget"), CASES)
def test_aggregates_match_waterfill_within_1e_6_of_the_budget(solve, family, baseline, budget):
    network = complete_network([12.0, 9.0], [budget], baseline=baseline, family=family)
    behavior = BehavioralModel(0.5)
    expected = waterfill_allocate(network, behavior).final_aggregates
    report = solve(network, behavior)
    assert report.converged
    error = max(abs(report.plan.aggregate_at_target(t) - a) for t, a in expected.items())
    assert error <= 1e-6 * budget


def test_op_b_puts_the_whole_supply_on_the_dominant_utility():
    # the loss gradient underflows to 0 against a utility slope of 1e300 tau,
    # so y = 0 on every step: alpha doubles where it used to restart at 1
    scenario = parse_scenario(CRAWL)
    report = solve_op_b(scenario.network, scenario.behavior)
    assert report.converged
    assert report.plan.aggregate_at_target("t1") == pytest.approx(1e10, rel=1e-12)
    assert report.plan.aggregate_at_target("t2") <= 1e-12 * 1e10
