"""The adaptive Barzilai-Borwein step of ``centralized._pgd``.

op_b's perceived loss depends only on target totals, so every split of a
target's total across its sources is a direction where the gradient
changes only through the linear utility term. BB2 alone crossed these
flat faces in short steps and stopped on the objective stall short of
stationarity; the adaptive choice between BB1 and BB2 (Zhou, Gao & Dai
2006) takes the long step there.
"""

import pytest

from secalloc.centralized import kkt_residual, solve_op_a, solve_op_b
from test_admm_warm_start import bounded_network

SOLVERS = {"op_a": solve_op_a, "op_b": solve_op_b}


@pytest.mark.parametrize("seed", range(60))
def test_default_solves_end_stationary(seed):
    # with BB2 alone, 16 op_b and 2 op_a solves of these 60 networks
    # stopped on the stall with a residual of 1.0e-6 to 2.7e-6
    network, behavior = bounded_network(seed)
    for mode, solve in SOLVERS.items():
        report = solve(network, behavior)
        assert kkt_residual(network, behavior, report.plan, mode) <= 1e-6, mode


def test_op_b_iterations_on_seed_12():
    # 823 iterations with BB2 alone, 783 with the adaptive step; at a
    # threshold of 0.5 on cos^2(s, y) it took 2,490
    network, behavior = bounded_network(12)
    assert solve_op_b(network, behavior).iterations <= 1200
