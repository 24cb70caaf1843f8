"""`run_admm` stops on its dual residual, eta times the consensus move.

A large starting penalty pins both sides to the start, so the consensus
barely moves in the first round; a stop test on the bare move ended
there, with a `relative_gap` of 30 on the case study.
"""

import pytest

from secalloc.admm import AdmmConfig, run_admm
from secalloc.centralized import solve_op_b
from secalloc.scenario_io import build_case_study


@pytest.mark.parametrize("eta", [1e7, 1e10])
def test_large_starting_penalty_reaches_the_optimum(eta):
    network, behavior = build_case_study()
    report = run_admm(network, behavior, AdmmConfig(eta=eta))
    central = solve_op_b(network, behavior)
    objective = report.perceived_loss - report.source_utility
    expected = central.perceived_loss - central.source_utility
    assert report.iterations > 1
    assert abs(objective - expected) <= 1e-4 * abs(expected)
