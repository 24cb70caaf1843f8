"""ADMM's round rule at its one home, ``admm._end_round``.

``run_admm`` and the per-agent protocol reference of
``tests/test_admm_protocol.py`` both end each round through it: the primal
residual max|t - s|, the consensus move max|c - previous|, the finite
check, residual balancing (Boyd et al. 2011, section 3.4.1: eta doubles
where the primal residual exceeds 10 times the dual one eta * move, halves
where the dual one exceeds 10 times the primal one, in rounds 1-400 only)
and the stop test at the round's own eta.
"""

import math

import numpy as np
import pytest

from secalloc import admm
from secalloc.admm import AdmmConfig


def end(primal, move, eta=1.0, iteration=1, config=AdmmConfig()):
    """_end_round on one edge whose proposals differ by primal and whose
    consensus moved from 0 by move."""
    return admm._end_round(
        np.array([0.0]), np.array([move]), np.array([primal]), np.array([0.0]), eta, iteration, config
    )


def test_the_residuals_are_the_largest_per_edge_gaps():
    previous, consensus = np.array([1.0, 2.0, 3.0]), np.array([1.5, 1.0, 3.0])
    targets, sources = np.array([1.0, 5.0, 2.0]), np.array([2.0, 1.0, 2.0])
    primal, move, finite, _, _ = admm._end_round(previous, consensus, targets, sources, 1.0, 1, AdmmConfig())
    assert (primal, move, finite) == (4.0, 1.0, True)


@pytest.mark.parametrize("iteration", [1, 2, 399, 400])
def test_eta_doubles_or_halves_in_the_first_400_rounds(iteration):
    # doubles where primal > 10 eta move, halves where eta move > 10 primal
    assert end(1.0, 0.01, eta=2.0, iteration=iteration)[3] == 4.0
    assert end(0.1, 1.0, eta=4.0, iteration=iteration)[3] == 2.0
    # at a ratio of exactly 10 either way eta stays
    assert end(10.0, 1.0, eta=1.0, iteration=iteration)[3] == 1.0
    assert end(1.0, 10.0, eta=1.0, iteration=iteration)[3] == 1.0
    assert end(1.0, 1.0, eta=3.0, iteration=iteration)[3] == 3.0


@pytest.mark.parametrize("iteration", [401, 402, 5000])
def test_eta_is_fixed_after_round_400(iteration):
    for primal, move, eta in ((1.0, 0.01, 2.0), (0.1, 1.0, 4.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)):
        assert end(primal, move, eta=eta, iteration=iteration)[3] == eta


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_an_inf_or_nan_consensus_is_not_finite(value):
    consensus = np.array([1.0, value, 2.0])
    _, _, finite, _, _ = admm._end_round(np.zeros(3), consensus, np.ones(3), np.ones(3), 1.0, 1, AdmmConfig())
    assert not finite


def test_a_move_that_overflows_keeps_a_finite_consensus_finite():
    with np.errstate(over="ignore"):
        _, move, finite, _, _ = admm._end_round(
            np.array([-1e308]), np.array([1e308]), np.zeros(1), np.zeros(1), 1.0, 1, AdmmConfig()
        )
    assert move == math.inf and finite


@pytest.mark.parametrize(
    "primal, move, eta, converged",
    [
        (1e-6, 1e-6, 1.0, True),
        (0.0, 0.0, 1.0, True),
        (2e-6, 0.0, 1.0, False),
        (0.0, 2e-6, 1.0, False),
        (0.0, 2e-6, 0.5, True),  # the dual residual is eta times the move
        (0.0, 1e-6, 2.0, False),
    ],
)
def test_the_run_converges_only_where_both_residuals_are_within_tolerance(primal, move, eta, converged):
    assert end(primal, move, eta=eta)[4] is converged


def test_the_stop_test_reads_the_rounds_eta_and_the_config():
    # round 1 doubles eta (1e-6 > 10 * 1e-9), but it stops at this round's eta 1
    _, _, _, next_eta, converged = end(1e-6, 1e-9)
    assert (next_eta, converged) == (2.0, True)
    config = AdmmConfig(primal_tolerance=1e-3, dual_tolerance=1e-2)
    assert end(1e-3, 1e-2, config=config)[4] is True
    assert end(1.1e-3, 0.0, config=config)[4] is False
    assert end(0.0, 1.1e-2, config=config)[4] is False
