"""waterfill.threshold's two refusals at zero allocation. With one shared
probability model the exact levels are ordered by U, so where they compare
out of order they tied in floating point: a huge baseline's psi(L(0))
absorbs log U_i - log U_j. The threshold then lies below what L resolves,
so 0.0 would be wrong, and the error says so rather than blaming the
models. Differing models whose marginals are out of order at zero keep the
ordering error."""

import re

import pytest

from secalloc.errors import PreconditionError
from secalloc.model import AttackProbabilityModel, BehavioralModel, TargetSpec
from secalloc.waterfill import gamma_sensitivity, threshold

TIED = "the zero-allocation levels of t1 and t2 tie at baseline 1e+300: the threshold is below what L resolves"
VIOLATED = "marginal ordering violated at zero allocation"


def targets(u_i, r_i, u_j, r_j):
    return (TargetSpec("t1", u_i, AttackProbabilityModel("exponential", r_i)),
            TargetSpec("t2", u_j, AttackProbabilityModel("exponential", r_j)))


@pytest.mark.parametrize("function", [threshold, gamma_sensitivity])
@pytest.mark.parametrize("u_i, u_j, gamma", [(1e300, 1.0, 0.5), (1e300, 1.0, 1.0), (12.0, 9.0, 0.5)])
def test_one_shared_model_says_the_levels_tie(function, u_i, u_j, gamma):
    with pytest.raises(PreconditionError, match=f"^{re.escape(TIED)}$"):
        function(*targets(u_i, 1e300, u_j, 1e300), BehavioralModel(gamma))


@pytest.mark.parametrize("function, r_j", [(threshold, 1.0), (gamma_sensitivity, 1.5)])
def test_differing_models_out_of_order_keep_the_ordering_error(function, r_j):
    # r_j 1.5 for gamma_sensitivity, which first requires p(0) < 1/e at both
    with pytest.raises(PreconditionError, match=f"^{VIOLATED}$"):
        function(*targets(12.0, 5.0, 9.0, r_j), BehavioralModel(0.5))


def test_a_finite_threshold_passes_both_checks_bit_for_bit():
    assert threshold(*targets(12.0, 1.0, 9.0, 1.0), BehavioralModel(0.5)) == 0.3199430891319266
