"""The scalar marginal is the log-space kernel at one total, bit for bit.

``marginal_perceived_cost`` runs once per Newton step of every ADMM target
solve, so it takes L and k inline rather than through
``AttackProbabilityModel.neg_log_probability`` and ``log_rate_slope``, and
log L without ``psi``'s float dispatch. It must still equal
``-U * math.exp(psi(L, gamma, k))`` with L and k from those two, bit for
bit, on both families and at every total where the marginal neither
underflows nor overflows, and raise the same DomainError where it does.
The target Newton that calls it stops after one evaluation when its first
step is nan.
"""

import math

import numpy as np
import pytest

from secalloc import admm
from secalloc.errors import DomainError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    TargetSpec,
    marginal_perceived_cost,
    psi,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MODELS = {
    "exponential": AttackProbabilityModel.exponential(1.0),
    "exponential tiny baseline": AttackProbabilityModel.exponential(1e-20),
    "reciprocal": AttackProbabilityModel.reciprocal(2.0),
}

# the largest total of each grid: near where the marginal underflows (for the
# reciprocal family at gamma 0.5 it does not underflow below the float max)
TOP = {
    ("exponential", 1.0): 744.0,
    ("exponential", 0.5): 5.5e5,
    ("reciprocal", 1.0): 1e161,
    ("reciprocal", 0.5): 1e308,
}

SMALL_TOTALS = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300]


def kernel(target, gamma, total):
    """-U exp(psi(L, gamma, k)) at the total, with L and k from the model."""
    model = target.prob_model
    return -target.loss_value * math.exp(
        psi(model.neg_log_probability(total), gamma, model.log_rate_slope)
    )


@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("name", list(MODELS))
def test_the_marginal_is_the_kernel_bit_for_bit(name, gamma):
    target = TargetSpec("t", 12.0, MODELS[name])
    top = TOP[target.prob_model.family, gamma]
    totals = SMALL_TOTALS + np.geomspace(1e-300, top, 600).tolist()
    evaluated = 0
    for total in totals:
        want = kernel(target, gamma, total)
        if want == 0.0:
            with pytest.raises(DomainError, match="underflows"):
                marginal_perceived_cost(target, BehavioralModel(gamma), total)
            continue
        got = marginal_perceived_cost(target, BehavioralModel(gamma), total)
        assert got.hex() == want.hex(), total
        evaluated += 1
    # all but at most the last few points of a grid lie short of underflow
    assert evaluated >= len(totals) - 3


@pytest.mark.parametrize(
    "model, gamma, total, message",
    [
        (MODELS["exponential"], 0.5, math.nan, "total_received must be >= 0, got nan"),
        (MODELS["reciprocal"], 0.5, -1.0, "total_received must be >= 0, got -1.0"),
        (MODELS["exponential"], 0.5, -5e-324, "total_received must be >= 0, got -5e-324"),
        (
            MODELS["exponential"],
            1.0,
            800.0,
            "marginal underflows to 0.0 at total_received=800.0",
        ),
        (
            MODELS["reciprocal"],
            1.0,
            1e200,
            "marginal underflows to 0.0 at total_received=1e+200",
        ),
        (
            AttackProbabilityModel.exponential(5e-324),
            0.001,
            0.0,
            "marginal overflows at total_received=0.0",
        ),
        (
            AttackProbabilityModel.exponential(1.0),
            1.0,
            math.inf,
            "marginal overflows at total_received=inf",
        ),
    ],
)
def test_the_marginal_raises_the_same_domain_errors(model, gamma, total, message):
    target = TargetSpec("t", 12.0, model)
    with pytest.raises(DomainError) as raised:
        marginal_perceived_cost(target, BehavioralModel(gamma), total)
    assert str(raised.value) == message


def test_a_nan_first_newton_step_takes_no_second_evaluation(monkeypatch):
    # at eta 5e-324 the shift g'(0)/eta is -inf, so both the active sum and
    # the curvature term are inf and the first step is inf / inf = nan
    target = TargetSpec("t", 12.0, MODELS["exponential"])
    totals = []

    def recording(spec, behavior, total):
        totals.append(total)
        return marginal_perceived_cost(spec, behavior, total)

    monkeypatch.setattr(admm, "marginal_perceived_cost", recording)
    amounts = admm._target_newton(target, BehavioralModel(0.5), [1.0], 0.0, 5e-324)
    assert totals == [0.0]
    assert amounts == [math.inf]
