"""threshold() orders the pair on log U + psi(L(0)), the levels its inverse
solves on, so a baseline whose zero-allocation marginal overflows (a
subnormal exponential baseline at small gamma) gets the same threshold as
build_threshold_table instead of a DomainError."""

import pytest

from secalloc import model, waterfill
from secalloc.errors import DomainError, PreconditionError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    marginal_perceived_cost,
)
from secalloc.waterfill import build_threshold_table, threshold


def pair(baseline, family="exponential", losses=(12.0, 6.0)):
    prob = AttackProbabilityModel(family, baseline)
    return tuple(TargetSpec(f"t{k + 1}", u, prob) for k, u in enumerate(losses))


def table_entry(i, j, gamma):
    network = TransportNetwork.complete((i, j), (SourceSpec("s1", 1.0),))
    return build_threshold_table(network, BehavioralModel(gamma)).entries[(i.id, j.id)]


@pytest.mark.parametrize("gamma", [0.001, 0.01])
def test_subnormal_baseline_threshold_is_the_table_entry(gamma):
    i, j = pair(5e-324)
    with pytest.raises(DomainError):  # the scalar marginal overflows here
        marginal_perceived_cost(i, BehavioralModel(gamma), 0.0)
    assert threshold(i, j, BehavioralModel(gamma)) == table_entry(i, j, gamma) == 0.0


@pytest.mark.parametrize("gamma", [0.001, 0.01, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("baseline", [5e-324, 1e-310, 1e-300, 1e-100, 1e-10, 0.5, 1.0])
def test_threshold_matches_the_table_bit_for_bit(baseline, gamma):
    i, j = pair(baseline)
    assert threshold(i, j, BehavioralModel(gamma)) == table_entry(i, j, gamma)


@pytest.mark.parametrize("family,low,high", [("exponential", 0.5, 3.0), ("reciprocal", 1.5, 6.0)])
def test_ordering_on_levels_agrees_with_the_marginals(family, low, high):
    # a higher-valued target with a larger baseline can sit below the other's
    # marginal at zero; where the marginals are finite, both tests agree
    behavior = BehavioralModel(0.7)
    for i_base, j_base in ((low, high), (high, low), (low, low)):
        i = TargetSpec("i", 12.0, AttackProbabilityModel(family, i_base))
        j = TargetSpec("j", 9.0, AttackProbabilityModel(family, j_base))
        if marginal_perceived_cost(i, behavior, 0.0) >= marginal_perceived_cost(j, behavior, 0.0):
            with pytest.raises(PreconditionError):
                threshold(i, j, behavior)
        else:
            assert threshold(i, j, behavior) >= 0.0


def test_waterfill_keeps_the_marginal_the_tracer_wraps():
    assert waterfill.marginal_perceived_cost is model.marginal_perceived_cost
