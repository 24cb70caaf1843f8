"""Kernel tests: weighting function, probability families, losses, marginals."""

import math

import numpy as np
import pytest

from secalloc.errors import DomainError, PlanMismatchError
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    attack_probability,
    marginal_perceived_cost,
    perceived_loss,
    prelec_weight,
    true_loss,
)

GAMMAS = [0.3, 0.5, 0.8, 1.0]
MODELS = [
    AttackProbabilityModel.exponential(1.0),
    AttackProbabilityModel.exponential(1.5),
    AttackProbabilityModel.exponential(3.0),
    AttackProbabilityModel.reciprocal(1.5),
    AttackProbabilityModel.reciprocal(3.0),
]


def single_target_network(loss=12.0, baseline=1.0, family="exponential"):
    target = TargetSpec("t1", loss, AttackProbabilityModel(family, baseline))
    source = SourceSpec("s1", 10.0)
    return TransportNetwork((target,), (source,), (("t1", "s1"),))


class TestPrelecWeight:
    def test_identity_at_gamma_one(self):
        for p in np.linspace(0.0, 1.0, 101):
            assert abs(prelec_weight(float(p), 1.0) - p) <= 1e-12

    def test_fixed_point_one_over_e(self):
        for gamma in np.linspace(0.05, 1.0, 20):
            assert prelec_weight(math.exp(-1), float(gamma)) == pytest.approx(
                math.exp(-1), abs=1e-12
            )

    def test_value_at_p_one_tenth(self):
        # exp(-sqrt(-log 0.1)), frozen from a high-precision evaluation
        assert prelec_weight(0.1, 0.5) == pytest.approx(
            0.21927532886002092, abs=1e-14
        )

    def test_endpoints(self):
        for gamma in (0.3, 0.7, 1.0):
            assert prelec_weight(0.0, gamma) == 0.0
            assert prelec_weight(1.0, gamma) == 1.0

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_overweights_small_underweights_large(self, gamma):
        for p in np.arange(0.01, 1.0, 0.01):
            p = float(p)
            w = prelec_weight(p, gamma)
            if p < math.exp(-1):
                assert w > p
            elif p > math.exp(-1):
                assert w < p

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            prelec_weight(-0.1, 0.5)
        with pytest.raises(DomainError):
            prelec_weight(1.1, 0.5)
        with pytest.raises(DomainError):
            prelec_weight(0.5, 0.0)
        with pytest.raises(DomainError):
            prelec_weight(0.5, 1.5)


class TestAttackProbability:
    def test_exponential_values(self):
        m = AttackProbabilityModel.exponential(1.0)
        assert attack_probability(m, 0.0) == pytest.approx(math.exp(-1), abs=1e-15)
        assert attack_probability(m, 3.0) == pytest.approx(math.exp(-4), abs=1e-15)

    def test_reciprocal_value(self):
        m = AttackProbabilityModel.reciprocal(2.0)
        assert attack_probability(m, 0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("model", MODELS)
    def test_strictly_decreasing(self, model):
        grid = np.linspace(0.0, 10.0, 50)
        values = [model.probability(float(t)) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    @pytest.mark.parametrize("model", MODELS)
    def test_log_convex(self, model):
        # log p on any 3-point arithmetic progression: midpoint below chord
        for start in np.linspace(0.0, 8.0, 9):
            for h in (0.1, 0.5, 1.0):
                lo = math.log(model.probability(float(start)))
                mid = math.log(model.probability(float(start) + h))
                hi = math.log(model.probability(float(start) + 2 * h))
                assert mid <= 0.5 * (lo + hi) + 1e-10

    def test_rejects_negative_total(self):
        with pytest.raises(DomainError):
            AttackProbabilityModel.exponential(1.0).probability(-0.5)

    def test_rejects_bad_baselines(self):
        with pytest.raises(DomainError):
            AttackProbabilityModel.exponential(0.0)
        with pytest.raises(DomainError):
            AttackProbabilityModel.reciprocal(1.0)
        with pytest.raises(DomainError):
            AttackProbabilityModel("linear", 1.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_derivatives_match_finite_differences(self, model):
        h = 1e-6
        for t in (0.5, 2.0, 7.0):
            fd1 = (model.probability(t + h) - model.probability(t - h)) / (2 * h)
            assert model.derivative(t) == pytest.approx(fd1, rel=1e-8)
            h2 = 1e-4  # larger step: the second difference cancels badly
            fd2 = (
                model.probability(t + h2)
                - 2 * model.probability(t)
                + model.probability(t - h2)
            ) / h2**2
            assert model.second_derivative(t) == pytest.approx(fd2, rel=1e-4)
            assert model.log_derivative(t) == pytest.approx(
                model.derivative(t) / model.probability(t), rel=1e-12
            )


class TestLosses:
    def test_true_loss_single_target(self):
        net = single_target_network()
        plan = AllocationPlan.zero(net)
        assert true_loss(net, plan) == pytest.approx(12 * math.exp(-1), abs=1e-12)

    def test_true_loss_two_targets(self):
        prob = AttackProbabilityModel.exponential(1.0)
        targets = (TargetSpec("a", 2.0, prob), TargetSpec("b", 3.0, prob))
        source = SourceSpec("s", 10.0)
        net = TransportNetwork(targets, (source,), (("a", "s"), ("b", "s")))
        plan = AllocationPlan({("a", "s"): 1.0, ("b", "s"): 2.0})
        # 2 e^-2 + 3 e^-3, frozen from a high-precision evaluation
        assert true_loss(net, plan) == pytest.approx(0.4200317715768172, abs=1e-12)

    def test_zero_loss_value_is_a_construction_error(self):
        with pytest.raises(DomainError):
            TargetSpec("t", 0.0, AttackProbabilityModel.exponential(1.0))

    def test_plan_mismatch(self):
        net = single_target_network()
        with pytest.raises(PlanMismatchError):
            true_loss(net, AllocationPlan({("t1", "other"): 0.0}))

    def test_perceived_equals_true_at_gamma_one(self):
        net = single_target_network()
        plan = AllocationPlan({("t1", "s1"): 1.7})
        assert perceived_loss(net, plan, BehavioralModel(1.0)) == true_loss(net, plan)

    def test_perceived_at_fixed_point(self):
        # p(0) = 1/e is the weighting fixed point, so gamma is irrelevant
        net = single_target_network(loss=12.0, baseline=1.0)
        plan = AllocationPlan.zero(net)
        assert perceived_loss(net, plan, BehavioralModel(0.5)) == pytest.approx(
            12 * math.exp(-1), abs=1e-12
        )

    def test_perceived_single_target_r2(self):
        # 12 exp(-sqrt(2)), frozen from a high-precision evaluation
        net = single_target_network(loss=12.0, baseline=2.0)
        plan = AllocationPlan.zero(net)
        assert perceived_loss(net, plan, BehavioralModel(0.5)) == pytest.approx(
            2.9174008132105705, abs=1e-12
        )


def _perceived_cost(loss, model, gamma, t):
    # independent evaluation used as the finite-difference oracle; the
    # closed forms below extend smoothly to slightly negative t
    if model.family == "exponential":
        p = math.exp(-t - model.baseline)
    else:
        p = 1.0 / (t + model.baseline)
    return loss * math.exp(-((-math.log(p)) ** gamma))


class TestMarginalPerceivedCost:
    def test_gamma_one_exponential(self):
        target = TargetSpec("t", 12.0, AttackProbabilityModel.exponential(1.0))
        value = marginal_perceived_cost(target, BehavioralModel(1.0), 0.0)
        assert value == pytest.approx(-12 * math.exp(-1), abs=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_finite_difference(self, model, gamma):
        target = TargetSpec("t", 9.0, model)
        behavior = BehavioralModel(gamma)
        h = 1e-6
        for t in (0.0, 0.4, 1.3, 5.0):
            fd = (
                _perceived_cost(9.0, model, gamma, t + h)
                - _perceived_cost(9.0, model, gamma, t - h)
            ) / (2 * h)
            assert marginal_perceived_cost(target, behavior, t) == pytest.approx(
                fd, rel=1e-5
            )

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_negative_increasing_vanishing(self, model, gamma):
        target = TargetSpec("t", 7.0, model)
        behavior = BehavioralModel(gamma)
        grid = np.linspace(0.0, 12.0, 40)
        values = [marginal_perceived_cost(target, behavior, float(t)) for t in grid]
        assert all(v < 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(marginal_perceived_cost(target, behavior, 200.0)) < abs(values[0])

    def test_larger_loss_value_more_negative(self):
        # marginal ordering that drives the funding priority
        prob = AttackProbabilityModel.exponential(1.0)
        hi = TargetSpec("hi", 12.0, prob)
        lo = TargetSpec("lo", 9.0, prob)
        for gamma in GAMMAS:
            behavior = BehavioralModel(gamma)
            for t in (0.0, 1.0, 3.0):
                assert marginal_perceived_cost(
                    hi, behavior, t
                ) < marginal_perceived_cost(lo, behavior, t)

    def test_domain_error_when_probability_underflows(self):
        target = TargetSpec("t", 5.0, AttackProbabilityModel.exponential(1.0))
        with pytest.raises(DomainError):
            marginal_perceived_cost(target, BehavioralModel(0.5), 1e6)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_perceived_cost_convex(self, model, gamma):
        # central second difference of U w(p(.)) positive across the grid
        h = 1e-3
        for t in np.linspace(h, 10.0, 100):
            t = float(t)
            second = (
                _perceived_cost(5.0, model, gamma, t + h)
                - 2 * _perceived_cost(5.0, model, gamma, t)
                + _perceived_cost(5.0, model, gamma, t - h)
            ) / h**2
            assert second > 0


class TestNetworkInvariants:
    def test_every_node_needs_an_edge(self):
        prob = AttackProbabilityModel.exponential(1.0)
        targets = (TargetSpec("a", 2.0, prob), TargetSpec("b", 3.0, prob))
        sources = (SourceSpec("s", 1.0),)
        with pytest.raises(DomainError):
            TransportNetwork(targets, sources, (("a", "s"),))

    def test_rejects_dangling_and_duplicate_edges(self):
        prob = AttackProbabilityModel.exponential(1.0)
        targets = (TargetSpec("a", 2.0, prob),)
        sources = (SourceSpec("s", 1.0),)
        with pytest.raises(DomainError):
            TransportNetwork(targets, sources, (("a", "x"),))
        with pytest.raises(DomainError):
            TransportNetwork(targets, sources, (("a", "s"), ("a", "s")))

    def test_canonical_edge_order(self):
        prob = AttackProbabilityModel.exponential(1.0)
        targets = (TargetSpec("a", 2.0, prob), TargetSpec("b", 3.0, prob))
        sources = (SourceSpec("s1", 1.0), SourceSpec("s2", 1.0))
        net = TransportNetwork(
            targets, sources, (("b", "s2"), ("a", "s1"), ("b", "s1"), ("a", "s2"))
        )
        assert net.edges == (("a", "s1"), ("a", "s2"), ("b", "s1"), ("b", "s2"))

    def test_aggregates(self):
        plan = AllocationPlan(
            {("a", "s1"): 1.0, ("a", "s2"): 2.0, ("b", "s1"): 4.0}
        )
        assert plan.aggregate_at_target("a") == pytest.approx(3.0)
        assert plan.aggregate_at_source("s1") == pytest.approx(5.0)


def test_source_supply_upper_must_be_finite():
    with pytest.raises(DomainError, match="finite"):
        SourceSpec("s", math.inf)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_source_weight_tau_must_be_finite(value):
    with pytest.raises(DomainError, match="weight_tau must be finite"):
        SourceSpec("s", 1.0, weight_tau=value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_source_utility_coeffs_must_be_finite(value):
    with pytest.raises(DomainError, match="utility_coeffs.t must be finite"):
        SourceSpec("s", 1.0, utility_coeffs={"t": value})
