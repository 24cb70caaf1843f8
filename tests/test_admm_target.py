"""Exact target subproblem against independent scipy oracles.

The oracle evaluates the perceived marginal in closed form from
L(t) = -log p(t) (never forming p), finds the stationary total with
``brentq`` on the KKT condition, and projects onto a binding demand bound
with a second ``brentq``. A general-purpose ``minimize`` run checks that
no feasible point beats the returned plan.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

import secalloc.admm as admm
from secalloc.admm import TargetAgent, target_subproblem
from secalloc.model import AttackProbabilityModel, BehavioralModel, TargetSpec

FAMILIES = ["exponential", "reciprocal"]
ETAS = [1e-3, 1.0, 1e3]


def oracle_marginal(spec, gamma, total):
    """d/dt of U exp(-L(t)^gamma), with L = -log p in closed form."""
    r = spec.prob_model.baseline
    if spec.prob_model.family == "exponential":
        level, slope = total + r, 1.0
    else:
        level, slope = math.log(total + r), 1.0 / (total + r)
    return (
        -spec.loss_value
        * gamma
        * level ** (gamma - 1.0)
        * slope
        * math.exp(-(level**gamma))
    )


def oracle_level_projection(b, level):
    """Projection of b onto {v >= 0, sum v = level}."""
    if level == 0.0:
        return np.zeros_like(b)
    theta = brentq(
        lambda th: np.maximum(b - th, 0.0).sum() - level,
        b.min() - level,
        b.max(),
        xtol=1e-15,
        rtol=1e-15,
    )
    return np.maximum(b - theta, 0.0)


def oracle(spec, gamma, duals, consensus, eta):
    b = np.array(consensus) - np.array(duals) / eta

    def kkt(total):
        shift = oracle_marginal(spec, gamma, total) / eta
        return total - np.maximum(b - shift, 0.0).sum()

    top = -kkt(0.0)
    total = 0.0 if top <= 0.0 else brentq(kkt, 0.0, top, xtol=1e-15, rtol=1e-15)
    if total > spec.demand_upper:
        return oracle_level_projection(b, spec.demand_upper)
    if total < spec.demand_lower:
        return oracle_level_projection(b, spec.demand_lower)
    return np.maximum(b - oracle_marginal(spec, gamma, total) / eta, 0.0)


def unconstrained_total(spec, gamma, duals, consensus, eta):
    free = TargetSpec(spec.id, spec.loss_value, spec.prob_model)
    return float(oracle(free, gamma, duals, consensus, eta).sum())


def random_instance(rng, family, eta, gamma=None):
    n = int(rng.integers(1, 6))
    if gamma is None:
        gamma = float(rng.uniform(0.05, 1.0))
    baseline = (
        float(rng.uniform(0.2, 3.0))
        if family == "exponential"
        else float(rng.uniform(1.2, 5.0))
    )
    spec = TargetSpec(
        "x", float(rng.uniform(1.0, 20.0)), AttackProbabilityModel(family, baseline)
    )
    consensus = rng.uniform(0.0, 3.0, n)
    # duals scale with eta so that b = pi - alpha/eta stays in [-3, 6]
    duals = eta * rng.uniform(-3.0, 3.0, n)
    return spec, gamma, list(duals), list(consensus)


def solve(spec, gamma, duals, consensus, eta):
    edges = tuple(("x", f"s{k}") for k in range(len(duals)))
    agent = TargetAgent(spec, BehavioralModel(gamma), edges)
    out = target_subproblem(
        agent, dict(zip(edges, duals)), dict(zip(edges, consensus)), eta
    )
    return np.array([out[e] for e in edges])


def with_bounds(spec, lower=0.0, upper=math.inf):
    return TargetSpec(spec.id, spec.loss_value, spec.prob_model, lower, upper)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eta", ETAS)
def test_matches_kkt_oracle(family, eta):
    rng = np.random.default_rng([FAMILIES.index(family), ETAS.index(eta)])
    for k in range(12):
        gamma = 1.0 if k == 0 else None
        spec, gamma, duals, consensus = random_instance(rng, family, eta, gamma)
        got = solve(spec, gamma, duals, consensus, eta)
        want = oracle(spec, gamma, duals, consensus, eta)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eta", ETAS)
def test_binding_demand_upper(family, eta):
    rng = np.random.default_rng(19)
    for _ in range(8):
        spec, gamma, duals, consensus = random_instance(rng, family, eta)
        free = unconstrained_total(spec, gamma, duals, consensus, eta)
        if free <= 1e-6:
            continue
        capped = with_bounds(spec, upper=0.5 * free)
        got = solve(capped, gamma, duals, consensus, eta)
        want = oracle(capped, gamma, duals, consensus, eta)
        assert got.sum() == pytest.approx(0.5 * free, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eta", ETAS)
def test_binding_demand_lower(family, eta):
    rng = np.random.default_rng(23)
    for _ in range(8):
        spec, gamma, duals, consensus = random_instance(rng, family, eta)
        free = unconstrained_total(spec, gamma, duals, consensus, eta)
        floored = with_bounds(spec, lower=2.0 * free + 0.5)
        got = solve(floored, gamma, duals, consensus, eta)
        want = oracle(floored, gamma, duals, consensus, eta)
        assert got.sum() == pytest.approx(2.0 * free + 0.5, rel=1e-12)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_no_feasible_point_does_better(family):
    rng = np.random.default_rng(5)
    eta = 1.0
    for _ in range(6):
        spec, gamma, duals, consensus = random_instance(rng, family, eta)
        alpha, pi = np.array(duals), np.array(consensus)

        def objective(v):
            total = float(v.sum())
            r = spec.prob_model.baseline
            level = total + r if family == "exponential" else math.log(total + r)
            cost = spec.loss_value * math.exp(-(level**gamma))
            return cost + float(alpha @ v) + 0.5 * eta * float(((v - pi) ** 2).sum())

        got = solve(spec, gamma, duals, consensus, eta)
        general = minimize(
            objective,
            np.maximum(pi, 0.0),
            method="L-BFGS-B",
            bounds=[(0.0, None)] * pi.size,
            options={"ftol": 1e-15, "gtol": 1e-12},
        )
        assert objective(got) <= general.fun + 1e-12


def test_small_eta_stays_inside_its_bracket(monkeypatch):
    # a bracket on theta = g'(S)/eta from [g'(0)/eta, 0] first probes a
    # total in the thousands, where p(total) underflows to 0 and the
    # marginal raises DomainError; the bracket on S only grows by doubling
    spec = TargetSpec("x", 12.0, AttackProbabilityModel.exponential(1.0))
    gamma, eta = 0.5, 1e-3
    duals, consensus = [0.0, 0.0], [0.0, 0.0]
    top = -2 * oracle_marginal(spec, gamma, 0.0) / eta
    assert top > 745.0  # p underflows beyond about 744
    probes = []
    kernel = admm.marginal_perceived_cost

    def recording(target, behavior, total):
        probes.append(total)
        return kernel(target, behavior, total)

    monkeypatch.setattr(admm, "marginal_perceived_cost", recording)
    got = solve(spec, gamma, duals, consensus, eta)
    want = oracle(spec, gamma, duals, consensus, eta)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-7)
    assert max(probes) <= 2.0 * got.sum()
    assert max(probes) <= top


def test_newton_stops_at_the_scale_of_the_shift(monkeypatch):
    # the root sits near a zero total, where F(S) = S - sum max(b - shift, 0)
    # is rounded at the scale of the shift g'(S)/eta, not of S: a stop test
    # relative to S alone lets the steps creep for dozens of evaluations
    spec = TargetSpec("x", 7.625, AttackProbabilityModel.exponential(1.4554))
    gamma, eta = 0.6705, 8.0
    edges = tuple(("x", f"s{k}") for k in range(10))
    agent = TargetAgent(spec, BehavioralModel(gamma), edges)
    agent.local_plan = {e: 1e-15 for e in edges}
    start = oracle_marginal(spec, gamma, 0.0) / eta
    consensus = [start + 7e-17 * (1.0 + 0.1 * k) for k in range(10)]
    duals = [0.0] * 10
    calls = []
    kernel = admm.marginal_perceived_cost

    def counting(target, behavior, total):
        calls.append(total)
        return kernel(target, behavior, total)

    monkeypatch.setattr(admm, "marginal_perceived_cost", counting)
    out = target_subproblem(agent, dict(zip(edges, duals)), dict(zip(edges, consensus)), eta)
    got = np.array([out[e] for e in edges])
    want = oracle(spec, gamma, duals, consensus, eta)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-16)
    assert len(calls) <= 5
