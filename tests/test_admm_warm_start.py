"""The warm-started target solve and the residual-balanced penalty.

The target agent starts its Newton search on S = sum v from its own last
total, so its answer must not depend on that start: it is checked against
the cold-start ``brentq`` oracle of ``test_admm_target`` from starts below,
at and above the root. ``run_admm`` balances ``eta`` against the
residuals in its first rounds, so its round count must not hinge on the
starting ``eta``.
"""

import numpy as np
import pytest

import secalloc.admm as admm
from secalloc.admm import AdmmConfig, TargetAgent, run_admm, target_subproblem
from secalloc.centralized import solve_op_b
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from test_admm_target import ETAS, FAMILIES, oracle, random_instance

# a probe at the root may land on either side of the oracle's root by a
# few units in the last place
ROUNDING = 1e-12


def warm_solve(spec, gamma, duals, consensus, eta, start):
    """The target solve from an agent whose last plan sums to ``start``."""
    edges = tuple(("x", f"s{k}") for k in range(len(duals)))
    agent = TargetAgent(spec, BehavioralModel(gamma), edges)
    agent.local_plan = {e: start / len(edges) for e in edges}
    out = target_subproblem(agent, dict(zip(edges, duals)), dict(zip(edges, consensus)), eta)
    return np.array([out[e] for e in edges])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eta", ETAS)
def test_the_answer_does_not_depend_on_the_start(family, eta, monkeypatch):
    rng = np.random.default_rng([11, FAMILIES.index(family), ETAS.index(eta)])
    kernel = admm.marginal_perceived_cost
    probes = []

    def recording(target, behavior, total):
        probes.append(total)
        return kernel(target, behavior, total)

    monkeypatch.setattr(admm, "marginal_perceived_cost", recording)
    for _ in range(8):
        spec, gamma, duals, consensus = random_instance(rng, family, eta)
        want = oracle(spec, gamma, duals, consensus, eta)
        root = float(want.sum())
        for start in (0.0, 0.5 * root, 2.0 * root, root + 1.0):
            probes.clear()
            got = warm_solve(spec, gamma, duals, consensus, eta, start)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert max(probes) <= max(start, root) * (1.0 + ROUNDING)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_start_on_a_bound_gives_the_bound(family):
    # the last plan sat on the demand cap; the solve must still find the
    # root past the cap and return the cap's projection
    rng = np.random.default_rng([13, FAMILIES.index(family)])
    spec, gamma, duals, consensus = random_instance(rng, family, 1.0)
    free = oracle(spec, gamma, duals, consensus, 1.0).sum()
    assert free > 0.0
    capped = TargetSpec(spec.id, spec.loss_value, spec.prob_model, 0.0, 0.5 * free)
    want = oracle(capped, gamma, duals, consensus, 1.0)
    for start in (0.0, 0.5 * free, 3.0 * free):
        got = warm_solve(capped, gamma, duals, consensus, 1.0, start)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def bounded_network(seed):
    """5 targets and 3 sources, each target wired to 2-3 sources; both
    families, source floors at half the supply, target caps at twice the
    supply wired to them (so they never bind), linear source utilities."""
    rng = np.random.default_rng(seed)
    n_t, n_s = 5, 3
    pairs = set()
    for t in range(n_t):
        degree = int(rng.integers(2, 4))
        pairs.update((t, int(s)) for s in rng.choice(n_s, size=degree, replace=False))
    for s in range(n_s):
        if not any(y == s for _, y in pairs):
            pairs.add((int(rng.integers(n_t)), s))
    pairs = sorted(pairs)
    supply = rng.uniform(1.0, 5.0, n_s)
    targets = []
    for t in range(n_t):
        if rng.random() < 0.5:
            prob = AttackProbabilityModel.exponential(float(rng.uniform(0.2, 2.0)))
        else:
            prob = AttackProbabilityModel.reciprocal(float(rng.uniform(1.5, 4.0)))
        wired = sum(supply[s] for x, s in pairs if x == t)
        targets.append(
            TargetSpec(f"t{t}", float(rng.lognormal(1.5, 0.8)), prob, 0.0, float(2.0 * wired))
        )
    sources = tuple(
        SourceSpec(
            f"s{s}",
            float(supply[s]),
            float(0.5 * supply[s]),
            float(rng.uniform(0.1, 0.5)),
            {f"t{t}": float(rng.uniform(0.5, 1.5)) for t, y in pairs if y == s},
        )
        for s in range(n_s)
    )
    edges = tuple((f"t{t}", f"s{s}") for t, s in pairs)
    network = TransportNetwork(tuple(targets), sources, edges)
    return network, BehavioralModel(float(rng.uniform(0.4, 1.0)))


# At a fixed eta this network took 64, 315 and 2,558 rounds at eta 0.1, 1
# and 10; balanced, it takes 128, 92 and 121. Each pin leaves 50% margin.
ROUNDS_AT_MOST = {0.1: 192, 1.0: 138, 10.0: 182}


def test_the_round_count_does_not_hinge_on_the_starting_eta():
    network, behavior = bounded_network(0)
    central = solve_op_b(network, behavior)
    size = central.perceived_loss + central.source_utility
    rounds = []
    for eta, at_most in ROUNDS_AT_MOST.items():
        report = run_admm(network, behavior, AdmmConfig(eta=eta))
        gap = (report.perceived_loss - report.source_utility) - (
            central.perceived_loss - central.source_utility
        )
        assert abs(gap) <= 1e-5 * size
        assert report.iterations <= at_most
        rounds.append(report.iterations)
    assert max(rounds) <= 3 * min(rounds)
