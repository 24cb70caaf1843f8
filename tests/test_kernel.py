"""The log-space kernel (loss and marginal from L = -log p) against an
independent closed form in p, and on totals where p underflows.

Every case is a fixed grid or a fixed seed, so the suite stays
deterministic.
"""

import math
import os
import warnings

import numpy as np
import pytest

from secalloc import cli
from secalloc.centralized import _make_objective, kkt_residual, solve_op_a, solve_op_b
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    marginal_perceived_cost,
    perceived_loss,
    true_loss,
    weight_at,
)
from secalloc.scenario_io import parse_scenario

MODELS = [
    AttackProbabilityModel.exponential(0.3),
    AttackProbabilityModel.exponential(1.0),
    AttackProbabilityModel.exponential(4.0),
    AttackProbabilityModel.reciprocal(1.5),
    AttackProbabilityModel.reciprocal(3.0),
]
MODEL_IDS = [f"{m.family}-{m.baseline}" for m in MODELS]
GAMMAS = [1e-9, 0.01, 0.3, 0.5, 1.0]
TOTALS = np.concatenate([np.linspace(0.0, 700.0, 57), [1e-12, 0.1, 0.5, 2.0, 699.9]])
LOSS = 7.5


def closed_form(model, loss, gamma, total):
    """U w(p) and its derivative U gamma (-log p)^(gamma-1) (p'/p) w(p),
    with p and p'/p evaluated in each family's own form."""
    r = model.baseline
    if model.family == "exponential":
        p, log_rate = math.exp(-total - r), -1.0
    else:
        p, log_rate = 1.0 / (total + r), -1.0 / (total + r)
    neg_log_p = -math.log(p)
    weight = math.exp(-(neg_log_p**gamma))
    return loss * weight, loss * gamma * neg_log_p ** (gamma - 1.0) * log_rate * weight


def one_target_per_total(model, totals):
    """A network whose i-th target carries model and LOSS, one edge each,
    and the totals as an array."""
    targets = tuple(TargetSpec(f"t{i}", LOSS, model) for i in range(len(totals)))
    network = TransportNetwork.complete(targets, (SourceSpec("s", 1.0),))
    return network, np.asarray(totals, dtype=float)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_kernel_matches_closed_form_in_p(model, gamma):
    network, totals = one_target_per_total(model, TOTALS)
    index = network.edge_index
    costs = LOSS * weight_at(index.neg_log_p(totals), gamma)
    marginals = index.marginals(totals, gamma)
    behavior = BehavioralModel(gamma)
    for k, total in enumerate(totals):
        want_cost, want_marginal = closed_form(model, LOSS, gamma, float(total))
        assert costs[k] == pytest.approx(want_cost, rel=1e-12, abs=0.0)
        assert marginals[k] == pytest.approx(want_marginal, rel=1e-12, abs=0.0)
        scalar = marginal_perceived_cost(network.targets[k], behavior, float(total))
        assert scalar == pytest.approx(want_marginal, rel=1e-12, abs=0.0)
    assert index.loss_at(totals, gamma) == pytest.approx(costs.sum(), rel=1e-12, abs=0.0)


def sparse_mixed_network(seed):
    """6 targets of both families, 4 sources, each target wired to 2 or 3
    sources; every source keeps at least one edge."""
    rng = np.random.default_rng(seed)
    targets = tuple(
        TargetSpec(
            f"t{i}",
            float(rng.uniform(1.0, 12.0)),
            AttackProbabilityModel.exponential(float(rng.uniform(0.2, 2.0)))
            if i % 2
            else AttackProbabilityModel.reciprocal(float(rng.uniform(1.1, 4.0))),
        )
        for i in range(6)
    )
    sources = tuple(
        SourceSpec(f"s{j}", float(rng.uniform(1.0, 5.0)), weight_tau=0.3) for j in range(4)
    )
    edges = {(f"t{i}", f"s{i % 4}") for i in range(6)}
    for i in range(6):
        for j in rng.choice(4, size=int(rng.integers(1, 3)), replace=False):
            edges.add((f"t{i}", f"s{j}"))
    return TransportNetwork(targets, sources, tuple(sorted(edges)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gamma", [0.3, 0.7, 1.0])
def test_gradient_is_the_per_edge_marginal(seed, gamma):
    network = sparse_mixed_network(seed)
    index = network.edge_index
    behavior = BehavioralModel(gamma)
    x = np.random.default_rng(100 + seed).uniform(0.0, 3.0, len(network.edges))
    totals = index.target_totals(x)
    per_edge = np.array(
        [
            marginal_perceived_cost(network.target_by_id(t), behavior, totals[index.target_pos[t]])
            for t, _ in network.edges
        ]
    )
    _, gradient_a = _make_objective(network, behavior, "op_a")
    _, gradient_b = _make_objective(network, behavior, "op_b")
    # equal to the last bits: the gradient runs numpy's vectorized log, exp
    # and power, the scalar marginal the C library's
    np.testing.assert_allclose(gradient_a(x), per_edge, rtol=1e-13, atol=0.0)
    scale = float(np.abs(per_edge).max())
    np.testing.assert_allclose(
        gradient_b(x), per_edge - index.tau_c, rtol=1e-13, atol=1e-13 * scale
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perceived_loss_is_true_loss_at_gamma_one(seed):
    network = sparse_mixed_network(seed)
    rng = np.random.default_rng(200 + seed)
    for scale in (0.0, 1.0, 50.0, 5e3):
        plan = AllocationPlan(
            {e: float(v) for e, v in zip(network.edges, scale * rng.random(len(network.edges)))}
        )
        assert perceived_loss(network, plan, BehavioralModel(1.0)) == true_loss(network, plan)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_huge_totals_underflow_quietly(model, gamma):
    network, totals = one_target_per_total(model, np.geomspace(1e3, 1e6, 31))
    index = network.edge_index
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        marginals = index.marginals(totals, gamma)
        loss = index.loss_at(totals, gamma)
    assert np.isfinite(marginals).all() and (marginals <= 0.0).all()
    assert math.isfinite(loss) and loss >= 0.0


HUGE_BUDGET = """
behavior:
  gamma: 0.5
targets:
  - id: t1
    loss_value: 12.0
    prob_model: {family: exponential, baseline: 1.0}
  - id: t2
    loss_value: 9.0
    prob_model: {family: exponential, baseline: 1.0}
sources:
  - id: s1
    supply_upper: 10000.0
edges: complete
"""


@pytest.mark.parametrize("mode", ["op_a", "op_b"])
def test_huge_budget_solves_exit_zero(mode, tmp_path, capsys):
    scenario = tmp_path / "huge.yaml"
    scenario.write_text(HUGE_BUDGET)
    output = tmp_path / "report.txt"
    assert cli.main(["solve", str(scenario), "--mode", mode, "-o", str(output)]) == 0
    assert capsys.readouterr().err == ""
    assert os.path.exists(str(output) + ".trace.csv")
    plan = [
        float(line.split()[2])
        for line in output.read_text().split("aggregates:")[0].splitlines()
        if line.startswith("  ")
    ]
    assert len(plan) == 2
    assert sum(plan) == pytest.approx(1e4, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("mode, solve", [("op_a", solve_op_a), ("op_b", solve_op_b)])
def test_huge_budget_plan_has_finite_kkt_residual(mode, solve):
    scenario = parse_scenario(HUGE_BUDGET)
    report = solve(scenario.network, scenario.behavior)
    assert sum(report.plan.amounts.values()) == pytest.approx(1e4, rel=0.0, abs=1e-9)
    assert math.isfinite(kkt_residual(scenario.network, scenario.behavior, report.plan, mode))
