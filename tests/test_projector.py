"""The op_a/op_b projector: exactness, bounds that pin a target, scale.

The projection onto {x >= 0, node sums in boxes} is checked against an
independent scipy QP solve on seeded sparse networks whose target caps
and floors bind, and op_b on the same networks against ADMM.
"""

import time

import numpy as np
import pytest

from secalloc import cli
from secalloc.admm import run_admm
from secalloc.centralized import feasibility_violation, project_feasible, solve_op_b
from secalloc.errors import InfeasibleError
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)

optimize = pytest.importorskip("scipy.optimize")

SEEDS = range(10)
FAMILIES = ("exponential", "reciprocal")


def sparse_network(seed, family, scale=1.0):
    """3-6 targets, 2-4 sources, each target wired to 2-3 sources.

    The bounds are drawn around a random positive plan, so the network is
    feasible; every target cap sits 1-1.6x above that plan's target sum
    and every source floor 0.3-0.9x below its source sum, so caps and
    floors bind. ``scale`` multiplies every amount.
    """
    rng = np.random.default_rng(seed)
    n_t, n_s = int(rng.integers(3, 7)), int(rng.integers(2, 5))
    pairs = set()
    for t in range(n_t):
        degree = min(int(rng.integers(2, 4)), n_s)
        pairs.update((t, int(s)) for s in rng.choice(n_s, size=degree, replace=False))
    for s in range(n_s):
        if not any(y == s for _, y in pairs):
            pairs.add((int(rng.integers(n_t)), s))
    pairs = sorted(pairs)
    flow = dict(zip(pairs, scale * rng.uniform(0.2, 1.0, len(pairs))))
    demand = [sum(v for (t, _), v in flow.items() if t == k) for k in range(n_t)]
    supply = [sum(v for (_, s), v in flow.items() if s == k) for k in range(n_s)]
    floor = 0.2 if family == "exponential" else 1.5
    targets = tuple(
        TargetSpec(
            f"t{k}",
            float(rng.uniform(1.0, 20.0)),
            AttackProbabilityModel(family, float(rng.uniform(floor, floor + 2.0))),
            demand_lower=float(d * rng.uniform(0.0, 0.7)) if k % 2 else 0.0,
            demand_upper=float(d * rng.uniform(1.0, 1.6)),
        )
        for k, d in enumerate(demand)
    )
    sources = tuple(
        SourceSpec(
            f"s{k}",
            float(s * rng.uniform(1.0, 1.5)),
            float(s * rng.uniform(0.3, 0.9)),
            weight_tau=float(rng.uniform(0.1, 0.5)),
        )
        for k, s in enumerate(supply)
    )
    edges = tuple((f"t{t}", f"s{s}") for t, s in pairs)
    return TransportNetwork(targets, sources, edges)


def raw_point(network, seed, scale=1.0):
    z = scale * np.random.default_rng(seed + 100).normal(0.8, 1.0, len(network.edges))
    return z, AllocationPlan(dict(zip(network.edge_index.edges, z)))


def projected(network, raw, mode="op_b"):
    return network.edge_index.to_vector(project_feasible(raw, network, mode))


def scipy_projection(network, z):
    """min 0.5 |y - z|^2 over the op_b set, by SLSQP on the explicit rows."""
    index = network.edge_index
    rows, lower, upper = [], [], []
    groups = [(s.supply_lower, s.supply_upper, idx)
              for s, idx in zip(network.sources, index.source_indices)]
    groups += [(t.demand_lower, t.demand_upper, sl)
               for t, sl in zip(network.targets, index.target_slices)]
    for lo, hi, positions in groups:
        row = np.zeros(len(z))
        row[positions] = 1.0
        rows.append(row)
        lower.append(lo)
        upper.append(hi)
    result = optimize.minimize(
        lambda y: 0.5 * float((y - z) @ (y - z)),
        np.maximum(z, 0.0),
        jac=lambda y: y - z,
        method="SLSQP",
        bounds=[(0.0, None)] * len(z),
        constraints=[optimize.LinearConstraint(np.array(rows), lower, upper)],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return result.x  # SLSQP may end on status 8 at machine precision


def objective(report):
    return report.perceived_loss - report.source_utility


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_op_b_projection_matches_scipy_qp(seed, family):
    network = sparse_network(seed, family)
    z, raw = raw_point(network, seed)
    ours = projected(network, raw)
    assert feasibility_violation(network, network.edge_index.to_plan(ours), "op_b") <= 1e-9
    assert np.abs(ours - scipy_projection(network, z)).max() <= 1e-6


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_op_b_agrees_with_admm(seed, family):
    # the objective is a difference that can sit near zero (-0.11 at seed 9,
    # exponential), so the gap is taken relative to the size of its terms
    network = sparse_network(seed, family)
    behavior = BehavioralModel(float(np.random.default_rng(seed).uniform(0.3, 1.0)))
    central = solve_op_b(network, behavior)
    admm = run_admm(network, behavior)
    size = central.perceived_loss + central.source_utility
    assert abs(objective(admm) - objective(central)) <= 1e-5 * size


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e-6, 1e4])
@pytest.mark.parametrize("seed", SEEDS)
def test_projection_is_scale_free(seed, factor):
    # the projection of a problem with every amount scaled is the scaled
    # projection; an absolute settling tolerance stops early at 1e-6
    network = sparse_network(seed, "exponential")
    scaled = sparse_network(seed, "exponential", scale=factor)
    _, raw = raw_point(network, seed)
    _, raw_scaled = raw_point(network, seed, scale=factor)
    np.testing.assert_allclose(
        projected(scaled, raw_scaled) / factor, projected(network, raw), rtol=1e-9, atol=1e-12
    )


def _pinned_network(lower, upper):
    prob = AttackProbabilityModel.exponential(1.0)
    targets = (
        TargetSpec("a", 9.0, prob, demand_lower=lower, demand_upper=upper),
        TargetSpec("b", 4.0, prob),
    )
    sources = (SourceSpec("s1", 3.0, 1.0, weight_tau=0.2), SourceSpec("s2", 2.0))
    return TransportNetwork.complete(targets, sources)


def _target_total(network, x, target_id):
    index = network.edge_index
    return float(x[index.target_slices[index.target_pos[target_id]]].sum())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lower, upper", [(0.0, 0.0), (1.5, 1.5)])
def test_pinned_target_gets_its_amount(lower, upper):
    network = _pinned_network(lower, upper)
    raw = AllocationPlan({e: 2.0 for e in network.edges})
    x = projected(network, raw)
    assert _target_total(network, x, "a") == pytest.approx(upper, abs=1e-12)
    report = solve_op_b(network, BehavioralModel(0.6))
    x = network.edge_index.to_vector(report.plan)
    assert _target_total(network, x, "a") == pytest.approx(upper, abs=1e-12)
    if upper == 0.0:
        assert all(x[network.edge_index.target_slices[0]] == 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_cap_from_a_scenario_file(tmp_path):
    path = tmp_path / "zero_cap.yaml"
    path.write_text(
        "behavior: {gamma: 0.6}\n"
        "targets:\n"
        "  - {id: a, loss_value: 9.0, prob_model: {family: exponential, baseline: 1.0},"
        " demand_upper: 0}\n"
        "  - {id: b, loss_value: 4.0, prob_model: {family: exponential, baseline: 1.0}}\n"
        "sources:\n"
        "  - {id: s1, supply_upper: 3.0, weight_tau: 0.2}\n"
        "edges: complete\n"
    )
    out = tmp_path / "report.txt"
    assert cli.main(["solve", str(path), "--mode", "op_b", "-o", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines() if line.startswith("  a ")]
    assert rows and all(float(row[-1]) == 0.0 for row in rows)  # plan and aggregate


def _node_infeasible():
    # the aggregate check passes (floor 5 <= supply 13), but target a's only
    # source holds 3
    prob = AttackProbabilityModel.exponential(1.0)
    targets = (
        TargetSpec("a", 5.0, prob, demand_lower=5.0),
        TargetSpec("b", 4.0, prob),
    )
    sources = (SourceSpec("s1", 3.0), SourceSpec("s2", 10.0))
    return TransportNetwork(targets, sources, (("a", "s1"), ("b", "s2")))


def test_node_level_infeasible_raises():
    network = _node_infeasible()
    start = time.perf_counter()
    with pytest.raises(InfeasibleError, match="did not settle"):
        solve_op_b(network, BehavioralModel(0.5))
    assert time.perf_counter() - start < 10.0


def test_node_level_infeasible_exits_4(tmp_path, capsys):
    path = tmp_path / "infeasible.yaml"
    path.write_text(
        "behavior: {gamma: 0.5}\n"
        "targets:\n"
        "  - {id: a, loss_value: 5.0, prob_model: {family: exponential, baseline: 1.0},"
        " demand_lower: 5.0}\n"
        "  - {id: b, loss_value: 4.0, prob_model: {family: exponential, baseline: 1.0}}\n"
        "sources:\n"
        "  - {id: s1, supply_upper: 3.0}\n"
        "  - {id: s2, supply_upper: 10.0}\n"
        "edges: [[a, s1], [b, s2]]\n"
    )
    out = tmp_path / "report.txt"
    assert cli.main(["solve", str(path), "--mode", "op_b", "-o", str(out)]) == 4
    assert "infeasible:" in capsys.readouterr().err
