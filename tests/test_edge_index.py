"""The network's shared edge index against brute-force scans of its edges.

Networks are random, sparse and complete, with their edges listed in a
shuffled order, so the index must recover the canonical target-major order
on its own. Every reference below rescans the edge list or the plan's
amounts.
"""

import numpy as np
import pytest

from secalloc.admm import _initial_consensus
from secalloc.centralized import feasibility_violation
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    perceived_loss,
    prelec_weight,
    true_loss,
)

SHAPES = [(3, 2, True), (5, 4, False), (6, 12, True), (12, 9, False), (4, 1, True)]


def random_network(seed, n_targets, n_sources, complete):
    rng = np.random.default_rng(seed)
    family = ["exponential", "reciprocal"][seed % 2]
    targets = [
        TargetSpec(
            f"t{i}",
            float(rng.uniform(1.0, 20.0)),
            AttackProbabilityModel(family, float(rng.uniform(1.1, 3.0))),
            demand_lower=float(rng.uniform(0.0, 0.5)),
            demand_upper=float(rng.uniform(2.0, 6.0)),
        )
        for i in range(n_targets)
    ]
    sources = [
        SourceSpec(
            f"s{j}",
            float(rng.uniform(1.0, 5.0)),
            supply_lower=float(rng.uniform(0.0, 0.5)),
            weight_tau=float(rng.uniform(0.0, 0.5)),
            utility_coeffs={
                f"t{i}": float(rng.uniform(0.5, 2.0)) for i in range(0, n_targets, 2)
            },
        )
        for j in range(n_sources)
    ]
    edges = [(t.id, s.id) for t in targets for s in sources]
    if not complete:
        kept = [e for e in edges if rng.random() < 0.4]
        # wire every node at least once
        for i, t in enumerate(targets):
            kept.append((t.id, sources[i % n_sources].id))
        for j, s in enumerate(sources):
            kept.append((targets[j % n_targets].id, s.id))
        edges = list(dict.fromkeys(kept))
    rng.shuffle(edges)
    net = TransportNetwork(tuple(targets), tuple(sources), tuple(edges))
    amounts = rng.uniform(-0.5, 2.0, len(net.edges))
    plan = AllocationPlan({e: float(v) for e, v in zip(edges, amounts)})
    return net, plan, float(rng.uniform(0.2, 1.0))


CASES = [random_network(seed, *shape) for seed, shape in enumerate(SHAPES)]
IDS = [f"{'complete' if c else 'sparse'}-{t}x{s}" for t, s, c in SHAPES]


@pytest.mark.parametrize("net, plan, gamma", CASES, ids=IDS)
def test_canonical_order_and_incidence(net, plan, gamma):
    tpos = {t.id: i for i, t in enumerate(net.targets)}
    spos = {s.id: j for j, s in enumerate(net.sources)}
    assert list(net.edges) == sorted(net.edges, key=lambda e: (tpos[e[0]], spos[e[1]]))
    for t in net.targets:
        assert net.edges_of_target(t.id) == tuple(e for e in net.edges if e[0] == t.id)
        assert net.target_by_id(t.id) is t
    for s in net.sources:
        assert net.edges_of_source(s.id) == tuple(e for e in net.edges if e[1] == s.id)
        assert net.source_by_id(s.id) is s
    index = net.edge_index
    assert index.tau_c.tolist() == [
        net.source_by_id(y).weight_tau * net.source_by_id(y).utility_slope(x)
        for x, y in net.edges
    ]


@pytest.mark.parametrize(
    "lookup", ["edges_of_target", "edges_of_source", "target_by_id", "source_by_id"]
)
def test_unknown_id_raises_key_error(lookup):
    net = CASES[1][0]
    with pytest.raises(KeyError):
        getattr(net, lookup)("nope")


def test_index_is_read_only_and_not_compared():
    net = CASES[2][0]
    with pytest.raises(ValueError):
        net.edge_index.tau_c[0] = 1.0
    with pytest.raises(ValueError):
        net.edge_index.source_indices[0][0] = 0
    reordered = TransportNetwork(net.targets, net.sources, tuple(reversed(net.edges)))
    assert reordered == net
    assert "edge_index" not in repr(net)


@pytest.mark.parametrize("net, plan, gamma", CASES, ids=IDS)
def test_losses_match_per_target_formula(net, plan, gamma):
    positive = AllocationPlan({e: abs(v) for e, v in plan.amounts.items()})
    aggregates = [positive.aggregate_at_target(t.id) for t in net.targets]
    probs = [t.prob_model.probability(a) for t, a in zip(net.targets, aggregates)]
    expected_true = sum(t.loss_value * p for t, p in zip(net.targets, probs))
    expected_perceived = sum(
        t.loss_value * prelec_weight(p, gamma) for t, p in zip(net.targets, probs)
    )
    # the index sums each target's slice with numpy's pairwise summation, so
    # only the last bits may differ from the sequential reference
    assert true_loss(net, positive) == pytest.approx(expected_true, rel=1e-13)
    assert perceived_loss(net, positive, BehavioralModel(gamma)) == pytest.approx(
        expected_perceived, rel=1e-13
    )


@pytest.mark.parametrize("net, plan, gamma", CASES, ids=IDS)
@pytest.mark.parametrize("mode", ["op_a", "op_b"])
def test_feasibility_violation_matches_brute_force(net, plan, gamma, mode):
    worst = max(0.0, max(-v for v in plan.amounts.values()))
    for s in net.sources:
        total = plan.aggregate_at_source(s.id)
        lower = 0.0 if mode == "op_a" else s.supply_lower
        worst = max(worst, lower - total, total - s.supply_upper)
    if mode == "op_b":
        for t in net.targets:
            total = plan.aggregate_at_target(t.id)
            worst = max(worst, t.demand_lower - total, total - t.demand_upper)
    assert feasibility_violation(net, plan, mode) == pytest.approx(worst, abs=1e-12)


@pytest.mark.parametrize("net, plan, gamma", CASES, ids=IDS)
def test_initial_consensus_matches_per_edge_formula(net, plan, gamma):
    degree = {}
    for x, y in net.edges:
        degree[x] = degree.get(x, 0) + 1
        degree[y] = degree.get(y, 0) + 1
    lower = {t.id: t.demand_lower for t in net.targets}
    lower.update({s.id: s.supply_lower for s in net.sources})
    expected = [max(lower[x] / degree[x], lower[y] / degree[y]) for x, y in net.edges]
    assert _initial_consensus(net).tolist() == expected
    assert all(v > 0 for v in expected)
