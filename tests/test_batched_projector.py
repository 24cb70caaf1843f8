"""The projector that shifts a whole degree group at once, and PGD's reuse
of the residual's projection as its unit-step candidate.

Each side's nodes are bucketed by edge count, so every shift, node sum
and violation is computed on dense rows. The projection and the sums must
equal, bit for bit, a per-node loop over the nodes' own slices, on
networks whose groups range from one edge to a hundred (rows of 8 or more
entries are where a padded row would sum differently).
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import TIGHT
from secalloc import centralized
from secalloc.centralized import (
    feasibility_violation,
    project_feasible,
    solve_op_a,
    solve_op_b,
)
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)

SEEDS = range(4)
MODES = ("op_a", "op_b")

# edges of each source: one hub of 100, then degrees 1 to 20
SOURCE_DEGREES = [100, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 20, 2, 3, 5, 7, 12]
# the first targets also fan out to this many sources
HUB_TARGET_DEGREES = [8, 12, 20]
N_TARGETS = 104


def mixed_network(seed):
    """104 targets and 20 sources whose degrees span 1, 2-7, 8-20 and 100.

    The bounds are drawn around a random plan, so the network is feasible:
    every fourth target has a zero cap (its edges carry nothing in the
    plan), every fourth a floor equal to its cap, the rest a cap 1-1.3x
    above the plan's sum and some a floor below it; source floors sit
    0.3-0.9x below the plan's sums. So caps and floors bind.
    """
    rng = np.random.default_rng(seed)
    n_s = len(SOURCE_DEGREES)
    pairs = set()
    for s, degree in enumerate(SOURCE_DEGREES):
        pairs.update((int(t), s) for t in rng.choice(N_TARGETS, size=degree, replace=False))
    for t, degree in enumerate(HUB_TARGET_DEGREES):
        pairs.update((t, int(s)) for s in rng.choice(n_s, size=degree, replace=False))
    for t in range(N_TARGETS):
        if not any(x == t for x, _ in pairs):
            pairs.add((t, int(rng.integers(n_s))))
    pairs = sorted(pairs)
    flow = {p: (0.0 if p[0] % 4 == 1 else float(rng.uniform(0.2, 1.0))) for p in pairs}
    demand = [sum(v for (t, _), v in flow.items() if t == k) for k in range(N_TARGETS)]
    supply = [sum(v for (_, s), v in flow.items() if s == k) for k in range(n_s)]

    def target_bounds(k, d):
        if k % 4 == 1:
            return 0.0, 0.0
        if k % 4 == 2:
            return d, d
        return (d * float(rng.uniform(0.0, 0.7)) if k % 4 == 3 else 0.0), d * float(rng.uniform(1.0, 1.3))

    prob = AttackProbabilityModel.exponential(0.5)
    targets = tuple(
        TargetSpec(f"t{k}", float(rng.uniform(1.0, 20.0)), prob, *target_bounds(k, d))
        for k, d in enumerate(demand)
    )
    sources = tuple(
        SourceSpec(f"s{k}", s * float(rng.uniform(1.0, 1.5)) + 0.1, s * float(rng.uniform(0.3, 0.9)))
        for k, s in enumerate(supply)
    )
    return TransportNetwork(targets, sources, tuple((f"t{t}", f"s{s}") for t, s in pairs))


def raw_vector(network, seed):
    # around the plan's scale, so some node sums fall inside their bounds,
    # some above and some below
    rng = np.random.default_rng(seed + 50)
    return rng.normal(0.3, 1.0, len(network.edges)) * rng.choice([0.1, 1.0, 5.0], len(network.edges))


def _node_bounds(network, mode):
    """(edge positions, lower, upper) per node, sources then targets: a
    slice per target, an index array per source."""
    index, op_b = network.edge_index, mode == "op_b"
    sources = [(idx, s.supply_lower if op_b else 0.0, s.supply_upper)
               for s, idx in zip(network.sources, index.source_indices)]
    targets = [(sl, t.demand_lower, t.demand_upper)
               for t, sl in zip(network.targets, index.target_slices)] if op_b else []
    return sources, targets


def _ref_threshold(v, total):
    if total == 0:
        return float(v.max())
    u = np.sort(v)[::-1]
    thetas = (np.cumsum(u) - total) / np.arange(1, v.size + 1)
    return float(thetas[np.nonzero(u - thetas > 0)[0][-1]])


def _ref_shift(v, lower, upper):
    s = float(np.maximum(v, 0.0).sum())
    return 0.0 if lower <= s <= upper else _ref_threshold(v, upper if s > upper else lower)


def reference_projection(network, z, mode):
    """One sort-based shift per node, sources then targets, until no target
    multiplier moves by more than 1e-13 of the largest of z, lam and mu."""
    sources, targets = _node_bounds(network, mode)
    lam = np.zeros(len(z))
    mu = np.zeros(len(z))
    for _ in range(10000):
        v = z - mu
        for idx, lower, upper in sources:
            lam[idx] = _ref_shift(v[idx], lower, upper)
        v = z - lam
        moved = 0.0
        for sl, lower, upper in targets:
            theta = _ref_shift(v[sl], lower, upper)
            moved = max(moved, abs(theta - mu[sl.start]))
            mu[sl] = theta
        if not targets or moved <= 1e-13 * max(np.abs(z).max(), np.abs(lam).max(), np.abs(mu).max()):
            return np.maximum(v - mu, 0.0)
    raise AssertionError("reference projection did not settle")


@pytest.fixture(scope="module", params=SEEDS)
def network(request):
    return mixed_network(request.param)


def test_groups_span_every_degree_range(network):
    index = network.edge_index
    sizes = {pos.shape[1] for _, pos in index.source_groups + index.target_groups}
    assert 1 in sizes
    assert sizes & set(range(2, 8))
    assert sizes & set(range(8, 21))
    assert max(sizes) >= 100
    for groups, members in (
        (index.target_groups, [np.arange(sl.start, sl.stop) for sl in index.target_slices]),
        (index.source_groups, index.source_indices),
    ):
        covered = sorted(int(n) for nodes, _ in groups for n in nodes)
        assert covered == list(range(len(members)))
        for nodes, positions in groups:
            for node, row in zip(nodes, positions):
                assert row.tolist() == members[node].tolist()


@pytest.mark.parametrize("mode", MODES)
def test_projection_equals_per_node_reference(network, mode):
    z = raw_vector(network, len(network.edges))
    raw = AllocationPlan(dict(zip(network.edge_index.edges, z)))
    got = network.edge_index.to_vector(project_feasible(raw, network, mode))
    want = reference_projection(network, z, mode)
    assert got.tobytes() == want.tobytes()
    assert feasibility_violation(network, network.edge_index.to_plan(got), mode) <= 1e-9


def test_pinned_and_zero_capped_targets_get_their_bound(network):
    z = raw_vector(network, 7)
    raw = AllocationPlan(dict(zip(network.edge_index.edges, z)))
    totals = network.edge_index.target_totals(
        network.edge_index.to_vector(project_feasible(raw, network, "op_b"))
    )
    for t, total in zip(network.targets, totals):
        if t.demand_upper == 0.0:
            assert total == 0.0
        elif t.demand_lower == t.demand_upper:
            assert total == pytest.approx(t.demand_upper, rel=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_sums_equal_per_slice_sums(network, mode):
    x = raw_vector(network, 3)
    index = network.edge_index
    assert index.target_totals(x) == [float(x[sl].sum()) for sl in index.target_slices]
    sources, targets = _node_bounds(network, mode)
    worst = float(np.maximum(-x, 0.0).max(initial=0.0))
    for positions, lower, upper in sources + targets:
        tot = float(x[positions].sum())
        worst = max(worst, lower - tot, tot - upper)
    plan = AllocationPlan(dict(zip(index.edges, x)))
    assert feasibility_violation(network, plan, mode) == worst


# --- one projection per accepted unit step ---------------------------------


def single_source_network(seed):
    """One source wired to every target, so the plan is the target totals
    and the optimum is unique; caps and floors loose enough that every
    unit step is accepted."""
    rng = np.random.default_rng(seed)
    prob = AttackProbabilityModel.exponential(1.0)
    targets = tuple(
        TargetSpec(f"t{k}", float(rng.uniform(2.0, 12.0)), prob, 0.1, 50.0) for k in range(5)
    )
    sources = (SourceSpec("s", 8.0, 2.0, weight_tau=0.3),)
    return TransportNetwork.complete(targets, sources)


@pytest.fixture
def projector_calls(monkeypatch):
    calls = []
    make = centralized._make_projector

    def counting(network, mode):
        project = make(network, mode)

        def wrapped(z):
            calls.append(mode)
            return project(z)

        return wrapped

    monkeypatch.setattr(centralized, "_make_projector", counting)
    return calls


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b])
def test_one_projection_per_iteration(solve, projector_calls):
    report = solve(single_source_network(0), BehavioralModel(0.6))
    assert report.iterations > 3
    # the starting point's projection, then one per iteration
    assert len(projector_calls) == report.iterations + 1


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b])
@pytest.mark.parametrize("step_size", [0.5, 2.0])
def test_other_step_sizes_reach_the_same_plan(solve, step_size):
    # the objective-stall exit is off, so the gradient criterion governs
    network = single_source_network(1)
    behavior = BehavioralModel(0.6)
    default = solve(network, behavior, TIGHT)
    other = solve(network, behavior, replace(TIGHT, step_size=step_size))
    assert other.converged
    for edge, amount in default.plan.amounts.items():
        assert other.plan.amounts[edge] == pytest.approx(amount, abs=1e-6)
