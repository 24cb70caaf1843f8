"""op_b's projector leaves out the targets whose bounds cannot bind.

A target with no floor and a cap above the supply caps of the sources
wired to it (by ``centralized._UNBINDABLE_RTOL``) stays within its bounds
after every source pass, so its multiplier stays 0 and the projector skips
it. The projection must still equal, byte for byte, the per-node reference
of ``test_batched_projector.py``, which shifts every target; solves with the
drop must equal solves with every target kept; and the objective and
gradient, which share one kernel evaluation at the same point, must equal a
fresh gradient.
"""

import importlib.util
import os

import numpy as np
import pytest

from secalloc import centralized
from secalloc.admm import run_admm
from secalloc.centralized import (
    _UNBINDABLE_RTOL,
    _bounds,
    _make_objective,
    project_feasible,
    solve_op_b,
)
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    EdgeIndex,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from secalloc.scenario_io import parse_scenario
from test_admm_binding_caps import NETWORKS
from test_batched_projector import reference_projection

GENERATE = os.path.join(os.path.dirname(__file__), "..", "bench", "generate.py")
SEEDS = range(4)
N_TARGETS, N_SOURCES = 30, 6

# each target's cap, from the sum w of its sources' caps
CAPS = {
    "half the wired supply": lambda w: 0.5 * w,
    "at the wired supply": lambda w: w,
    "1 ulp above it": lambda w: float(np.nextafter(w, np.inf)),
    "at the margin": lambda w: (1.0 + _UNBINDABLE_RTOL) * w,
    "just past the margin": lambda w: float(np.nextafter((1.0 + _UNBINDABLE_RTOL) * w, np.inf)),
    "far above it": lambda w: 10.0 * w,
    "inf": lambda w: np.inf,
}
KINDS = list(CAPS)


@pytest.fixture(scope="module")
def generate():
    spec = importlib.util.spec_from_file_location("bench_generate", GENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def capped_network(seed):
    """30 targets on 6 sources, each target wired to 1-4 of them. Target k
    takes its cap from CAPS[KINDS[k % 7]], and every fourth target a floor
    below what an even split of half of each source's cap gives it, so
    the network is feasible and each kind of cap comes with and without a
    floor."""
    rng = np.random.default_rng(seed)
    supply = rng.uniform(1.0, 5.0, N_SOURCES)
    wired = [sorted(rng.choice(N_SOURCES, size=int(rng.integers(1, 5)), replace=False))
             for _ in range(N_TARGETS)]
    out_degree = [sum(s in ws for ws in wired) or 1 for s in range(N_SOURCES)]
    prob = AttackProbabilityModel.exponential(0.5)
    targets = []
    for k, ws in enumerate(wired):
        share = sum(0.5 * supply[s] / out_degree[s] for s in ws)
        floor = float(rng.uniform(0.1, 0.9)) * share if k % 4 == 3 else 0.0
        cap = CAPS[KINDS[k % len(KINDS)]](sum(float(supply[s]) for s in ws))
        targets.append(TargetSpec(f"t{k}", float(rng.uniform(1.0, 20.0)), prob, floor, cap))
    sources = tuple(
        SourceSpec(f"s{s}", float(supply[s]), float(supply[s]) * float(rng.uniform(0.0, 0.5)))
        for s in range(N_SOURCES)
    )
    edges = tuple((f"t{k}", f"s{s}") for k, ws in enumerate(wired) for s in ws)
    return TransportNetwork(tuple(targets), sources, edges)


def kept_targets(network):
    index = network.edge_index
    kept = centralized._bindable(network, *_bounds(network, "op_b"))
    return sorted(int(k) for positions, _, _ in kept for k in index.edge_targets[positions[:, 0]])


def raw_vectors(network, seed):
    """Points at the plan's scale and far out on both sides, so that the
    sources' caps and floors bind and so do the targets' floors."""
    rng = np.random.default_rng(seed + 100)
    n = len(network.edges)
    yield rng.normal(0.3, 1.0, n) * rng.choice([0.1, 1.0, 5.0], n)
    yield rng.uniform(0.0, 50.0, n)
    yield rng.normal(0.0, 1e4, n)


@pytest.fixture(scope="module", params=SEEDS)
def network(request):
    return capped_network(request.param)


def test_only_provably_unbindable_targets_are_dropped(network):
    supply = {s.id: s.supply_upper for s in network.sources}
    expected = [
        k for k, t in enumerate(network.targets)
        if t.demand_lower > 0.0
        or not t.demand_upper > (1.0 + _UNBINDABLE_RTOL) * sum(
            supply[y] for x, y in network.edges if x == t.id)
    ]
    assert kept_targets(network) == expected
    kinds = {KINDS[k % len(KINDS)] for k in expected if network.targets[k].demand_lower == 0.0}
    assert kinds == set(KINDS[:4])
    floored = [k for k, t in enumerate(network.targets) if t.demand_lower > 0.0]
    assert floored and set(floored) <= set(expected)


def test_projection_equals_per_node_reference(network):
    index = network.edge_index
    for z in raw_vectors(network, len(network.edges)):
        raw = AllocationPlan(dict(zip(index.edges, z)))
        got = index.to_vector(project_feasible(raw, network, "op_b"))
        assert got.tobytes() == reference_projection(network, z, "op_b").tobytes()


def keep_every_target(monkeypatch):
    monkeypatch.setattr(centralized, "_bindable", lambda network, sources, targets: targets)


def loose_networks(generate):
    scenarios = [parse_scenario(text) for text in NETWORKS.values()]
    scenarios += [generate.bounded_network(np.random.default_rng(seed), 5, 3) for seed in SEEDS]
    return [generate.loose_caps(s) for s in scenarios]


def report_bytes(report):
    plan = np.array(list(report.plan.amounts.values()))
    values = [report.true_loss, report.perceived_loss, report.source_utility]
    trace = [(r.primal_residual, r.objective) for r in report.residual_trace]
    return plan.tobytes(), np.array(values).tobytes(), report.iterations, np.array(trace).tobytes()


@pytest.mark.parametrize("solve", [solve_op_b, run_admm], ids=["solve_op_b", "run_admm"])
def test_loose_cap_solves_equal_every_target_kept(generate, solve, monkeypatch):
    for scenario in loose_networks(generate):
        network, behavior = scenario.network, scenario.behavior
        assert kept_targets(network) == []
        dropped = report_bytes(solve(network, behavior))
        with monkeypatch.context() as patched:
            keep_every_target(patched)
            assert len(kept_targets(network)) == len(network.targets)
            kept = report_bytes(solve(network, behavior))
        assert dropped == kept


# --- one kernel evaluation per accepted point -------------------------------


@pytest.fixture
def neg_log_p_calls(monkeypatch):
    calls = []
    original = EdgeIndex.neg_log_p

    def counting(self, totals):
        calls.append(1)
        return original(self, totals)

    monkeypatch.setattr(EdgeIndex, "neg_log_p", counting)
    return calls


@pytest.mark.parametrize("mode", ["op_a", "op_b"])
def test_gradient_after_the_objective_equals_a_fresh_one(network, mode, neg_log_p_calls):
    behavior = BehavioralModel(0.6)
    rng = np.random.default_rng(7)
    x, y = (rng.uniform(0.0, 2.0, len(network.edges)) for _ in range(2))
    _, fresh_gradient = _make_objective(network, behavior, mode)
    want = fresh_gradient(x).tobytes()
    objective, gradient = _make_objective(network, behavior, mode)

    del neg_log_p_calls[:]
    objective(x)
    assert gradient(x).tobytes() == want
    assert len(neg_log_p_calls) == 1  # the gradient reused the objective's L

    objective(y)
    assert gradient(x).tobytes() == want
    assert gradient(x.copy()).tobytes() == want
    assert len(neg_log_p_calls) == 4  # a point the objective did not take is fresh
