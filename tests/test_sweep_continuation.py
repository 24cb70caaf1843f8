"""sweep-tau as continuation: each grid point's op_b solve starts from the
plan of the point before it.

Only tau_c changes along a tau grid, so the last optimum is a far better
start than the uniform split, and the stop test stays the same. Each
warm point must therefore land where a cold solve at that tau lands, up
to the accuracy of the solves themselves:

* where the aggregates are unique (complete networks, strictly ordered
  losses, no target bounds), within 1e-6 x budget; the objective, which
  is stationary there, within 1e-9 relative; the true and perceived
  losses, which move at first order with the aggregates, within 1e-6
  relative. Two converged solves are only that close: on the case study
  a cold point's true loss is 4e-8 relative from the warm point's at the
  default tolerances, and 2.6e-8 still at a gradient tolerance of 1e-11;
* on the binding-cap networks, whose optimal faces are flat, the
  objective within 1e-9 x max(1, |objective|) and the KKT residual
  within 1e-3 x budget.

The sweeps run through ``cli.main``; the op_b solves it makes are
recorded, so every row is compared at full precision and not at the
CSV's 9 digits.
"""

import os

import numpy as np
import pytest

from secalloc import centralized, cli
from secalloc.centralized import _uniform_start, kkt_residual, solve_op_b
from secalloc.errors import PlanMismatchError
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    _plan_totals,
)
from secalloc.scenario_io import ScenarioFile, build_case_study, parse_scenario, write_scenario
from test_admm_binding_caps import NETWORKS

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
STEPS = 25


def seeded_network(seed):
    """A complete network with strictly ordered losses and a utility slope
    per edge, so that the optimum moves along the tau grid."""
    rng = np.random.default_rng(seed)
    n_targets, n_sources = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    losses = sorted(rng.choice(np.arange(4, 20 * n_targets), n_targets, replace=False) / 2.0)
    model = AttackProbabilityModel.exponential(float(rng.uniform(0.5, 2.0)))
    targets = tuple(
        TargetSpec(f"t{k + 1}", float(u), model) for k, u in enumerate(reversed(losses))
    )
    sources = tuple(
        SourceSpec(
            f"s{k + 1}",
            float(rng.uniform(0.5, 3.0)),
            utility_coeffs={t.id: float(rng.uniform(0.5, 1.5)) for t in targets},
        )
        for k in range(n_sources)
    )
    network = TransportNetwork.complete(targets, sources)
    return write_scenario(ScenarioFile(network, BehavioralModel(float(rng.uniform(0.3, 1.0))), True, {}, {}))


def shipped(name):
    with open(os.path.join(SCENARIO_DIR, f"{name}.yaml"), encoding="utf-8") as handle:
        return handle.read()


def sweep_tau(text, tmp_path, monkeypatch):
    """The scenario and the op_b solves of one ``sweep-tau`` run, as
    (network, config, report) per grid point, in grid order."""
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    solves, solve = [], centralized.solve_op_b

    def recording(network, behavior, config, start=None):
        report = solve(network, behavior, config, start)
        solves.append((network, config, report))
        return report

    monkeypatch.setattr(centralized, "solve_op_b", recording)
    out = tmp_path / "tau.csv"
    assert cli.main(["sweep-tau", str(path), "-o", str(out), "--steps", str(STEPS)]) == cli.EXIT_OK
    assert len(solves) == STEPS
    return parse_scenario(text), solves


def objective(report):
    return report.perceived_loss - report.source_utility


STRICT = {
    "case_study": shipped("case_study"),
    "discrimination": shipped("discrimination"),
    **{f"seeded-{seed}": seeded_network(seed) for seed in (1, 3, 5)},
}


@pytest.mark.parametrize("name", list(STRICT))
def test_warm_points_match_cold_solves_where_the_aggregates_are_unique(name, tmp_path, monkeypatch):
    scenario, solves = sweep_tau(STRICT[name], tmp_path, monkeypatch)
    budget = scenario.network.total_supply()
    for network, config, warm in solves:
        cold = solve_op_b(network, scenario.behavior, config)
        error = np.abs(np.subtract(_plan_totals(network, warm.plan), _plan_totals(network, cold.plan)))
        assert error.max() <= 1e-6 * budget
        assert objective(warm) == pytest.approx(objective(cold), rel=1e-9, abs=1e-9)
        assert warm.true_loss == pytest.approx(cold.true_loss, rel=1e-6)
        assert warm.perceived_loss == pytest.approx(cold.perceived_loss, rel=1e-6)


@pytest.mark.parametrize("name", list(NETWORKS))
def test_warm_points_on_flat_faces_match_cold_objectives(name, tmp_path, monkeypatch):
    scenario, solves = sweep_tau(NETWORKS[name], tmp_path, monkeypatch)
    budget = scenario.network.total_supply()
    for network, config, warm in solves:
        cold = solve_op_b(network, scenario.behavior, config)
        assert abs(objective(warm) - objective(cold)) <= 1e-9 * max(1.0, abs(objective(cold)))
        assert kkt_residual(network, scenario.behavior, warm.plan, "op_b") <= 1e-3 * budget


def test_warm_case_study_grid_takes_under_half_the_cold_iterations(tmp_path, monkeypatch):
    scenario, solves = sweep_tau(STRICT["case_study"], tmp_path, monkeypatch)
    warm = sum(report.iterations for _, _, report in solves)
    cold = sum(solve_op_b(n, scenario.behavior, c).iterations for n, c, _ in solves)
    assert 2 * warm < cold


class TestStart:
    def setup_method(self):
        self.network, self.behavior = build_case_study()
        self.budget = self.network.total_supply()

    def aggregates(self, report):
        return np.array(_plan_totals(self.network, report.plan))

    def test_a_start_on_other_edges_is_a_plan_mismatch(self):
        start = AllocationPlan({("t1", "s1"): 1.0})
        with pytest.raises(PlanMismatchError, match="plan edges differ from network edges"):
            solve_op_b(self.network, self.behavior, start=start)

    @pytest.mark.parametrize("where", ["zeros", "full supply on every edge"])
    def test_an_infeasible_start_is_projected_first(self, where):
        supply = {s.id: s.supply_upper for s in self.network.sources}
        amount = (lambda y: 0.0) if where == "zeros" else (lambda y: supply[y])
        start = AllocationPlan({(x, y): amount(y) for x, y in self.network.edges})
        cold = solve_op_b(self.network, self.behavior)
        warm = solve_op_b(self.network, self.behavior, start=start)
        assert np.abs(self.aggregates(warm) - self.aggregates(cold)).max() <= 1e-6 * self.budget

    def test_no_start_is_the_uniform_start(self):
        report = solve_op_b(self.network, self.behavior, start=None)
        uniform = self.network.edge_index.to_plan(_uniform_start(self.network))
        explicit = solve_op_b(self.network, self.behavior, start=uniform)
        assert report.iterations == explicit.iterations == 13
        assert report.plan.amounts == explicit.plan.amounts
        assert report.plan.amounts[("t1", "s1")] == pytest.approx(3.2272628687411635, rel=1e-12)
        assert report.plan.amounts[("t5", "s2")] == pytest.approx(0.0010798850308493257, rel=1e-9)
