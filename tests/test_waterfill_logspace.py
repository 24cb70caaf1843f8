"""Water-filling in log space: huge budgets and randomized cross-checks.

The huge-budget checks compare each funded target's log marginal,
psi(L) + log U with L = -log p, from a closed form written out here, so
they never form p (which underflows to 0 beyond a total of about 744).
The property tests draw complete networks and same-family target pairs
with a derandomized hypothesis profile, so every run sees the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_network
from secalloc import cli
from secalloc.centralized import SolverConfig, solve_op_a
from secalloc.errors import PreconditionError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    TargetSpec,
    marginal_perceived_cost,
)
from secalloc.waterfill import threshold, waterfill_allocate

FAMILY_BASELINES = [("exponential", 1.0), ("reciprocal", 2.0)]
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# op_a's gradient tolerance is absolute, and where every marginal is small
# (large baselines and budgets) its default 1e-7 stops op_a up to 1e-5
# short of the optimum: 1.03e-5 on U = (2.25, 1.25), exponential r = 2,
# gamma = 1, budget 7, where water-filling matches the closed form
# t1 = (7 + log 1.8) / 2 to 1e-15. The reference therefore runs tighter.
REFERENCE = SolverConfig(gradient_tolerance=1e-9, objective_tolerance=1e-18)


def log_marginal(family, baseline, loss_value, gamma, total):
    """log(-marginal) = log U + log gamma + (gamma-1) log L - L^gamma + log L'."""
    if family == "exponential":
        level, log_rate = total + baseline, 0.0
    else:
        level = math.log(total + baseline)
        log_rate = -level
    return (
        math.log(loss_value)
        + math.log(gamma)
        + (gamma - 1.0) * math.log(level)
        - level**gamma
        + log_rate
    )


class TestHugeBudgets:
    @pytest.mark.parametrize("budget", [700.0, 1e4])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("family,baseline", FAMILY_BASELINES)
    def test_common_level_exhausts_the_budget(self, family, baseline, gamma, budget):
        net = complete_network([12.0, 9.0], [budget], baseline=baseline, family=family)
        trace = waterfill_allocate(net, BehavioralModel(gamma))
        aggregates = trace.final_aggregates
        assert sum(aggregates.values()) == pytest.approx(budget, rel=1e-12)
        levels = [
            log_marginal(family, baseline, t.loss_value, gamma, aggregates[t.id])
            for t in net.targets
            if aggregates[t.id] > 0.0
        ]
        assert len(levels) == 2
        assert levels[0] == pytest.approx(levels[1], rel=1e-12)

    @pytest.mark.parametrize("budget", [700.0, 1e4])
    def test_gamma_one_exponential_gap_is_log_ratio(self, budget):
        net = complete_network([12.0, 9.0], [budget])
        aggregates = waterfill_allocate(net, BehavioralModel(1.0)).final_aggregates
        assert aggregates["t1"] - aggregates["t2"] == pytest.approx(
            math.log(12.0 / 9.0), abs=1e-9
        )

    def test_cli_waterfill_at_supply_700(self, tmp_path, capsys):
        path = tmp_path / "huge.yaml"
        path.write_text(
            "behavior:\n"
            "  gamma: 0.5\n"
            "targets:\n"
            "  - id: t1\n"
            "    loss_value: 12.0\n"
            "    prob_model: {family: exponential, baseline: 1.0}\n"
            "  - id: t2\n"
            "    loss_value: 9.0\n"
            "    prob_model: {family: exponential, baseline: 1.0}\n"
            "sources:\n"
            "  - id: s1\n"
            "    supply_upper: 700\n"
            "edges: complete\n"
        )
        out = tmp_path / "wf.txt"
        assert cli.main(["waterfill", str(path), "-o", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        section, total = None, 0.0
        for line in out.read_text().splitlines():
            if line.endswith(":"):
                section = line[:-1]
            elif section == "aggregates":
                total += float(line.split()[1])
        assert total == pytest.approx(700.0, rel=1e-8)


families = st.sampled_from(["exponential", "reciprocal"])


def baselines(family):
    low = 0.1 if family == "exponential" else 1.1
    return st.floats(low, low + 3.0)


@st.composite
def complete_networks(draw):
    family = draw(families)
    baseline = draw(baselines(family))
    gaps = draw(st.lists(st.floats(0.1, 4.0), min_size=2, max_size=6))
    losses = list(np.cumsum(gaps[::-1])[::-1] + 1.0)
    supplies = draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=3))
    gamma = draw(st.floats(0.3, 1.0))
    net = complete_network(losses, supplies, baseline=baseline, family=family)
    return net, BehavioralModel(gamma)


@st.composite
def mixed_baseline_pairs(draw):
    family = draw(families)
    r_i, r_j = draw(baselines(family)), draw(baselines(family))
    loss_j = draw(st.floats(1.0, 10.0))
    loss_i = loss_j + draw(st.floats(0.05, 10.0))
    gamma = draw(st.floats(0.3, 1.0))
    i = TargetSpec("i", loss_i, AttackProbabilityModel(family, r_i))
    j = TargetSpec("j", loss_j, AttackProbabilityModel(family, r_j))
    return i, j, BehavioralModel(gamma)


class TestRandomizedWaterfill:
    @settings(PROPERTY, max_examples=40)
    @given(complete_networks())
    def test_matches_op_a_and_spends_each_supply(self, case):
        net, behavior = case
        trace = waterfill_allocate(net, behavior)
        report = solve_op_a(net, behavior, REFERENCE)
        for t in net.targets:
            assert trace.final_aggregates[t.id] == pytest.approx(
                report.plan.aggregate_at_target(t.id), abs=1e-5
            )
        for s in net.sources:
            assert trace.per_source_plan.aggregate_at_source(s.id) == pytest.approx(
                s.supply_upper, abs=1e-9
            )

    @settings(PROPERTY, max_examples=150)
    @given(mixed_baseline_pairs())
    def test_threshold_meets_its_defining_equality(self, case):
        i, j, behavior = case
        rhs = marginal_perceived_cost(j, behavior, 0.0)
        if marginal_perceived_cost(i, behavior, 0.0) >= rhs:
            with pytest.raises(PreconditionError):
                threshold(i, j, behavior)
            return
        root = threshold(i, j, behavior)
        assert root >= 0.0
        assert abs(marginal_perceived_cost(i, behavior, root) - rhs) <= 1e-10
