"""ADMM's over-relaxed rounds.

Before the bus averages, it pulls each proposal toward the edge's previous
consensus c by the factor a = 1.5: t' = a t + (1 - a) c and s' = a s +
(1 - a) c. The consensus becomes 1.5 mean - 0.5 c and the dual moves by
0.75 eta (t - s), while the primal residual stays the raw gap. On the case
study and the four binding-cap networks this takes at most 1,200 rounds in
all, where plain averaging took 1,562.
"""

import pytest

from secalloc.admm import EdgeState, SourceAgent, TargetAgent, message_bus_round, run_admm
from secalloc.centralized import feasibility_violation
from secalloc.model import AttackProbabilityModel, BehavioralModel, SourceSpec, TargetSpec, TransportNetwork
from secalloc.scenario_io import build_case_study, parse_scenario
from test_admm_binding_caps import NETWORKS, reference_optimum

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_one_bus_round_on_one_edge():
    # dyadic numbers, so every expression below is exact in floats
    target, source, consensus, dual, eta = 3.0, 1.0, 1.0, 0.5, 2.0
    prob = AttackProbabilityModel.exponential(1.0)
    network = TransportNetwork.complete((TargetSpec("t", 6.0, prob),), (SourceSpec("s", 2.0),))
    edge = network.edges[0]
    t_agent = TargetAgent(network.targets[0], BehavioralModel(0.9), network.edges)
    s_agent = SourceAgent(network.sources[0], network.edges)
    t_agent.local_plan = {edge: target}
    s_agent.local_plan = {edge: source}
    states = {edge: EdgeState(consensus=consensus, dual=dual)}

    updated = message_bus_round([t_agent, s_agent], states, eta)[edge]

    mean, gap = 0.5 * (target + source), target - source
    assert updated.consensus == 1.5 * mean - 0.5 * consensus == 2.5
    assert updated.dual == dual + 0.75 * eta * gap == 3.5
    assert updated.last_target_proposal == target
    assert updated.last_source_proposal == source
    assert t_agent.mailbox[edge] == s_agent.mailbox[edge] == (2.5, 3.5)


def problems():
    yield "case study", build_case_study()
    for name, text in NETWORKS.items():
        scenario = parse_scenario(text)
        yield name, (scenario.network, scenario.behavior)


PROBLEMS = dict(problems())


@pytest.fixture(scope="module")
def reports():
    return {name: run_admm(*problem) for name, problem in PROBLEMS.items()}


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_converges_within_the_binding_cap_bounds(name, reports):
    network, behavior = PROBLEMS[name]
    report = reports[name]
    best, plan = reference_optimum(network, behavior)
    assert report.perceived_loss - report.source_utility == pytest.approx(best, rel=1e-5)
    for edge, amount in plan.items():
        assert report.plan.amounts[edge] == pytest.approx(amount, abs=1e-3)
    assert feasibility_violation(network, report.plan, "op_b") <= 1e-12


def test_takes_at_most_1200_rounds_in_all(reports):
    rounds = {name: report.iterations for name, report in reports.items()}
    assert sum(rounds.values()) <= 1200, rounds
