"""Reject paths that pin today's messages and exit codes: scenario
diagnostics, network construction, the plan and projection argument
checks, op_b's aggregate feasibility check, aborted and malformed sweeps,
and the message bus's delivery checks."""

import os

import numpy as np
import pytest

from secalloc import cli
from secalloc.admm import EdgeState, SourceAgent, TargetAgent, message_bus_round
from secalloc.centralized import feasibility_violation, project_capped_sum, solve_op_a, solve_op_b
from secalloc.errors import DomainError, InfeasibleError, MissingMessageError, ScenarioError
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from secalloc.scenario_io import build_case_study, parse_scenario

PROB = AttackProbabilityModel.exponential(1.0)
CASE_STUDY = os.path.join(os.path.dirname(__file__), "..", "scenarios", "case_study.yaml")

HEAD = "behavior: {gamma: 0.5}\n"
TARGETS = "targets:\n  - {id: t1, loss_value: 12.0}\n  - {id: t2, loss_value: 6.0}\n"
SOURCES = "sources:\n  - {id: s1, supply_upper: 3.0}\n"


def diagnostics(text):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return list(info.value.diagnostics)


class TestScenarioDiagnostics:
    def test_duplicate_target_id(self):
        text = HEAD + TARGETS + "  - {id: t1, loss_value: 3.0}\n" + SOURCES + "edges: complete\n"
        assert diagnostics(text) == ["line 5: duplicate target id 't1'"]

    def test_duplicate_source_id(self):
        text = HEAD + TARGETS + SOURCES + "  - {id: s1, supply_upper: 1.0}\n" + "edges: complete\n"
        assert diagnostics(text) == ["line 7: duplicate source id 's1'"]

    @pytest.mark.parametrize("value", ["3", "[exponential, 1.0]"])
    def test_prob_model_that_is_not_a_mapping(self, value):
        text = HEAD + TARGETS.replace("loss_value: 6.0", f"loss_value: 6.0, prob_model: {value}")
        text += SOURCES + "edges: complete\n"
        assert diagnostics(text) == [
            "line 4: targets[1].prob_model must be a mapping with family and baseline"
        ]

    def test_non_scalar_key(self):
        text = HEAD + TARGETS + SOURCES + "edges: complete\nsolver: {[a]: 1}\n"
        assert diagnostics(text) == ["line 8: mapping keys must be scalars"]

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("[t1]", "line 9: edges[1] must be a [target, source] pair"),
            ("5", "line 9: edges[1] must be a [target, source] pair"),
            ("[t1, s1, s1]", "line 9: edges[1] must be a [target, source] pair"),
            ("[t1, s1]", "line 9: duplicate edge [t1, s1]"),
        ],
        ids=["short", "scalar", "long", "duplicate"],
    )
    def test_bad_or_duplicate_edge_pair(self, edge, message):
        text = HEAD + TARGETS + SOURCES + f"edges:\n  - [t1, s1]\n  - {edge}\n  - [t2, s1]\n"
        assert diagnostics(text) == [message]

    def test_edge_end_that_is_not_a_string(self):
        # the entry is dropped after its one diagnostic: no reference check
        # runs on an end that was never read
        text = HEAD + TARGETS + SOURCES + "edges:\n  - [[t1], s1]\n  - [t1, s1]\n  - [t2, s1]\n"
        assert diagnostics(text) == ["line 8: edges[0][0] must be a string"]

    @pytest.mark.parametrize("text", ["- 1\n- 2\n", "just text\n", "42\n"])
    def test_root_that_is_not_a_mapping(self, text):
        assert diagnostics(text) == ["line 1: scenario must be a YAML mapping"]

    def test_root_that_is_not_a_mapping_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n")
        assert cli.main(["solve", str(path), "-o", str(tmp_path / "r")]) == cli.EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err == "scenario error:\nline 1: scenario must be a YAML mapping\n"


class TestTransportNetwork:
    T = (TargetSpec("t1", 2.0, PROB), TargetSpec("t2", 1.0, PROB))
    S = (SourceSpec("s1", 1.0), SourceSpec("s2", 1.0))

    @pytest.mark.parametrize(
        "targets, sources, message",
        [
            ((T[0], T[0]), S, "duplicate target ids"),
            (T, (S[0], S[0]), "duplicate source ids"),
        ],
        ids=["targets", "sources"],
    )
    def test_duplicate_ids(self, targets, sources, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            TransportNetwork(targets, sources, (("t1", "s1"),))

    def test_edge_to_an_unknown_target(self):
        edges = (("t1", "s1"), ("t2", "s2"), ("t9", "s1"))
        with pytest.raises(DomainError) as info:
            TransportNetwork(self.T, self.S, edges)
        assert str(info.value) == "edge ('t9', 's1') references unknown target 't9'"

    def test_source_with_no_edge(self):
        with pytest.raises(DomainError) as info:
            TransportNetwork(self.T, self.S, (("t1", "s1"), ("t2", "s1")))
        assert str(info.value) == "source 's2' has no incident edge"


def test_plan_with_a_nan_amount():
    with pytest.raises(DomainError) as info:
        AllocationPlan({("t1", "s1"): 1.0, ("t2", "s1"): float("nan")})
    assert str(info.value) == "amount on edge ('t2', 's1') is not finite"


def test_projection_onto_a_negative_total():
    with pytest.raises(ValueError, match="^total must be >= 0$"):
        project_capped_sum(np.array([1.0, 2.0]), -1.0)


def test_violation_under_an_unknown_mode():
    network = TransportNetwork.complete(TestTransportNetwork.T, TestTransportNetwork.S)
    with pytest.raises(ValueError, match="^unknown mode 'op_c'$"):
        feasibility_violation(network, AllocationPlan.zero(network), "op_c")


def test_op_b_rejects_supply_floors_above_demand_caps():
    targets = (
        TargetSpec("t1", 2.0, PROB, demand_upper=1.0),
        TargetSpec("t2", 1.0, PROB, demand_upper=0.5),
    )
    sources = (SourceSpec("s1", 3.0, supply_lower=2.0),)
    network = TransportNetwork.complete(targets, sources)
    with pytest.raises(InfeasibleError) as info:
        solve_op_b(network, BehavioralModel(0.5))
    assert str(info.value) == "total supply lower bound exceeds total demand upper bound"


def test_op_b_floors_above_caps_exit_4(tmp_path, capsys):
    path = tmp_path / "floors.yaml"
    path.write_text(
        HEAD + "targets:\n  - {id: t1, loss_value: 2.0, demand_upper: 1.0}\n"
        "sources:\n  - {id: s1, supply_upper: 3.0, supply_lower: 2.0}\nedges: complete\n"
    )
    code = cli.main(["solve", str(path), "--mode", "op_b", "-o", str(tmp_path / "r")])
    assert code == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err == "infeasible: total supply lower bound exceeds total demand upper bound\n"


class TestSweeps:
    def test_aborted_sweep_writes_the_rows_before_it_and_exits_5(self, tmp_path, capsys):
        # cap the iterations at what the first grid point needs, so that
        # the first later point that needs more ends the sweep there
        network, _ = build_case_study()
        grid = np.linspace(0.3, 1.0, 25)
        needs = [solve_op_a(network, BehavioralModel(float(g))).iterations for g in grid]
        cap = needs[0]
        stop = next(k for k, n in enumerate(needs) if n > cap)
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep-gamma", CASE_STUDY, "--max-iterations", str(cap), "-o", str(out)])
        assert code == cli.EXIT_NO_CONVERGENCE
        rows = out.read_text().splitlines()
        assert rows[0].startswith("param,target_t1,")
        assert [float(r.split(",")[0]) for r in rows[1:]] == pytest.approx(grid[:stop])
        err = capsys.readouterr().err
        assert err == (
            f"aborted: gamma={grid[stop]:g} did not converge "
            f"(op_a solve did not converge in {cap} iterations); partial output in {out}\n"
        )

    @pytest.mark.parametrize("verb, what", [("sweep-gamma", "gamma"), ("sweep-tau", "tau")])
    def test_one_step_is_a_scenario_error(self, verb, what, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main([verb, CASE_STUDY, "--steps", "1", "-o", str(out)])
        assert code == cli.EXIT_SCENARIO
        assert capsys.readouterr().err == f"scenario error:\n{what} grid needs at least 2 points\n"
        assert not out.exists()


class TestMessageBus:
    def build(self):
        targets = (TargetSpec("a", 6.0, PROB), TargetSpec("b", 3.0, PROB))
        sources = (SourceSpec("s", 2.0),)
        net = TransportNetwork.complete(targets, sources)
        behavior = BehavioralModel(0.9)
        agents = [
            *(TargetAgent(t, behavior, net.edges_of_target(t.id)) for t in targets),
            SourceAgent(sources[0], net.edges),
        ]
        for agent in agents:
            agent.solve(1.0)
        return net, agents, {e: EdgeState() for e in net.edges}

    def test_proposal_for_an_unknown_edge(self):
        net, agents, states = self.build()
        del states[("b", "s")]
        with pytest.raises(MissingMessageError) as info:
            message_bus_round(agents, states, 1.0)
        assert str(info.value) == "proposal for unknown edge ('b', 's')"

    def test_duplicate_proposal(self):
        net, agents, states = self.build()
        with pytest.raises(MissingMessageError) as info:
            message_bus_round([*agents, agents[0]], states, 1.0)
        assert str(info.value) == "duplicate proposal for edge ('a', 's')"

    def test_edge_missing_a_proposal(self):
        net, agents, states = self.build()
        with pytest.raises(MissingMessageError) as info:
            message_bus_round([agents[0], agents[2]], states, 1.0)
        assert str(info.value) == "edge ('b', 's') missing a proposal this round"

    def test_agent_that_does_not_propose_for_its_edge(self):
        net, agents, states = self.build()
        agents[1].local_plan = {}
        with pytest.raises(MissingMessageError) as info:
            message_bus_round(agents, states, 1.0)
        assert str(info.value) == "agent b did not propose for edge ('b', 's')"
