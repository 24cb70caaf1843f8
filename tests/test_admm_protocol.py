"""``run_admm`` is the per-agent protocol, run on edge arrays.

The reference below drives ``TargetAgent``s and ``SourceAgent``s from
``_initial_consensus`` through ``message_bus_round``, with ``run_admm``'s
stop and penalty rules: each agent sees only its own spec and the
(consensus, dual) pair mailed on its edges. ``run_admm`` holds the same
round state as edge-ordered arrays and solves every source at once, so
every round's trace record, the final consensus and the error that ends a
run out of the float range must equal the protocol's exactly.
"""

import numpy as np
import pytest

from helpers import complete_network
from secalloc import admm
from secalloc.admm import (
    AdmmConfig,
    EdgeState,
    SourceAgent,
    TargetAgent,
    _initial_consensus,
    message_bus_round,
    run_admm,
)
from secalloc.centralized import _make_objective
from secalloc.errors import ConvergenceError, DomainError
from secalloc.model import BehavioralModel, TraceRecord
from secalloc.scenario_io import build_case_study, parse_scenario
from test_admm_binding_caps import NETWORKS

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def protocol_run(network, behavior, config):
    """The trace and the final consensus of the per-agent protocol."""
    agents = [
        *(TargetAgent(t, behavior, network.edges_of_target(t.id)) for t in network.targets),
        *(SourceAgent(s, network.edges_of_source(s.id)) for s in network.sources),
    ]
    consensus = _initial_consensus(network)
    states = {e: EdgeState(consensus=float(c)) for e, c in zip(network.edges, consensus)}
    for agent in agents:
        for e in agent.edges:
            agent.receive(e, states[e].consensus, states[e].dual)
    objective, _ = _make_objective(network, behavior, "op_b")
    eta, trace = config.eta, []
    for iteration in range(1, config.max_iterations + 1):
        try:
            for agent in agents:
                agent.solve(eta)
        except DomainError as exc:
            raise admm._out_of_range(iteration, eta, str(exc), trace) from exc
        previous = consensus
        states = message_bus_round(agents, states, eta)
        consensus = np.array([states[e].consensus for e in network.edges])
        if not np.isfinite(consensus).all():
            raise admm._out_of_range(iteration, eta, "the consensus is not finite", trace)
        primal = max(
            abs(s.last_target_proposal - s.last_source_proposal) for s in states.values()
        )
        drift = float(np.abs(consensus - previous).max())
        trace.append(TraceRecord(iteration, primal, objective(consensus)))
        if primal <= config.primal_tolerance and eta * drift <= config.dual_tolerance:
            return trace, consensus
        if iteration <= admm._BALANCE_ROUNDS:
            if primal > admm._BALANCE_RATIO * eta * drift:
                eta *= 2.0
            elif eta * drift > admm._BALANCE_RATIO * primal:
                eta *= 0.5
    raise AssertionError("the protocol did not converge")


def array_run(network, behavior, config, monkeypatch):
    """run_admm's report and the last consensus it projected."""
    projected = []
    make = admm._make_projector

    def recording(net, mode):
        project = make(net, mode)

        def wrapped(z):
            projected.append(np.array(z))
            return project(z)

        return wrapped

    monkeypatch.setattr(admm, "_make_projector", recording)
    report = run_admm(network, behavior, config)
    return report, projected[-1]


def binding_cap():
    # a shared target cap binds, so target solves take the clamp's projection
    scenario = parse_scenario(NETWORKS["5x2"])
    return scenario.network, scenario.behavior


def reciprocal():
    network = complete_network([12.0, 9.0, 4.0], [3.0, 1.5], 2.0, "reciprocal", tau=0.3)
    return network, BehavioralModel(0.6)


def wide():
    # each source has 12 edges: numpy's pairwise sum blocks past 8 entries
    network = complete_network([12.0 - 0.7 * k for k in range(12)], [6.0, 2.5], tau=0.2)
    return network, BehavioralModel(0.8)


CASES = {
    "case study": build_case_study,
    "binding cap 5x2": binding_cap,
    "reciprocal": reciprocal,
    "12x2": wide,
}


@pytest.mark.parametrize("name", list(CASES))
def test_each_round_equals_the_protocol(name, monkeypatch):
    network, behavior = CASES[name]()
    config = AdmmConfig()
    trace, consensus = protocol_run(network, behavior, config)
    report, final = array_run(network, behavior, config, monkeypatch)
    assert list(report.residual_trace) == trace
    assert report.iterations == len(trace)
    assert final.tolist() == consensus.tolist()


def test_the_same_round_leaves_the_float_range():
    network, behavior = build_case_study()
    config = AdmmConfig(eta=1e-320)
    with pytest.raises(ConvergenceError) as expected:
        protocol_run(network, behavior, config)
    with pytest.raises(ConvergenceError) as actual:
        run_admm(network, behavior, config)
    assert str(actual.value) == str(expected.value)
    assert str(actual.value).startswith("round 1 at eta ")
    assert list(actual.value.trace) == list(expected.value.trace)
