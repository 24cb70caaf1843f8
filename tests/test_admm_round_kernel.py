"""``run_admm`` and the per-agent protocol share one target Newton.

``run_admm`` solves each target with the same private Newton kernel the
``TargetAgent``s run, on its slice of one vector b = consensus - duals/eta,
so both must evaluate the scalar marginal at the same totals in the same
order. Two more networks check the protocol equality where the array
round takes its other branches: sources of different degrees whose supply
bounds hold for some and bind for others in the same round (every branch
of ``centralized._shifts``), and a target held up by its ``demand_lower``
(the floor of the target clamp). A unit test pins ``_shifts`` to the
per-row ``project_box_sum`` byte for byte.
"""

import math

import numpy as np
import pytest

from secalloc import admm
from secalloc.admm import AdmmConfig, run_admm
from secalloc.centralized import _shifts, project_box_sum
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)
from test_admm_protocol import CASES, array_run, protocol_run

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def record_marginal_totals(monkeypatch):
    totals = []
    kernel = admm.marginal_perceived_cost

    def recording(target, behavior, total):
        totals.append((target.id, total))
        return kernel(target, behavior, total)

    monkeypatch.setattr(admm, "marginal_perceived_cost", recording)
    return totals


@pytest.mark.parametrize("name", list(CASES))
def test_run_admm_evaluates_the_protocols_newton(name, monkeypatch):
    network, behavior = CASES[name]()
    config = AdmmConfig()
    totals = record_marginal_totals(monkeypatch)
    protocol_run(network, behavior, config)
    expected = list(totals)
    totals.clear()
    run_admm(network, behavior, config)
    assert totals == expected
    assert len(expected) > 0


def mixed_degrees():
    # sources of degree 1, 2 and 3: in some rounds s2's supply bound holds
    # while s1's and s3's bind, in most every source's bound binds, and in
    # some no bound of a group binds
    prob = AttackProbabilityModel.exponential(1.0)
    targets = tuple(
        TargetSpec(f"t{k + 1}", loss, prob)
        for k, loss in enumerate([12.0, 9.0, 7.0, 5.0, 4.0, 3.0])
    )
    sources = (
        SourceSpec("s1", 1.0, weight_tau=0.3),
        SourceSpec("s2", 50.0, weight_tau=0.05),
        SourceSpec("s3", 0.5, weight_tau=0.3),
        SourceSpec("s4", 1.5, weight_tau=0.2),
        SourceSpec("s5", 2.0, weight_tau=0.25),
        SourceSpec("s6", 40.0, weight_tau=0.01),
    )
    links = {
        "t1": ["s1", "s4"],
        "t2": ["s1", "s2", "s5"],
        "t3": ["s2", "s3"],
        "t4": ["s3", "s4"],
        "t5": ["s4", "s5"],
        "t6": ["s5", "s6"],
    }
    edges = tuple((t, s) for t, ss in links.items() for s in ss)
    return TransportNetwork(targets, sources, edges), BehavioralModel(0.7)


def demand_floor():
    # t3's own optimum lies far below its demand_lower of 2
    prob = AttackProbabilityModel.exponential(1.0)
    targets = (
        TargetSpec("t1", 10.0, prob),
        TargetSpec("t2", 6.0, prob),
        TargetSpec("t3", 0.2, prob, demand_lower=2.0),
    )
    sources = (SourceSpec("s1", 4.0, weight_tau=0.1), SourceSpec("s2", 3.0, weight_tau=0.1))
    return TransportNetwork.complete(targets, sources), BehavioralModel(0.6)


def shift_branches(monkeypatch):
    """Record, per call of admm._shifts and group, whether all, some or none
    of the group's rows were off their bounds."""
    seen = []
    shifts = admm._shifts

    def recording(v, groups):
        for positions, lower, upper in groups:
            s = np.maximum(v[positions], 0.0).sum(axis=1)
            off = (s < lower) | (s > upper)
            seen.append("all" if off.all() else "some" if off.any() else "none")
        return shifts(v, groups)

    monkeypatch.setattr(admm, "_shifts", recording)
    return seen


def assert_protocol_equality(network, behavior, monkeypatch):
    config = AdmmConfig()
    trace, consensus = protocol_run(network, behavior, config)
    report, final = array_run(network, behavior, config, monkeypatch)
    assert list(report.residual_trace) == trace
    assert report.iterations == len(trace)
    assert final.tolist() == consensus.tolist()


def test_mixed_degree_sources_equal_the_protocol(monkeypatch):
    network, behavior = mixed_degrees()
    assert sorted(len(network.edges_of_source(s.id)) for s in network.sources) == [
        1, 2, 2, 2, 3, 3,
    ]
    seen = shift_branches(monkeypatch)
    assert_protocol_equality(network, behavior, monkeypatch)
    assert {"all", "some", "none"} <= set(seen)


def test_binding_demand_floor_equals_the_protocol(monkeypatch):
    network, behavior = demand_floor()
    clamps = []
    project = admm.project_box_sum

    def recording(values, lower, upper):
        clamps.append((lower, upper))
        return project(values, lower, upper)

    monkeypatch.setattr(admm, "project_box_sum", recording)
    assert_protocol_equality(network, behavior, monkeypatch)
    # run_admm's target clamp projected t3 onto its floor
    assert (2.0, 2.0) in clamps


def group(positions, lower, upper):
    return np.array(positions), np.array(lower, dtype=float), np.array(upper, dtype=float)


def test_shifts_equal_project_box_sum_by_bytes():
    rng = np.random.default_rng(7)
    v = rng.normal(0.5, 1.0, 40)
    v[36:] = [-0.25, 0.0, 0.75, 3.0]
    groups = {
        # every row off: above its upper, below its lower, a zero total
        "all off": group([[0, 1, 2], [3, 4, 5], [6, 7, 8]], [0.0, 50.0, 0.0], [0.5, math.inf, 0.0]),
        # some rows off: one fits, one is above, one is below
        "some off": group([[9, 10], [11, 12], [13, 14]], [0.0, 0.0, 40.0], [100.0, 0.1, math.inf]),
        # no row off
        "none off": group([[15, 16], [36, 37]], [0.0, 0.0], [math.inf, 1.0]),
        # 12 entries per row: numpy's pairwise sums go past their 8-entry blocks
        "wide": group(
            [list(range(16, 28)), list(range(24, 36)), list(range(28, 40))],
            [0.0, 0.0, 30.0],
            [0.5, 1000.0, math.inf],
        ),
    }
    offs = {}
    for name, (positions, lower, upper) in groups.items():
        s = np.maximum(v[positions], 0.0).sum(axis=1)
        offs[name] = ((s < lower) | (s > upper)).tolist()
        [(_, theta)] = _shifts(v, [(positions, lower, upper)])
        got = np.maximum(v[positions] - theta[:, None], 0.0)
        rows = zip(positions, lower, upper)
        want = np.array([project_box_sum(v[row], lo, up) for row, lo, up in rows])
        assert got.tobytes() == want.tobytes(), name
    assert offs == {
        "all off": [True, True, True],
        "some off": [False, True, True],
        "none off": [False, False],
        "wide": [True, False, True],
    }
