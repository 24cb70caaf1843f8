"""The ADMM trace scores a round whose relaxed totals leave the domain.

The bus over-relaxes each proposal toward the previous consensus, so a
round's consensus can put a target's total below -baseline. There an
exponential target's L = t + r is negative, and a reciprocal target's
log(t + r) is negative, -inf or nan. ``_trace_records`` scores such a
target at p = 1 (w = 1), with no nan objective and no warning; a round
whose every L is >= 0 keeps _make_objective's op_b objective bit for bit.
"""

import math

import numpy as np
import pytest

from helpers import complete_network
from secalloc import admm
from secalloc.admm import run_admm
from secalloc.centralized import _make_objective
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LOSSES = [12.0, 6.0, 2.0]


@pytest.mark.parametrize("gamma", [0.01, 0.1])
def test_run_admm_leaves_no_nan_objective(gamma):
    network = complete_network([12.0, 6.0, 1e-9], [1.0], baseline=1e-20)
    trace = run_admm(network, BehavioralModel(gamma)).residual_trace
    assert len(trace) > 1
    assert not any(math.isnan(record.objective) for record in trace)


def mixed_network():
    """One exponential target (r 1) and two reciprocal ones (r 2 and 3),
    each on its own edge from one source of weight 0.25."""
    targets = tuple(
        TargetSpec(f"t{k + 1}", loss, AttackProbabilityModel(family, r))
        for k, (loss, family, r) in enumerate(
            zip(LOSSES, ("exponential", "reciprocal", "reciprocal"), (1.0, 2.0, 3.0))
        )
    )
    return TransportNetwork.complete(targets, (SourceSpec("s1", 1.0, weight_tau=0.25),))


# t1 below -r; t2 at or below -r, where log(t + r) is -inf or nan; t3 in (-r, 1 - r)
@pytest.mark.parametrize("t2", [-2.0, -7.0])
def test_totals_below_the_domain_score_at_p_one(t2):
    network = mixed_network()
    x = np.array([-3.0, t2, -2.5])
    [record] = admm._trace_records(network.edge_index, 0.5, [(4, 0.5, x)])
    assert (record.iteration, record.primal_residual) == (4, 0.5)
    assert record.objective == sum(LOSSES) - network.edge_index.tau_c @ x


def test_rounds_in_the_domain_keep_the_op_b_objective():
    network, behavior = mixed_network(), BehavioralModel(0.5)
    objective, _ = _make_objective(network, behavior, "op_b")
    inside = [np.array([0.5, 0.0, 2.0]), np.array([1e-3, 3.0, 0.25])]
    rounds = [(k, 0.0, x) for k, x in enumerate([inside[0], np.array([-3.0, -2.0, -2.5]), inside[1]])]
    records = admm._trace_records(network.edge_index, behavior.gamma, rounds)
    assert [records[0].objective, records[2].objective] == [objective(x) for x in inside]
