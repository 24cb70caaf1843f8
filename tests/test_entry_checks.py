"""Bad input is stopped where it enters, with the library's own error:

* a projection of a vector with a -inf entry raises DomainError, as one
  with +inf or nan does, even where the other entries clip into the bounds;
* an op_b network whose totals cannot meet is rejected by the projector's
  aggregate check at once, not after 10,000 cycles that never settle;
* a network with no target or no source is rejected by its constructor;
* a nan total is not a valid total for the scalar kernel.
"""

import math
import time

import numpy as np
import pytest

from secalloc.centralized import kkt_residual, project_box_sum, project_capped_sum, project_feasible
from secalloc.errors import DomainError, InfeasibleError
from secalloc.model import (
    AllocationPlan,
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
    marginal_perceived_cost,
)

NON_FINITE = "^cannot project a vector with an infinite or nan entry$"
NAN_TOTAL = "^total_received must be >= 0, got nan$"


def test_a_minus_infinite_entry_has_no_projection():
    v = np.array([-np.inf, 1.0])
    with pytest.raises(DomainError, match=NON_FINITE):
        project_box_sum(v, 0.0, 2.0)
    with pytest.raises(DomainError, match=NON_FINITE):
        project_capped_sum(v, 1.0)


def floors_above_supply():
    targets = (TargetSpec("t1", 12.0, demand_lower=5.0), TargetSpec("t2", 9.0, demand_lower=5.0))
    return TransportNetwork.complete(targets, (SourceSpec("s1", 1.0),))


@pytest.mark.parametrize("measure", ["kkt_residual", "project_feasible"])
def test_infeasible_totals_are_rejected_at_once(measure):
    network = floors_above_supply()
    plan = AllocationPlan.zero(network)
    start = time.perf_counter()
    with pytest.raises(InfeasibleError) as info:
        if measure == "kkt_residual":
            kkt_residual(network, BehavioralModel(0.5), plan, "op_b")
        else:
            project_feasible(plan, network, "op_b")
    assert str(info.value) == "total demand lower bound exceeds total supply upper bound"
    assert time.perf_counter() - start < 0.5


def test_a_network_needs_a_target_and_a_source():
    with pytest.raises(DomainError, match="^a network needs at least one target and one source$"):
        TransportNetwork((), (), ())


def test_a_nan_total_is_not_a_total():
    with pytest.raises(DomainError, match=NAN_TOTAL):
        marginal_perceived_cost(TargetSpec("t1", 12.0), BehavioralModel(0.5), math.nan)
    with pytest.raises(DomainError, match=NAN_TOTAL):
        AttackProbabilityModel.exponential(1.0).probability(math.nan)
