"""Water-filling to the last bits: small gamma, tiny and huge supplies.

Each per-source budget is the running total of the supplies; the plan
must spend it to rounding, and the funded targets must share one water
level, checked with the closed-form log marginal (never forming p).
"""

import pytest

from helpers import complete_network
from secalloc.model import BehavioralModel
from secalloc.waterfill import waterfill_allocate
from test_waterfill_logspace import FAMILY_BASELINES, log_marginal

LOSSES = [12.0, 9.0, 5.0]


@pytest.mark.parametrize("shares", [(1.0, 0.5), (1.0, 0.5, 2.0)])
@pytest.mark.parametrize("supply", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("gamma", [1e-3, 0.05])
@pytest.mark.parametrize("family,baseline", FAMILY_BASELINES)
def test_spend_and_level_to_rounding(family, baseline, gamma, supply, shares):
    supplies = [supply * share for share in shares]
    net = complete_network(LOSSES, supplies, baseline=baseline, family=family)
    trace = waterfill_allocate(net, BehavioralModel(gamma))

    total = net.total_supply()
    aggregates = trace.final_aggregates
    assert abs(sum(aggregates.values()) - total) <= 1e-15 * total

    running = 0.0
    for source in net.sources:
        running += source.supply_upper
        row = sum(trace.per_source_plan.amounts[(t.id, source.id)] for t in net.targets)
        assert abs(row - source.supply_upper) <= 1e-15 * running

    levels = [
        log_marginal(family, baseline, t.loss_value, gamma, aggregates[t.id])
        for t in net.targets
        if aggregates[t.id] > 0.0
    ]
    assert levels
    assert max(levels) - min(levels) <= 1e-12
