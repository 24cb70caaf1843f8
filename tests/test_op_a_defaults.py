"""op_a at its default settings against water-filling on random complete
networks, with the derandomized profile of the water-filling property
tests, so every run sees the same cases."""

import pytest
from hypothesis import given, settings

from secalloc.centralized import solve_op_a
from secalloc.waterfill import waterfill_allocate
from test_waterfill_logspace import PROPERTY, complete_networks


@settings(PROPERTY, max_examples=200)
@given(complete_networks())
def test_op_a_at_its_defaults_matches_waterfill(case):
    net, behavior = case
    trace = waterfill_allocate(net, behavior)
    report = solve_op_a(net, behavior)
    for t in net.targets:
        assert report.plan.aggregate_at_target(t.id) == pytest.approx(
            trace.final_aggregates[t.id], abs=1e-5
        )
