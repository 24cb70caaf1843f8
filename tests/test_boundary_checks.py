"""Two boundary checks that raise DomainError in place of a bare Python error.

An empty vector's only total is 0, so ``project_box_sum`` and
``project_capped_sum`` reject bounds that exclude 0 and return the empty
vector for bounds that include it. ``TransportNetwork`` rejects an edge that
is not a (target, source) 2-tuple, naming the edge.
"""

import re

import numpy as np
import pytest

from secalloc.centralized import project_box_sum, project_capped_sum
from secalloc.errors import DomainError
from secalloc.model import AttackProbabilityModel, SourceSpec, TargetSpec, TransportNetwork


@pytest.mark.parametrize(
    "project, bounds",
    [(project_box_sum, (1.0, 2.0)), (project_capped_sum, (1.0,)), (project_box_sum, (-2.0, -1.0))],
    ids=["box above 0", "capped at 1", "box below 0"],
)
def test_an_empty_vector_rejects_bounds_without_0(project, bounds):
    lower, upper = bounds[0], bounds[-1]
    with pytest.raises(DomainError, match=rf"^bounds \[{lower}, {upper}\] allow no total of an empty vector$"):
        project(np.array([]), *bounds)


@pytest.mark.parametrize(
    "project, bounds",
    [(project_box_sum, (0.0, 2.0)), (project_box_sum, (-1.0, 0.0)), (project_capped_sum, (0.0,))],
)
def test_an_empty_vector_projects_to_itself_where_0_is_allowed(project, bounds):
    projected = project(np.array([]), *bounds)
    assert projected.shape == (0,)


@pytest.mark.parametrize("edge", [("t1",), ("t1", "s1", "x"), "t1s1", ["t1", "s1"]], ids=repr)
def test_an_edge_that_is_no_pair_is_rejected_by_name(edge):
    targets = (TargetSpec("t1", 1.0, AttackProbabilityModel("exponential", 1.0)),)
    with pytest.raises(DomainError, match=rf"^edge {re.escape(repr(edge))} is not a \(target, source\) pair$"):
        TransportNetwork(targets, (SourceSpec("s1", 1.0),), (edge,))
