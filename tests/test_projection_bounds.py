"""The public projections reject bounds that allow no finite total.

``project_box_sum`` and ``project_capped_sum`` project onto {v >= 0,
lower <= sum v <= upper}. A nan bound, an infinite lower bound or crossed
bounds leave no finite total to project onto: each raises DomainError
rather than return nan, inf or a clip of one bound. A negative total keeps
its own message. On bounds that allow a finite total, an infinite upper
bound included, the projection shifts each vector as the solvers' own
rule ``_shifts`` does.
"""

import numpy as np
import pytest

from secalloc.centralized import _shifts, project_box_sum, project_capped_sum
from secalloc.errors import DomainError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
ROW = [0.3, 0.9, -0.2]


@pytest.mark.parametrize(
    "project, values, bounds",
    [
        (project_capped_sum, [1.0, 2.0], (NAN,)),
        (project_capped_sum, [1.0, 2.0], (INF,)),
        (project_box_sum, [1.0, 2.0], (5.0, 1.0)),
        (project_box_sum, ROW, (0.0, NAN)),
        (project_box_sum, ROW, (NAN, 5.0)),
        (project_box_sum, ROW, (-INF, 5.0)),
        (project_box_sum, ROW, (INF, INF)),
    ],
    ids=["capped nan", "capped inf", "crossed", "nan upper", "nan lower", "-inf lower", "inf lower"],
)
def test_bounds_with_no_finite_total_raise(project, values, bounds):
    with pytest.raises(DomainError, match=r"^bounds \[.*\] allow no finite total$"):
        project(np.array(values), *bounds)


def test_a_negative_total_keeps_its_message():
    with pytest.raises(ValueError, match="^total must be >= 0$") as info:
        project_capped_sum(np.array([1.0, 2.0]), -1.0)
    assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize(
    "values, lower, upper",
    [(ROW, 0.0, 5.0), (ROW, 0.0, INF), (ROW, 2.0, INF), (ROW, 0.0, 0.5), (ROW, 0.7, 0.7), ([4.0, -1.0, 2.5], 1.0, 3.0)],
)
def test_finite_bounds_shift_as_the_solvers_rule(values, lower, upper):
    v = np.array(values)
    ((positions, theta),) = _shifts(v, [(np.arange(len(v))[None, :], np.array([lower]), np.array([upper]))])
    expected = np.maximum(v[positions] - theta[:, None], 0.0)[0]
    assert project_box_sum(v, lower, upper).tolist() == expected.tolist()
