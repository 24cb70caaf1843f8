"""``centralized._shifts`` against an independent per-row reference.

Every projection takes its shift from ``_shifts`` (``project_box_sum``
too), so the reference here is ``tests/test_batched_projector.py``'s
``_ref_shift``: a clipped sum, a sort and a cumulative sum per row, picking
the last theta that leaves its entry positive. The groups are those of
``tests/test_admm_round_kernel.py``'s batching test: every row off its
bounds, some rows off, none off, and rows of 12 entries, past numpy's
8-entry pairwise blocks. The shifts must agree byte for byte.
"""

import math

import numpy as np
import pytest

from secalloc.centralized import _shifts
from test_admm_round_kernel import group
from test_batched_projector import _ref_shift


def vector():
    v = np.random.default_rng(7).normal(0.5, 1.0, 40)
    v[36:] = [-0.25, 0.0, 0.75, 3.0]
    return v


GROUPS = {
    "all off": group([[0, 1, 2], [3, 4, 5], [6, 7, 8]], [0.0, 50.0, 0.0], [0.5, math.inf, 0.0]),
    "some off": group([[9, 10], [11, 12], [13, 14]], [0.0, 0.0, 40.0], [100.0, 0.1, math.inf]),
    "none off": group([[15, 16], [36, 37]], [0.0, 0.0], [math.inf, 1.0]),
    "wide": group(
        [list(range(16, 28)), list(range(24, 36)), list(range(28, 40))], [0.0, 0.0, 30.0], [0.5, 1000.0, math.inf]
    ),
}


@pytest.mark.parametrize("name", GROUPS)
def test_shifts_equal_the_per_row_reference_by_bytes(name):
    v = vector()
    positions, lower, upper = GROUPS[name]
    [(got_positions, theta)] = _shifts(v, [GROUPS[name]])
    want = np.array([_ref_shift(v[row], lo, up) for row, lo, up in zip(positions, lower, upper)])
    assert got_positions is positions
    assert theta.tobytes() == want.tobytes()
    assert (theta != 0).tolist() == {
        "all off": [True, True, True],
        "some off": [False, True, True],
        "none off": [False, False],
        "wide": [True, False, True],
    }[name]
