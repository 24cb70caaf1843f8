"""The capped-simplex threshold is the largest theta_k.

``centralized._row_thresholds`` gives each row's theta with max(row -
theta, 0) its projection onto {x >= 0, sum x = total}: the largest theta_k
= (u_1 + ... + u_k - total) / k over the row sorted down. The count rule it
replaced took theta_K at K the count of entries with u_k > theta_k. The two
agree in exact arithmetic. In floating point they agree bit for bit
wherever the total is well above the rounding of the row's sums; on
near-tied rows at a total of 0, or one below the rounding of the largest
entry, they can differ within the rounding of the sums (5 ulps on 40
entries of 0.1). There the largest theta_k is at least theta_1 = u_1, so the
row clears exactly, where the count rule can leave entries about 1e-16 of
the largest. Both properties use a derandomized
hypothesis profile, so every run sees the same rows.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secalloc.centralized import _row_thresholds

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def count_rule(rows, totals):
    """The count rule, as the kernel computed it before the largest theta_k."""
    u = np.sort(rows, axis=1)[:, ::-1]
    thetas = (np.cumsum(u, axis=1) - totals[:, None]) / np.arange(1, rows.shape[1] + 1)
    count = (u > thetas).sum(axis=1)
    return thetas[np.arange(len(rows)), np.maximum(count - 1, 0)]


@st.composite
def blocks(draw):
    """1-4 rows of 1-40 entries in [-scale, scale], negative ones included;
    half the blocks draw every entry from a pool of at most 3 values, so
    their rows are near-tied."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-6, 6))
    entries = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        entries = st.sampled_from(draw(st.lists(entries, min_size=1, max_size=3)))
    flat = draw(st.lists(entries, min_size=width * height, max_size=width * height))
    return np.array(flat).reshape(height, width) * scale


@settings(PROPERTY)
@given(blocks(), st.lists(st.floats(1e-12, 1e3) | st.just(np.inf), min_size=4, max_size=4))
@example(np.array([[3.0]]), [0.5, 1.0, 1.0, 1.0])
@example(np.arange(40.0)[None, :] - 20.0, [np.inf, 1.0, 1.0, 1.0])
@example(np.full((2, 11), 0.1), [1e-12, 1e3, 1.0, 1.0])
def test_the_largest_theta_is_the_count_rules_bit_for_bit(rows, fractions):
    # each total a fraction of the row's largest magnitude, at least 1e-12 of it:
    # the rounding of a sum of 40 entries is below 1e-14 of it
    largest = np.abs(rows).max(axis=1)
    totals = np.array(fractions[: len(rows)]) * np.where(largest > 0.0, largest, 1.0)
    theta = _row_thresholds(rows, totals)
    assert theta.tobytes() == count_rule(rows, totals).tobytes()
    assert (theta == -np.inf).tolist() == (totals == np.inf).tolist()


@settings(PROPERTY)
@given(blocks(), st.lists(st.floats(0.0, 0.2), min_size=4, max_size=4))
@example(np.full((1, 11), 0.1), [0.0, 0.0, 0.0, 0.0])
@example(np.full((3, 40), 0.1), [0.0, 0.1, 0.2, 0.0])
def test_a_total_below_the_rounding_of_the_largest_entry_clears_the_row(rows, fractions):
    # at most 0.2 of the spacing at the largest entry, so u_1 - total rounds to u_1
    top = rows.max(axis=1)
    totals = np.array(fractions[: len(rows)]) * np.spacing(np.abs(top))
    assert (top - totals).tobytes() == top.tobytes()
    theta = _row_thresholds(rows, totals)
    assert not np.maximum(rows - theta[:, None], 0.0).any()
    # the rules differ by at most the rounding of a sum of the row's entries
    rounding = rows.shape[1] * np.finfo(float).eps * np.abs(rows).max(axis=1)
    assert (np.abs(theta - count_rule(rows, totals)) <= rounding).all()


def test_the_count_rule_leaves_a_tied_row_uncleared_at_a_zero_total():
    rows, totals = np.full((1, 11), 0.1), np.zeros(1)
    left = np.maximum(rows - count_rule(rows, totals)[:, None], 0.0)
    assert 0.0 < left.max() < 1e-15 * rows.max()
    assert not np.maximum(rows - _row_thresholds(rows, totals)[:, None], 0.0).any()
