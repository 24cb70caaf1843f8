"""``EdgeIndex.loss_at_l`` scores one L vector or a stack of them.

The ADMM trace scores all its rounds in one call, so each row of a stack
must give, bit for bit, what the single-point formula gives that row:
``loss_values @ weight_at(L, gamma)``, the perceived loss the PGD objective,
``true_loss`` and ``perceived_loss`` report. So must each row's utility
``np.vecdot(X, tau_c)`` against ``tau_c @ x``. The networks are the trace
test's: targets of 1 to 40 edges, on which a pairwise sum and a plain loop
can part, in both probability families.
"""

import numpy as np
import pytest

from secalloc.model import weight_at
from test_admm_trace_batch import wide_network

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALES = [1e-300, 1e-9, 1e-3, 0.1, 1.0, 3.0, 30.0, 1e6, 1e300]


def stack(network, seed):
    """Edge vectors at each of SCALES, and their L vectors."""
    rng = np.random.default_rng(300 + seed)
    index = network.edge_index
    x = np.array([rng.exponential(scale, len(index.edges)) for scale in SCALES])
    return x, index.neg_log_p(np.array([index.totals(row) for row in x]))


@pytest.mark.parametrize("seed", range(4))
def test_each_row_of_a_stack_scores_as_one_point(seed):
    network, behavior = wide_network(seed)
    index, gamma = network.edge_index, behavior.gamma
    _, big_l = stack(network, seed)
    losses = index.loss_at_l(big_l, gamma)
    assert losses.shape == (len(SCALES),)
    for row, loss in zip(big_l, losses.tolist()):
        expected = float(index.loss_values @ weight_at(row, gamma))
        assert loss == expected
        assert float(index.loss_at_l(row, gamma)) == expected


@pytest.mark.parametrize("seed", range(4))
def test_each_row_of_a_stack_dots_tau_c_as_one_point(seed):
    network, _ = wide_network(seed)
    tau_c = network.edge_index.tau_c
    x, _ = stack(network, seed)
    assert np.vecdot(x, tau_c).tolist() == [float(tau_c @ row) for row in x]
