"""op_a and op_b end at their first nan residual.

On targets U 12, 6 and 1e-9 (exponential, baseline 5e-324) with one source
of 1 at gamma 0.001, the clipped target's marginal overflows after the
first step, the gradient turns nan, and so does the next residual. No step
mends a nan gradient: the solves ran 10 more iterations of about 66 Armijo
halvings each (681 kernel evaluations) before the stall exit raised. They
now take that exit at once, with the same message.
"""

import math

import numpy as np
import pytest

from helpers import complete_network
from secalloc.centralized import solve_op_a, solve_op_b
from secalloc.errors import ConvergenceError
from secalloc.model import BehavioralModel
from test_unbindable_targets import neg_log_p_calls  # noqa: F401 (a fixture)


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b], ids=["op_a", "op_b"])
def test_a_nan_residual_ends_the_solve(solve, neg_log_p_calls):  # noqa: F811
    mode = solve.__name__[len("solve_"):]
    network = complete_network([12.0, 6.0, 1e-9], [1.0], baseline=5e-324)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError) as raised:
            solve(network, BehavioralModel(0.001))
    assert str(raised.value) == f"{mode} solve stalled at residual nan, not within 0.001"
    assert len(neg_log_p_calls) <= 5
    *finite, last = (record.primal_residual for record in raised.value.trace)
    assert math.isnan(last) and all(math.isfinite(r) for r in finite)
