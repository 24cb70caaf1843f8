"""op_a and op_b count an objective stall as converged only at a small residual.

On targets U 12, 6 and 1e-9 (exponential, baseline 1e-20) with one source
of 1, PGD's objective stops moving before the plan is stationary: op_a
stalled at 0.75/0.25 at gamma 0.01 against water-filling's 0.667/0.333,
with a last residual of 0.23, and reported it converged. At a subnormal
baseline the clipped target's gradient is not finite, and the stall came
with a nan residual. Both solves now raise ConvergenceError, and the CLI
exits 5, naming the residual.
"""

import numpy as np
import pytest

from helpers import complete_network
from secalloc import cli
from secalloc.centralized import kkt_residual, solve_op_a, solve_op_b
from secalloc.errors import ConvergenceError
from secalloc.model import AllocationPlan, BehavioralModel
from secalloc.waterfill import waterfill_allocate

LOSSES = [12.0, 6.0, 1e-9]
# (baseline, gamma, the residual of the stalled iteration as printed)
STALLS = [
    (1e-20, 0.01, "0.231855"),
    (1e-20, 0.1, "1732.96"),
    (1e-20, 0.5, "0.304744"),
    (5e-324, 0.001, "nan"),
]
SCENARIO = """\
behavior:
  gamma: {gamma}
targets:
  - {{id: t1, loss_value: 12.0, prob_model: {{family: exponential, baseline: {baseline}}}}}
  - {{id: t2, loss_value: 6.0, prob_model: {{family: exponential, baseline: {baseline}}}}}
  - {{id: t3, loss_value: 1.0e-9, prob_model: {{family: exponential, baseline: {baseline}}}}}
sources:
  - {{id: s1, supply_upper: 1.0}}
edges: complete
"""


def stalled_network(baseline):
    return complete_network(LOSSES, [1.0], baseline=baseline)


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b], ids=["op_a", "op_b"])
@pytest.mark.parametrize("baseline, gamma, residual", STALLS)
def test_a_stall_short_of_stationarity_raises(solve, baseline, gamma, residual):
    mode = solve.__name__[len("solve_"):]
    # at the subnormal baseline the clipped target's marginal overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError) as raised:
            solve(stalled_network(baseline), BehavioralModel(gamma))
    assert str(raised.value) == f"{mode} solve stalled at residual {residual}, not within 0.001"
    last = raised.value.trace[-1].primal_residual
    assert not last <= 1e-3
    assert len(raised.value.trace) < 20  # the stall exit, not the iteration cap


@pytest.mark.parametrize("baseline, gamma, residual", STALLS)
def test_water_filling_solves_the_stalled_networks(baseline, gamma, residual):
    network, behavior = stalled_network(baseline), BehavioralModel(gamma)
    aggregates = waterfill_allocate(network, behavior).final_aggregates
    plan = AllocationPlan({edge: aggregates[edge[0]] for edge in network.edges})
    assert kkt_residual(network, behavior, plan, "op_a") < 1e-14
    assert 0.66 < aggregates["t1"] < 0.7 and 0.3 < aggregates["t2"] < 0.34


@pytest.mark.parametrize("mode", ["op_a", "op_b"])
@pytest.mark.parametrize("baseline, gamma, residual", STALLS)
def test_the_cli_exits_5_naming_the_residual(tmp_path, capsys, mode, baseline, gamma, residual):
    path = tmp_path / "stall.yaml"
    path.write_text(SCENARIO.format(gamma=gamma, baseline=baseline))
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["solve", str(path), "--mode", mode, "-o", str(tmp_path / "out.txt")])
    assert code == cli.EXIT_NO_CONVERGENCE
    message = f"did not converge: {mode} solve stalled at residual {residual}, not within 0.001"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()
