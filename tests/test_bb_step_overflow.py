"""``_pgd``'s spectral step where s'y or y'y overflows.

On targets U 1e17 and 1 (exponential, baseline 1e-300) with one source of
1 at gamma 0.3, the first step puts t2's total at 0, where its marginal is
about -3e209: the scaled gradient moves by about 1.4e196, and y'y overflows
the float range. ``_pgd`` forms s's, s'y and y'y with ``np.vdot``, which
does not warn, and takes ``step_size`` where s'y or y'y is not finite, as
where s'y <= 0; with ``@`` it printed ``overflow encountered in matmul``.
op_a, op_b and ``sweep-gamma`` may still exit 5, but a plan they return
must agree with ``waterfill`` (t1 1.0, t2 2.2e-24) to within 1e-9 of the
budget.
"""

import warnings

import pytest

from helpers import complete_network
from secalloc import cli
from secalloc.centralized import solve_op_a, solve_op_b
from secalloc.errors import ConvergenceError
from secalloc.model import BehavioralModel
from secalloc.waterfill import waterfill_allocate

SCENARIO = """behavior:
  gamma: 0.3
targets:
  - {id: t1, loss_value: 1.0e+17, prob_model: {family: exponential, baseline: 1.0e-300}}
  - {id: t2, loss_value: 1.0, prob_model: {family: exponential, baseline: 1.0e-300}}
sources:
  - {id: s1, supply_upper: 1.0}
edges: complete
"""


@pytest.mark.parametrize("solve", [solve_op_a, solve_op_b], ids=["op_a", "op_b"])
def test_the_solve_warns_nothing_and_returns_no_wrong_plan(solve):
    network, behavior = complete_network([1e17, 1.0], [1.0], 1e-300), BehavioralModel(0.3)
    reference = waterfill_allocate(network, behavior).final_aggregates
    assert reference["t1"] == 1.0 and 0 < reference["t2"] < 1e-23
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = solve(network, behavior)
        except ConvergenceError:
            return
    assert max(abs(report.plan.aggregate_at_target(t) - a) for t, a in reference.items()) <= 1e-9


@pytest.mark.parametrize("verb", ["solve --mode op_a", "solve --mode op_b", "sweep-gamma"])
def test_the_verb_prints_no_runtime_warning(verb, tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*verb.split(), str(path), "-o", str(tmp_path / "out.txt")])
    assert code in (0, 5)
    assert "Warning" not in capsys.readouterr().err
