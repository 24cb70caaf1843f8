"""Valid inputs at the ends of the float range: a subnormal baseline and
loss values far above the budgets. No verb may print a traceback or a
RuntimeWarning, or exit 0 with a wrong or infeasible plan."""

import warnings

import numpy as np
import pytest

from helpers import complete_network
from secalloc import centralized, cli
from secalloc.centralized import feasibility_violation, solve_op_a, solve_op_b
from secalloc.errors import ConvergenceError, DomainError
from secalloc.model import BehavioralModel, marginal_perceived_cost
from secalloc.waterfill import waterfill_allocate

SUBNORMAL = (
    "behavior: {gamma: 0.001}\n"
    "targets:\n"
    "  - {id: t1, loss_value: 12.0, prob_model: {family: exponential, baseline: 5e-324}}\n"
    "  - {id: t2, loss_value: 6.0, prob_model: {family: exponential, baseline: 5e-324}}\n"
    "sources:\n"
    "  - {id: s1, supply_upper: 1.0}\n"
    "edges: complete\n"
)


def run(tmp_path, capsys, argv, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    out = tmp_path / "report.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*argv, str(path), "-o", str(out)])
    return code, capsys.readouterr().err, out


def aggregates(out):
    lines = out.read_text().splitlines()
    totals = {}
    for line in lines[lines.index("aggregates:") + 1:]:
        if not line.startswith("  "):
            break
        tid, value = line.split()
        totals[tid] = float(value)
    return totals


class TestSubnormalBaseline:
    def test_scalar_marginal_raises_where_it_overflows(self):
        net = complete_network([12.0, 6.0], [1.0], baseline=5e-324)
        with pytest.raises(DomainError, match="^marginal overflows at total_received=0.0$"):
            marginal_perceived_cost(net.targets[0], BehavioralModel(0.001), 0.0)

    def test_admm_exits_5_with_one_line(self, tmp_path, capsys):
        code, err, _ = run(tmp_path, capsys, ["admm"], SUBNORMAL)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert err == (
            "did not converge: round 1 at eta 1 left the float range "
            "(marginal overflows at total_received=0.0)\n"
        )

    def test_waterfill_matches_op_a(self, tmp_path, capsys):
        code, err, out = run(tmp_path, capsys, ["waterfill"], SUBNORMAL)
        assert (code, err) == (cli.EXIT_OK, "")
        water = aggregates(out)
        code, err, out = run(tmp_path, capsys, ["solve", "--mode", "op_a"], SUBNORMAL)
        assert (code, err) == (cli.EXIT_OK, "")
        solved = aggregates(out)
        assert water == pytest.approx(solved, abs=1e-6)
        assert water["t1"] == pytest.approx(2.0 / 3.0, abs=1e-6)


LARGE_LOSSES = [1e17, 1e18, 1e20, 1e50]


@pytest.mark.parametrize("loss", LARGE_LOSSES)
@pytest.mark.parametrize("solve, mode", [(solve_op_a, "op_a"), (solve_op_b, "op_b")])
def test_large_loss_values_give_the_feasible_optimum(loss, solve, mode):
    # the optimum depends only on the ratio of the loss values
    net = complete_network([loss, 0.75 * loss], [1.0])
    behavior = BehavioralModel(0.5)
    report = solve(net, behavior)
    assert feasibility_violation(net, report.plan, mode) <= 1e-12
    reference = waterfill_allocate(complete_network([4.0, 3.0], [1.0]), behavior)
    for t in net.targets:
        assert report.plan.aggregate_at_target(t.id) == pytest.approx(
            reference.final_aggregates[t.id], abs=1e-8
        )


@pytest.mark.parametrize("loss", [1e17, 1e18, 1e20])
@pytest.mark.parametrize("argv", [["solve", "--mode", "op_a"], ["solve", "--mode", "op_b"]])
def test_large_loss_values_from_the_cli(loss, argv, tmp_path, capsys):
    text = SUBNORMAL.replace("gamma: 0.001", "gamma: 0.5").replace("5e-324", "1.0")
    text = text.replace("loss_value: 12.0", f"loss_value: {loss!r}")
    text = text.replace("loss_value: 6.0", f"loss_value: {0.75 * loss!r}")
    code, err, out = run(tmp_path, capsys, argv, text)
    assert (code, err) == (cli.EXIT_OK, "")
    totals = aggregates(out)
    assert sum(totals.values()) == pytest.approx(1.0, abs=1e-9)
    assert totals["t1"] == pytest.approx(0.693257353, abs=1e-8)


def test_a_plan_that_rounding_moved_out_is_not_returned(monkeypatch):
    # a projector that lands a little outside the set stands in for one
    # that lost the budgets to rounding
    make = centralized._make_projector

    def shifted(network, mode):
        project = make(network, mode)
        return lambda z: project(z) + 1e-3

    monkeypatch.setattr(centralized, "_make_projector", shifted)
    net = complete_network([12.0, 6.0], [1.0])
    with pytest.raises(ConvergenceError, match="^op_a solve left the feasible set by 0.002$"):
        solve_op_a(net, BehavioralModel(0.5))


def test_large_loss_start_gradient_is_scaled_down():
    # at U = 1e20 the start's gradient is about 1e19; scaled, it is at most
    # 1e3, so the first step's point stays within 1e3 of the budget
    net = complete_network([1e20, 7.5e19], [1.0])
    objective, gradient = centralized._make_objective(net, BehavioralModel(0.5), "op_a")
    x0 = np.array([0.5, 0.5])
    assert float(np.abs(gradient(x0)).max()) > 1e18
    project = centralized._make_projector(net, "op_a")
    points = []

    def recording(z):
        points.append(z)
        return project(z)

    centralized._pgd(x0, objective, gradient, recording, centralized.SolverConfig())
    assert float(np.abs(points[1]).max()) <= 1e3 + 1.0
