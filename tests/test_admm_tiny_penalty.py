"""ADMM at starting penalties so small that its iterates leave the float
range: the run ends in exit 5 with one line on stderr, and no numpy
warning is raised on the way (these tests turn warnings into errors)."""

import math
from pathlib import Path

import numpy as np
import pytest

from secalloc import cli
from secalloc.admm import AdmmConfig, run_admm
from secalloc.centralized import project_box_sum, project_capped_sum
from secalloc.errors import ConvergenceError, DomainError
from secalloc.scenario_io import parse_scenario

CASE_STUDY = str(Path(__file__).parent.parent / "scenarios" / "case_study.yaml")

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# 1e-100: a target's total runs to ~1e15, where its marginal underflows;
# 1e-320: (tau c + alpha) / eta overflows to inf in the source solve
@pytest.mark.parametrize("eta", ["1e-100", "1e-300", "1e-320"])
def test_cli_exits_5_with_one_line(eta, tmp_path, capsys):
    out = tmp_path / "admm.txt"
    assert cli.main(["admm", CASE_STUDY, "--eta", eta, "-o", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("did not converge: round ")
    assert "left the float range" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_target_total_that_overflows_stops_the_run(tmp_path, capsys):
    # with no source utility the sources' shifted points stay finite, and
    # g'(S) / eta overflows in the target solve instead
    text = Path(CASE_STUDY).read_text().replace("weight_tau: 0.25", "weight_tau: 0.0")
    scenario = tmp_path / "tau0.yaml"
    scenario.write_text(text)
    args = ["admm", str(scenario), "--eta", "1e-320", "-o", str(tmp_path / "admm.txt")]
    assert cli.main(args) == 5
    assert capsys.readouterr().err == (
        "did not converge: round 1 at eta 9.99989e-321 left the float range"
        " (the consensus is not finite)\n"
    )


@pytest.mark.parametrize("eta", [1e-100, 1e-320])
def test_run_admm_stops_in_the_round_that_leaves_the_range(eta):
    scenario = parse_scenario(Path(CASE_STUDY).read_text())
    with pytest.raises(ConvergenceError) as exc:
        run_admm(scenario.network, scenario.behavior, AdmmConfig(eta=eta))
    # it stops at once rather than run its 5,000 rounds on nan
    assert len(exc.value.trace) <= 2
    assert all(math.isfinite(record.primal_residual) for record in exc.value.trace)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_projection_of_a_non_finite_vector_raises(bad):
    v = np.array([1.0, bad, 2.0])
    with pytest.raises(DomainError):
        project_capped_sum(v, 1.0)
    with pytest.raises(DomainError):
        project_box_sum(np.array([5.0, bad, 5.0]), 0.0, 1.0)
