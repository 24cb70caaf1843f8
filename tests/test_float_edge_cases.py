"""Valid inputs at the edges of floating point end with an exit code, not a
traceback: a marginal that is tiny but representable, and a sort-based
threshold where rounding leaves no index strictly above it."""

import numpy as np
import pytest

from secalloc import cli
from secalloc.centralized import _row_thresholds, _threshold
from test_cli import SCENARIO_DIR, read_report

FLOOR_1000 = """\
behavior:
  gamma: 0.5
targets:
  - id: t1
    loss_value: 12.0
    prob_model: {family: exponential, baseline: 1.0}
    demand_lower: 1000
sources:
  - id: s1
    supply_upper: 1000
edges: complete
"""


def test_admm_past_probability_underflow(tmp_path, capsys):
    # p(1000) = exp(-1001) underflows to 0.0, but the marginal
    # -U exp(psi(L)) is about -1e-14 and the target solve needs only that
    path = tmp_path / "floor.yaml"
    path.write_text(FLOOR_1000)
    out = tmp_path / "admm.txt"
    assert cli.main(["admm", str(path), "-o", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    fields, plan, _ = read_report(out)
    assert plan == {("t1", "s1"): 1000.0}
    assert float(fields["relative_gap"]) == 0.0


def test_threshold_without_a_qualifying_index_matches_rows():
    # u - theta rounds to 0 at the first index and is negative at the last
    v = np.array([1e20, -1e20])
    want = _row_thresholds(v[None, :], np.array([1.0]))[0]
    assert _threshold(v, 1.0) == want == -0.5


# at this penalty the source solve's (tau c + alpha) / eta overflows to inf,
# and projecting an infinite vector subtracts inf from inf; the run still
# ends in the documented exit code
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_admm_at_a_denormal_penalty_exits_5(tmp_path, capsys):
    scenario = f"{SCENARIO_DIR}/case_study.yaml"
    args = ["admm", scenario, "--eta", "1e-320", "--max-iterations", "50"]
    assert cli.main([*args, "-o", str(tmp_path / "admm.txt")]) == 5
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "Traceback" not in err
