"""ADMM on a network that is infeasible at one node.

The aggregate bounds pass (target a's floor 5 <= total supply 13), but a's
only source holds 3. ``run_admm`` projects its starting consensus onto the
op_b feasible set before the first round, so it raises InfeasibleError,
and ``secalloc admm`` exits 4 like ``solve --mode op_b``, where it ran
every round and exited 5.
"""

import time

import pytest

from secalloc import cli
from secalloc.admm import run_admm
from secalloc.errors import InfeasibleError
from secalloc.model import (
    AttackProbabilityModel,
    BehavioralModel,
    SourceSpec,
    TargetSpec,
    TransportNetwork,
)

SCENARIO = (
    "behavior: {gamma: 0.5}\n"
    "targets:\n"
    "  - {id: a, loss_value: 5.0, prob_model: {family: exponential, baseline: 1.0},"
    " demand_lower: 5.0}\n"
    "  - {id: b, loss_value: 4.0, prob_model: {family: exponential, baseline: 1.0}}\n"
    "sources:\n"
    "  - {id: s1, supply_upper: 3.0}\n"
    "  - {id: s2, supply_upper: 10.0}\n"
    "edges: [[a, s1], [b, s2]]\n"
)


def test_run_admm_raises_infeasible():
    prob = AttackProbabilityModel.exponential(1.0)
    network = TransportNetwork(
        (TargetSpec("a", 5.0, prob, demand_lower=5.0), TargetSpec("b", 4.0, prob)),
        (SourceSpec("s1", 3.0), SourceSpec("s2", 10.0)),
        (("a", "s1"), ("b", "s2")),
    )
    start = time.perf_counter()
    with pytest.raises(InfeasibleError, match="did not settle"):
        run_admm(network, BehavioralModel(0.5))
    assert time.perf_counter() - start < 10.0


def test_admm_cli_exits_4(tmp_path, capsys):
    path = tmp_path / "infeasible.yaml"
    path.write_text(SCENARIO)
    out = tmp_path / "report.txt"
    assert cli.main(["admm", str(path), "-o", str(out)]) == 4
    assert "infeasible:" in capsys.readouterr().err
    assert not out.exists()
