"""The admm verb's flags configure ADMM only: its centralized op_b
reference solve takes its config from the scenario's ``solver:`` section
alone, so ``--max-iterations`` cannot cut that solve short."""

import os

from secalloc import centralized, cli

CASE_STUDY = os.path.join(os.path.dirname(__file__), "..", "scenarios", "case_study.yaml")


def test_admm_flags_do_not_reach_the_reference_solve(tmp_path, monkeypatch):
    configs = []
    solve = centralized.solve_op_b

    def recording(network, behavior, config):
        configs.append(config)
        return solve(network, behavior, config)

    monkeypatch.setattr(centralized, "solve_op_b", recording)
    argv = ["admm", CASE_STUDY, "-o", str(tmp_path / "admm.txt"), "--max-iterations", "300"]
    assert cli.main(argv) == cli.EXIT_OK
    assert configs == [centralized.SolverConfig()]
