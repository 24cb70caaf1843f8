"""CLI tests: verbs, exit codes, output formats, idempotence."""

import csv
import math
import os
import shutil

import pytest

from helpers import CLOSED_FORM_AGGREGATES
from secalloc import cli

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture
def scenarios(tmp_path):
    """Shipped scenarios plus a couple of derived variants."""
    paths = {}
    for name in ("case_study", "discrimination", "single_edge"):
        src = os.path.join(SCENARIO_DIR, f"{name}.yaml")
        dst = tmp_path / f"{name}.yaml"
        shutil.copy(src, dst)
        paths[name] = str(dst)
    text = (tmp_path / "case_study.yaml").read_text()
    rational = tmp_path / "case_study_gamma1.yaml"
    rational.write_text(text.replace("gamma: 0.5", "gamma: 1.0"))
    paths["gamma1"] = str(rational)
    tau0 = tmp_path / "case_study_tau0.yaml"
    tau0.write_text(text.replace("weight_tau: 0.25", "weight_tau: 0.0"))
    paths["tau0"] = str(tau0)
    return paths


def read_report(path):
    fields, plan, aggregates = {}, {}, {}
    section = None
    for line in open(path):
        if line.startswith("plan:"):
            section = "plan"
        elif line.startswith("aggregates:"):
            section = "aggregates"
        elif line.startswith("  ") and section == "plan":
            x, y, v = line.split()
            plan[(x, y)] = float(v)
        elif line.startswith("  ") and section == "aggregates":
            x, v = line.split()
            aggregates[x] = float(v)
        elif ":" in line:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    return fields, plan, aggregates


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestSolveCommand:
    def test_op_a_gamma_one_matches_closed_form(self, scenarios, tmp_path):
        out = str(tmp_path / "report.txt")
        code = cli.main(
            ["solve", scenarios["gamma1"], "--mode", "op_a", "-o", out]
        )
        assert code == 0
        fields, _, aggregates = read_report(out)
        assert fields["converged"] == "true"
        for k, expected in enumerate(CLOSED_FORM_AGGREGATES):
            assert aggregates[f"t{k + 1}"] == pytest.approx(expected, abs=1e-3)
        trace_rows = read_csv(out + ".trace.csv")
        assert trace_rows, "trace CSV is empty"
        objectives = [float(r["objective"]) for r in trace_rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code = cli.main(
            ["solve", str(tmp_path / "nope.yaml"), "-o", str(tmp_path / "r.txt")]
        )
        assert code == cli.EXIT_IO
        assert "nope.yaml" in capsys.readouterr().err

    def test_op_b_tau_zero_matches_op_a(self, scenarios, tmp_path):
        out_a = str(tmp_path / "a.txt")
        out_b = str(tmp_path / "b.txt")
        assert cli.main(["solve", scenarios["tau0"], "--mode", "op_a", "-o", out_a]) == 0
        assert cli.main(["solve", scenarios["tau0"], "--mode", "op_b", "-o", out_b]) == 0
        fields_a, _, _ = read_report(out_a)
        fields_b, _, _ = read_report(out_b)
        assert float(fields_b["objective"]) == pytest.approx(
            float(fields_a["objective"]), abs=1e-6
        )

    def test_non_convergence_exit_code(self, scenarios, tmp_path):
        code = cli.main(
            [
                "solve", scenarios["case_study"], "-o", str(tmp_path / "r.txt"),
                "--max-iterations", "2",
            ]
        )
        assert code == cli.EXIT_NO_CONVERGENCE

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("behavior:\n  gamma: 7.0\ntargets: []\nsources: []\nedges: complete\n")
        code = cli.main(["solve", str(bad), "-o", str(tmp_path / "r.txt")])
        assert code == cli.EXIT_SCENARIO
        assert "behavior.gamma" in capsys.readouterr().err


class TestWaterfillCommand:
    def test_report_contents(self, scenarios, tmp_path):
        out = str(tmp_path / "wf.txt")
        assert cli.main(["waterfill", scenarios["gamma1"], "-o", out]) == 0
        text = open(out).read()
        assert "thresholds:" in text and "breakpoints:" in text
        lines = dict()
        section = None
        for line in text.splitlines():
            if line.endswith(":"):
                section = line[:-1]
            elif section == "breakpoints":
                tid, v = line.split()
                lines[tid] = float(v)
        assert lines["t2"] == pytest.approx(math.log(12 / 9), abs=1e-4)

    def test_aggregates_match_solve(self, scenarios, tmp_path):
        wf_out = str(tmp_path / "wf.txt")
        solve_out = str(tmp_path / "solve.txt")
        assert cli.main(["waterfill", scenarios["case_study"], "-o", wf_out]) == 0
        assert (
            cli.main(
                [
                    "solve", scenarios["case_study"], "--mode", "op_a",
                    "-o", solve_out,
                    "--gradient-tolerance", "1e-9",
                    "--objective-tolerance", "1e-18",
                ]
            )
            == 0
        )
        _, _, aggregates = read_report(solve_out)
        section = None
        for line in open(wf_out):
            if line.endswith(":\n"):
                section = line.strip()[:-1]
            elif section == "aggregates":
                tid, v = line.split()
                assert float(v) == pytest.approx(aggregates[tid], abs=1e-5)

    def test_tied_losses_precondition_exit(self, scenarios, tmp_path, capsys):
        text = open(scenarios["case_study"]).read().replace(
            "loss_value: 9.0", "loss_value: 12.0"
        )
        tied = tmp_path / "tied.yaml"
        tied.write_text(text)
        code = cli.main(["waterfill", str(tied), "-o", str(tmp_path / "x.txt")])
        assert code == cli.EXIT_PRECONDITION
        assert "strictly ordered" in capsys.readouterr().err


class TestAdmmCommand:
    def test_case_study_gap(self, scenarios, tmp_path):
        out = str(tmp_path / "admm.txt")
        assert cli.main(["admm", scenarios["case_study"], "-o", out]) == 0
        fields, _, _ = read_report(out)
        assert float(fields["relative_gap"]) <= 1e-4
        rows = read_csv(out + ".trace.csv")
        assert float(rows[-1]["primal_residual"]) <= 1e-6

    def test_single_edge_quick_convergence(self, scenarios, tmp_path):
        out = str(tmp_path / "admm.txt")
        assert cli.main(["admm", scenarios["single_edge"], "-o", out]) == 0
        fields, _, _ = read_report(out)
        assert int(fields["iterations"]) <= 200

    def test_infeasible_exit(self, scenarios, tmp_path):
        text = open(scenarios["single_edge"]).read().replace(
            "loss_value: 5.0", "loss_value: 5.0\n    demand_lower: 9.0"
        )
        bad = tmp_path / "infeasible.yaml"
        bad.write_text(text)
        code = cli.main(["admm", str(bad), "-o", str(tmp_path / "x.txt")])
        assert code == cli.EXIT_INFEASIBLE


class TestSweepGamma:
    def run(self, scenarios, tmp_path, steps=5):
        out = str(tmp_path / "gamma.csv")
        code = cli.main(
            [
                "sweep-gamma", scenarios["discrimination"], "-o", out,
                "--start", "0.3", "--stop", "1.0", "--steps", str(steps),
            ]
        )
        assert code == 0
        return read_csv(out)

    def test_endpoint_equals_non_behavioral_solve(self, scenarios, tmp_path):
        rows = self.run(scenarios, tmp_path)
        assert float(rows[-1]["param"]) == 1.0
        from secalloc.centralized import solve_op_a
        from secalloc.model import BehavioralModel
        from secalloc.scenario_io import parse_scenario

        scenario = parse_scenario(open(scenarios["discrimination"]).read())
        report = solve_op_a(scenario.network, BehavioralModel(1.0))
        assert float(rows[-1]["true_loss"]) == pytest.approx(
            report.true_loss, abs=1e-9
        )

    def test_losses_dominate_rational_endpoint(self, scenarios, tmp_path):
        rows = self.run(scenarios, tmp_path)
        final = float(rows[-1]["true_loss"])
        for row in rows:
            assert float(row["true_loss"]) >= final - 1e-9

    def test_active_targets_non_decreasing(self, scenarios, tmp_path):
        rows = self.run(scenarios, tmp_path)
        counts = [int(r["active_targets"]) for r in rows]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_bad_grid_rejected(self, scenarios, tmp_path, capsys):
        code = cli.main(
            [
                "sweep-gamma", scenarios["discrimination"],
                "-o", str(tmp_path / "x.csv"),
                "--start", "0.5", "--stop", "0.2",
            ]
        )
        assert code == cli.EXIT_SCENARIO


class TestSweepTau:
    def test_degenerates_to_op_a(self, scenarios, tmp_path):
        out = str(tmp_path / "tau.csv")
        code = cli.main(
            [
                "sweep-tau", scenarios["case_study"], "-o", out,
                "--start", "0.0", "--stop", "1.0", "--steps", "5",
            ]
        )
        assert code == 0
        rows = read_csv(out)
        from secalloc.centralized import solve_op_a
        from secalloc.scenario_io import parse_scenario

        scenario = parse_scenario(open(scenarios["case_study"]).read())
        op_a = solve_op_a(scenario.network, scenario.behavior)
        assert float(rows[0]["param"]) == 0.0
        assert float(rows[0]["true_loss"]) == pytest.approx(op_a.true_loss, abs=1e-4)
        losses = [float(r["true_loss"]) for r in rows]
        assert all(b >= a - 1e-8 for a, b in zip(losses, losses[1:]))
        quarter = [r for r in rows if float(r["param"]) == 0.25]
        assert quarter and float(quarter[0]["true_loss"]) <= op_a.true_loss + 1e-8


class TestCliContract:
    def test_reruns_are_byte_identical(self, scenarios, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            report = str(base / "r.txt")
            cli.main(["solve", scenarios["case_study"], "-o", report])
            outputs.append(
                (open(report, "rb").read(), open(report + ".trace.csv", "rb").read())
            )
        assert outputs[0] == outputs[1]

    def test_unknown_flag_is_an_error(self, scenarios, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", scenarios["case_study"], "-o", "x", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "verb,flags",
        [
            ("solve", ["--mode", "-o", "--trace", "--step-size", "--max-iterations",
                       "--gradient-tolerance", "--objective-tolerance"]),
            ("waterfill", ["-o"]),
            ("admm", ["-o", "--trace", "--eta", "--max-iterations",
                      "--primal-tolerance", "--dual-tolerance"]),
            ("sweep-gamma", ["-o", "--start", "--stop", "--steps"]),
            ("sweep-tau", ["-o", "--start", "--stop", "--steps"]),
        ],
    )
    def test_help_lists_flags(self, verb, flags, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([verb, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text


class TestNonFiniteSupply:
    SCENARIO = (
        "behavior:\n"
        "  gamma: 0.5\n"
        "targets:\n"
        "  - id: t1\n"
        "    loss_value: 12.0\n"
        "sources:\n"
        "  - id: s1\n"
        "    supply_upper: .inf\n"
        "edges: complete\n"
    )

    @pytest.mark.parametrize("verb", ["solve", "admm", "sweep-gamma"])
    def test_infinite_supply_is_a_scenario_error(self, verb, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text(self.SCENARIO)
        code = cli.main([verb, str(path), "-o", str(tmp_path / "out")])
        assert code == cli.EXIT_SCENARIO
        err = capsys.readouterr().err
        assert "line 8" in err
        assert "sources[0].supply_upper must be finite" in err
        assert "Traceback" not in err


class TestNonFiniteSourceWeights:
    SCENARIO = (
        "behavior:\n"
        "  gamma: 0.5\n"
        "targets:\n"
        "  - id: t1\n"
        "    loss_value: 12.0\n"
        "sources:\n"
        "  - id: s1\n"
        "    supply_upper: 10.0\n"
        "    {line}\n"
        "edges: complete\n"
    )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("weight_tau: .inf", "sources[0].weight_tau must be finite"),
            ("weight_tau: nan", "sources[0].weight_tau must be finite"),
            ("utility_coeffs: {t1: .inf}", "sources[0].utility_coeffs.t1 must be finite"),
            ("utility_coeffs: {t1: -.inf}", "sources[0].utility_coeffs.t1 must be finite"),
        ],
    )
    @pytest.mark.parametrize("argv", [["solve", "--mode", "op_b"], ["admm"]])
    def test_non_finite_weight_is_a_scenario_error(
        self, line, message, argv, tmp_path, capsys
    ):
        path = tmp_path / "inf.yaml"
        path.write_text(self.SCENARIO.format(line=line))
        verb, *flags = argv
        code = cli.main([verb, str(path), *flags, "-o", str(tmp_path / "out")])
        assert code == cli.EXIT_SCENARIO
        err = capsys.readouterr().err
        assert "line 9" in err
        assert message in err
        assert "Traceback" not in err
