"""One argparse tree per process: ``cli.main`` builds it on its first call
and reuses it, so successive calls must parse independently of each other."""

import os

import pytest

from secalloc import cli

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
CASE_STUDY = os.path.join(SCENARIO_DIR, "case_study.yaml")
SINGLE_EDGE = os.path.join(SCENARIO_DIR, "single_edge.yaml")


def header(path):
    fields = {}
    with open(path) as handle:
        for line in handle:
            if line.startswith(("plan:", "thresholds:")):
                break
            key, value = line.split(":", 1)
            fields[key] = value.strip()
    return fields


def test_main_builds_the_tree_once(monkeypatch, tmp_path):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for verb in ("solve", "waterfill", "solve"):
        assert cli.main([verb, SINGLE_EDGE, "-o", str(tmp_path / f"{verb}.txt")]) == 0
    assert len(built) == 1


def test_build_parser_stays_public_and_fresh():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    args = first.parse_args(["solve", SINGLE_EDGE, "-o", "out.txt", "--mode", "op_b"])
    assert args.mode == "op_b"
    assert second.parse_args(["solve", SINGLE_EDGE, "-o", "out.txt"]).mode is None


def test_successive_calls_parse_independently(tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    assert cli.main(["solve", CASE_STUDY, "--mode", "op_b", "-o", out]) == 0
    assert header(out)["mode"] == "op_b"
    # the last call's --mode must not carry over
    assert cli.main(["solve", CASE_STUDY, "-o", out]) == 0
    assert header(out)["mode"] == "op_a"
    # nor its flags: an iteration cap of 1 fails once, then is gone
    assert cli.main(["solve", CASE_STUDY, "-o", out, "--max-iterations", "1"]) == 5
    assert cli.main(["solve", CASE_STUDY, "-o", out]) == 0
    assert int(header(out)["iterations"]) > 1
    # another verb with its own flags, then the first verb again
    assert cli.main(["admm", SINGLE_EDGE, "-o", out, "--eta", "2.0"]) == 0
    assert header(out)["mode"] == "admm"
    trace = tmp_path / "named.csv"
    assert cli.main(["solve", SINGLE_EDGE, "-o", out, "--trace", str(trace)]) == 0
    assert trace.exists()
    assert cli.main(["solve", SINGLE_EDGE, "-o", out]) == 0
    assert os.path.exists(out + ".trace.csv")
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", SINGLE_EDGE],  # -o missing
        ["solve", SINGLE_EDGE, "-o", "x.txt", "--eta", "1.0"],  # admm's flag
        ["admm", SINGLE_EDGE, "-o", "x.txt", "--eta", "-1"],  # out of domain
        ["sweep-tau", SINGLE_EDGE, "-o", "x.txt", "--mode", "op_b"],
        ["nonesuch"],
        [],
    ],
)
def test_a_usage_error_still_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    # the shared tree parses the next call as if it were the first
    out = str(tmp_path / "after.txt")
    assert cli.main(["solve", SINGLE_EDGE, "-o", out]) == 0
    assert header(out)["mode"] == "op_a"
