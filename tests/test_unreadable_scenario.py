"""Every verb reads its scenario through the one input path of ``cli.main``:
a missing file exits 6 and a file with an invalid UTF-8 byte exits 2, each
with its one diagnostic and before any output is written."""

import pytest

from secalloc import cli

VALID = (
    "behavior:\n"
    "  gamma: 0.5\n"
    "targets:\n"
    "  - {id: a, loss_value: 5.0, prob_model: {family: exponential, baseline: 1.0}}\n"
    "sources:\n"
    "  - {id: s1, supply_upper: 3.0}\n"
    "edges: complete\n"
)


@pytest.mark.parametrize("verb", ["solve", "waterfill", "admm", "sweep-gamma", "sweep-tau"])
def test_unreadable_scenario(tmp_path, capsys, verb):
    output = tmp_path / "out"
    missing = tmp_path / "missing.yaml"
    assert cli.main([verb, str(missing), "-o", str(output)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err

    bad = tmp_path / "bad.yaml"
    bad.write_bytes(VALID.encode() + b"# \xff\n")
    assert cli.main([verb, str(bad), "-o", str(output)]) == cli.EXIT_SCENARIO
    assert capsys.readouterr().err == "scenario error:\nline 8: invalid UTF-8 byte 0xff\n"
    assert not output.exists()
