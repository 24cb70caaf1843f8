"""tools/drift.py's summary on hand-made collections: what it says when two
trees agree, when one CSV cell or one call hash moved, and on HEAD alone."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("drift", Path(__file__).parents[1] / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

SWEEP = "param,target_t1,true_loss\n0,1.5,0.25\n1,2,0.5\n"


def collection(root, tree, sweep=SWEEP, calls=("a:seed1:x:admm 11", "b:seed1:y:waterfill 22")):
    out = root / tree
    (out / "reports").mkdir(parents=True)
    (out / "reports" / "case_study.sweep-tau.out").write_text(sweep)
    (out / "reports" / "case_study.admm.log").write_text("wrote case_study.admm.out\nexit 0\n")
    (out / "shipped.txt").write_text("case_study.sweep-tau exit 0, 37 iterations\n")
    (out / "workload_calls.txt").write_text("".join(f"{line}\n" for line in calls))
    (out / "known_limits.txt").write_text("- U 10000 and 0.75 U, source 1, gamma 0.5: 892 rounds\n")
    (out / "stopped.txt").write_text("")


def summary(root, capsys):
    drift.summary(str(root))
    return capsys.readouterr().out


def test_agreeing_trees_read_byte_identical(tmp_path, capsys):
    collection(tmp_path, "base")
    collection(tmp_path, "HEAD")
    text = summary(tmp_path, capsys)
    assert "Shipped-scenario outputs: byte-identical to the base commit" in text
    assert "Workload calls: all 2 byte-identical to the base commit" in text
    assert "- case_study.sweep-tau: base exit 0, 37 iterations, HEAD exit 0, 37 iterations" in text
    assert "largest relative change: param 0, target_t1 0, true_loss 0" in text


def test_a_changed_cell_shows_as_its_file_and_its_column(tmp_path, capsys):
    collection(tmp_path, "base")
    collection(tmp_path, "HEAD", sweep=SWEEP.replace("0,1.5,", "0,3,"))
    text = summary(tmp_path, capsys)
    assert "Shipped-scenario outputs differ from the base commit:\n- case_study.sweep-tau.out\n" in text
    assert "largest relative change: param 0, target_t1 0.5, true_loss 0" in text
    assert "-0,1.5,0.25\n+0,3,0.25" in text
    assert "Workload calls: all 2 byte-identical" in text


def test_a_changed_hash_lists_its_call(tmp_path, capsys):
    collection(tmp_path, "base")
    collection(tmp_path, "HEAD", calls=("a:seed1:x:admm 11", "b:seed1:y:waterfill 23"))
    text = summary(tmp_path, capsys)
    assert "Shipped-scenario outputs: byte-identical" in text
    assert "Workload calls whose outputs differ from the base commit:\n```\nb:seed1:y:waterfill\n```" in text


def test_head_alone_reports_known_limits_and_sweep_iterations(tmp_path, capsys):
    collection(tmp_path, "HEAD")
    text = summary(tmp_path, capsys)
    assert text == (
        "ADMM on the Known-limits networks, HEAD:\n"
        "- U 10000 and 0.75 U, source 1, gamma 0.5: 892 rounds\n"
        "Sweep drift on the shipped scenarios (op_a iterations for sweep-gamma, op_b for sweep-tau):\n"
        "- case_study.sweep-tau: HEAD exit 0, 37 iterations\n"
    )


@pytest.mark.parametrize("tree", ["base", "HEAD"])
def test_a_stopped_part_is_reported(tmp_path, capsys, tree):
    collection(tmp_path, "base")
    collection(tmp_path, "HEAD")
    (tmp_path / tree / "stopped.txt").write_text("workload_calls stopped: ImportError: no workloads\n")
    assert f"At {tree}, workload_calls stopped: ImportError: no workloads\n" in summary(tmp_path, capsys)
