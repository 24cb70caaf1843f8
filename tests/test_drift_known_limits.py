"""tools/drift.py's summary prints HEAD's Known-limits rows in full and,
from base, only the rows that differ from HEAD's row of the same name."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("drift", Path(__file__).parents[1] / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

ROWS = (
    "- U 10000 and 0.75 U, source 1, gamma 0.5: 892 rounds, 0 nan objectives",
    "- U 12/6/1e-9, baseline 1e-20, source 1, gamma 0.1: 43 rounds, 0 nan objectives",
)


def collection(root, tree, rows):
    out = root / tree
    (out / "reports").mkdir(parents=True)
    (out / "known_limits.txt").write_text("".join(f"{row}\n" for row in rows))
    for part in ("stopped", "shipped", "workload_calls"):
        (out / f"{part}.txt").write_text("")


def known_limits(root, capsys):
    drift.summary(str(root))
    text = capsys.readouterr().out
    return text[:text.index("Sweep drift")]


def test_matching_rows_print_once(tmp_path, capsys):
    collection(tmp_path, "base", ROWS)
    collection(tmp_path, "HEAD", ROWS)
    assert known_limits(tmp_path, capsys) == (
        "ADMM on the Known-limits networks, HEAD:\n" + "".join(f"{row}\n" for row in ROWS)
        + "ADMM on the Known-limits networks, base: all 2 rows match HEAD's\n"
    )


def test_base_prints_only_its_moved_rows(tmp_path, capsys):
    moved = ROWS[1].replace("0 nan", "21 nan")
    collection(tmp_path, "base", (ROWS[0], moved))
    collection(tmp_path, "HEAD", ROWS)
    assert known_limits(tmp_path, capsys).endswith(
        "ADMM on the Known-limits networks, base (2 rows), where it differs from HEAD:\n" + moved + "\n"
    )


def test_a_row_missing_at_base_is_no_match(tmp_path, capsys):
    collection(tmp_path, "base", ROWS[:1])
    collection(tmp_path, "HEAD", ROWS)
    assert known_limits(tmp_path, capsys).endswith(
        "ADMM on the Known-limits networks, base (1 row), where it differs from HEAD:\n"
    )
