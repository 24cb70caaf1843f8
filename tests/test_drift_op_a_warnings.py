"""tools/drift.py's Known-limits rows name op_a's RuntimeWarnings as they name
admm's: both solves run under one capture, so on the finite-sum overflow
network op_a's overflow shows in the row and not on collect's stderr."""

import importlib.util
from pathlib import Path

import pytest

import test_admm_binding_caps

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

OVERFLOW = "U 1.5e308 and 1e300, baseline 1e-300, source 1e-300, gamma 0.5"
QUIET = "U 10000 and 0.75 U, source 1, gamma 0.5"


@pytest.fixture
def rows(monkeypatch):
    monkeypatch.setattr(drift, "KNOWN_LIMITS", [row for row in drift.KNOWN_LIMITS if row[0] in (OVERFLOW, QUIET)])
    monkeypatch.setattr(test_admm_binding_caps, "NETWORKS", {})
    return dict(row.split(": ", 1) for row in drift.known_limits(str(ROOT)))


def test_the_overflow_row_names_op_a_warnings(rows, capfd):
    admm, op_a = rows[f"- {OVERFLOW}"].split("; op_a ")
    assert admm.endswith(", 0 RuntimeWarnings")
    assert op_a.startswith("exit 5 after 1 iterations (op_a solve stalled at residual nan")
    assert op_a.endswith(" RuntimeWarnings (overflow encountered in multiply) (invalid value encountered in divide)")
    assert "RuntimeWarning" not in capfd.readouterr().err


def test_a_row_whose_op_a_warns_nothing_names_no_warning(rows):
    admm, op_a = rows[f"- {QUIET}"].split("; op_a ")
    assert admm.endswith(", 0 RuntimeWarnings")
    assert op_a.endswith("of the budget off waterfill")
