"""tools/drift.py records every shipped CLI call through cli.main in-process:
no call starts an interpreter, and the scenarios are the tree's own
scenarios/*.yaml."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)


def test_shipped_runs_every_verb_without_a_subprocess(monkeypatch, tmp_path):
    def run(*args, **kwargs):
        raise AssertionError(f"drift started a process: {args}")

    monkeypatch.setattr(drift.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    lines = drift.shipped(str(ROOT))
    scenarios = sorted(path.stem for path in (ROOT / "scenarios").glob("*.yaml"))
    sweeps = [f"{scenario}.{verb}" for scenario in scenarios for verb in ("sweep-gamma", "sweep-tau")]
    assert len(sweeps) == 6
    assert [line.split(" ", 1)[0] for line in lines] == sweeps
    assert all(re.fullmatch(r"\S+ exit 0, [1-9]\d* iterations", line) for line in lines)
    logs = sorted(path.name for path in tmp_path.glob("*.log"))
    assert len(logs) == 18
    assert logs == sorted(f"{scenario}.{verb.replace(' ', '_')}.log" for scenario in scenarios for verb in drift.VERBS)
    assert all(path.read_text().endswith("exit 0\n") for path in tmp_path.glob("*.log"))
