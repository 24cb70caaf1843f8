"""tools/drift.py's files.txt and the summary's files section on hand-made
trees: src's lines per file and in total, and the existing files of tests/
and bench/ whose bytes a change edited (not those it adds or deletes)."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("drift", Path(__file__).parents[1] / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)

BASE = {
    "src/secalloc/model.py": "a = 1\nb = 2\nc = 3\n",
    "src/secalloc/__init__.py": "",
    "src/secalloc/__pycache__/model.cpython-311.pyc": "compiled",
    "tests/test_kept.py": "def test_kept():\n    assert True\n",
    "tests/test_edited.py": "def test_edited():\n    assert 1 == 1\n",
    "tests/test_deleted.py": "def test_deleted():\n    pass\n",
    "bench/run.py": "print('run')\n",
    "README.md": "outside src, tests and bench\n",
}
HEAD = {
    **{path: text for path, text in BASE.items() if path != "tests/test_deleted.py"},
    "src/secalloc/model.py": "a = 1\nb = 2\n",
    "src/secalloc/solver.py": "x = 1\ny = 2\nz = 3\nno_trailing_newline = 4",
    "tests/test_edited.py": "def test_edited():\n    assert 2 == 2\n",
    "tests/test_added.py": "def test_added():\n    pass\n",
}


def stopping(name):
    def part(tree):
        raise RuntimeError(f"{name} not run")
    part.__name__ = name
    return part


@pytest.fixture
def collect(tmp_path, monkeypatch):
    """collect(name, files) writes FILES as a tree and collects it into
    tmp_path/drift/NAME, each of the three parts stopped by an exception."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # collect puts the tree first on it
    for name in ("shipped", "workload_calls", "known_limits"):
        monkeypatch.setattr(drift, name, stopping(name))

    def run(name, files):
        for path, text in files.items():
            (tmp_path / name / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name / path).write_text(text)
        drift.collect(str(tmp_path / name), str(tmp_path / "drift" / name))
        return tmp_path / "drift" / name
    return run


def files_section(root, capsys):
    drift.summary(str(root))
    text = capsys.readouterr().out
    return text[text.index("Lines of"):text.index("ADMM on the Known-limits")]


def test_files_txt_lists_each_file_with_its_newlines_and_sha256_though_every_part_stops(collect):
    out = collect("HEAD", HEAD)
    listed = sorted(path for path in HEAD if "__pycache__" not in path and path != "README.md")
    assert (out / "files.txt").read_text() == "".join(
        f"{path} {HEAD[path].count(chr(10))} {hashlib.sha256(HEAD[path].encode()).hexdigest()}\n" for path in listed)
    assert "src/secalloc/solver.py 3 " in (out / "files.txt").read_text()  # as wc -l: no newline, no line
    assert (out / "stopped.txt").read_text().splitlines() == [
        f"{name} stopped: RuntimeError: {name} not run" for name in ("shipped", "workload_calls", "known_limits")]


def test_the_section_counts_src_at_both_trees_and_lists_only_edited_tests(collect, capsys):
    collect("base", BASE)
    root = collect("HEAD", HEAD).parent
    assert files_section(root, capsys) == (
        "Lines of src/secalloc/*.py, base -> HEAD:\n"
        "- src/secalloc/__init__.py: 0 -> 0\n"
        "- src/secalloc/model.py: 3 -> 2\n"
        "- src/secalloc/solver.py: absent -> 3\n"
        "- total: 3 -> 5\n"
        "Existing files of tests/ and bench/ edited against base:\n"
        "- tests/test_edited.py\n"
    )


def test_unedited_tests_read_none(collect, capsys):
    collect("base", BASE)
    root = collect("HEAD", {**BASE, "src/secalloc/model.py": "a = 1\n"}).parent
    assert files_section(root, capsys).endswith(
        "- total: 3 -> 1\nExisting files of tests/ and bench/ edited against base:\nnone\n")


def test_head_alone_prints_its_counts(collect, capsys):
    root = collect("HEAD", HEAD).parent
    assert files_section(root, capsys) == (
        "Lines of src/secalloc/*.py, HEAD:\n"
        "- src/secalloc/__init__.py: 0\n"
        "- src/secalloc/model.py: 2\n"
        "- src/secalloc/solver.py: 3\n"
        "- total: 5\n"
    )


def test_no_files_txt_prints_no_section(collect, capsys):
    collect("base", BASE)
    root = collect("HEAD", HEAD).parent
    for tree in ("base", "HEAD"):
        (root / tree / "files.txt").unlink()
    drift.summary(str(root))
    text = capsys.readouterr().out
    assert "Lines of" not in text and "edited against base" not in text
    assert text.startswith("At base, shipped stopped")

