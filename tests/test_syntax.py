"""Every Python file of the project parses as Python 3.10, the requires-python floor."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))


def test_every_project_file_parses_as_python_3_10():
    bad = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            bad.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert FILES and not bad, "\n".join(bad)


def test_check_rejects_syntax_newer_than_3_10():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
