"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the public surface.  A name
imported only so that something outside the module finds it there carries
``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

import hroa

MODULES = sorted(p for p in Path(hroa.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import re  # noqa: F401  re-exported\n"
        "from .prefix import (\n"
        "    V4,\n"
        "    expand,\n"
        ")\n"
        "print(os.sep, V4)\n"
    )
    assert _unused_imports(source) == ["expand (line 6)"]
