"""Every name a package module imports is used in that module, and every name
it defines is used somewhere in the package.

``__init__.py`` is left out of the first check: its imports are the public
surface.  A name imported only so that something outside the module finds it
there carries ``# noqa: F401`` on its line.  A module-level function, class or
assigned name must be loaded somewhere in the package besides its definition,
as a name or an attribute, be in ``hroa.__all__``, or be a dunder.
"""

import ast
from pathlib import Path

import pytest

import hroa

PACKAGE = sorted(Path(hroa.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _defined(tree: ast.Module) -> dict[str, int]:
    """The module-level functions, classes and assigned names, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names[leaf.id] = node.lineno
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Every name the module loads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _unused_definitions(sources: dict[str, str], public: set[str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = set().union(*map(_loaded, trees.values()))
    return [f"{module}: {name} (line {line})"
            for module, tree in trees.items()
            for name, line in _defined(tree).items()
            if name not in loaded and name not in public
            and not (name.startswith("__") and name.endswith("__"))]


def test_package_uses_every_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert _unused_definitions(sources, set(hroa.__all__)) == []


def test_scan_finds_an_unused_definition():
    sources = {
        "sync.py": (
            "__all__ = []\n"
            "LIMIT = 3\n"
            "_A, _B = 1, 2\n"
            "def fetch(pdu):\n"
            "    return wire.check(pdu, _A)\n"
            "def _check_version(pdu):\n"
            "    return pdu\n"
        ),
        "wire.py": "def check(pdu, limit):\n    return LIMIT\nclass Unused:\n    pass\n",
    }
    assert _unused_definitions(sources, {"fetch"}) == [
        "sync.py: _B (line 3)",
        "sync.py: _check_version (line 6)",
        "wire.py: Unused (line 3)",
    ]
