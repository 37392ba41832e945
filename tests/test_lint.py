"""Tier-1 lint: no module of ``d2dpc`` imports a name it never uses.

No linter ships with the toolchain, so the check is an ``ast`` walk: a
name bound by an import must be read somewhere in the module.  An import
whose line is marked ``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "d2dpc"


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for every name ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[node.lineno - 1] or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, NamedTuple\n"
        "from .core import place  # noqa: F401\n"
        "x: Optional[int] = None\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: NamedTuple"]
