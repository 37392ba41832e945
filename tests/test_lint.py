"""Tier-1 lint: no module imports a name it never uses, and every def in
``d2dpc`` is reached from a caller.

No linter ships with the toolchain, so both checks are ``ast`` walks.

* A name bound by an import must be read somewhere in the module.  An
  import whose line is marked ``# noqa: F401`` is a deliberate re-export.
* Every top-level def and method of ``src/d2dpc`` must be reachable, by
  name and through def bodies, from a root: ``cli.main``, any dunder
  method, the module-level statements of ``d2dpc``, and every identifier
  or identifier-shaped string constant in ``demos/`` and ``bench/``
  (``bench/test_bench.py`` excepted).  A name reaches every def so named,
  in any module or class, so the walk may count a def as reached that no
  call reaches; it never flags a def that one does.  The defs that only
  ``bench/`` names reach are pinned by name, so that list cannot grow.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "d2dpc"


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


LINTED = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


@pytest.mark.parametrize(
    "path", LINTED, ids=lambda path: path.name if path.parent == SRC else str(path.relative_to(ROOT))
)
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


def _names(nodes) -> set[str]:
    """Every name read, attribute taken or identifier string written in
    ``nodes`` and below."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
                out.add(sub.value)
    return out


def _module_level(tree: ast.Module) -> list:
    """The parts of ``tree`` that run on import: every statement but the
    imports and the def bodies; a class body counts, its method bodies do
    not."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.FunctionDef):
            out.extend([*stmt.decorator_list, stmt.args])
        elif isinstance(stmt, ast.ClassDef):
            out.extend([*stmt.decorator_list, *stmt.bases, *stmt.keywords])
            out.extend(_module_level(ast.Module(body=stmt.body, type_ignores=[])))
        else:
            out.append(stmt)
    return out


def unreached_defs(modules: dict[str, str], outside: set[str], root: str = "cli.main") -> list[str]:
    """``module.name`` (``module.Class.name`` for a method) of every def in
    ``modules`` (module name -> source) that the roots do not reach: the
    def ``root``, every dunder method, the module-level statements and the
    names in ``outside``."""
    defs = {}  # qualified name -> (bare name, def node)
    reached = set(outside)
    for module, source in modules.items():
        tree = ast.parse(source)
        reached |= _names(_module_level(tree))
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                defs[f"{module}.{stmt.name}"] = (stmt.name, stmt)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{module}.{stmt.name}.{sub.name}"] = (sub.name, sub)
    todo = {q for q, (name, _) in defs.items() if q == root or name.startswith("__") and name.endswith("__")}
    done = set()
    while todo:
        done |= todo
        for q in todo:
            reached |= _names(defs[q][1].body)
        todo = {q for q, (name, _) in defs.items() if name in reached} - done
    return sorted(set(defs) - done)


def _src_modules() -> dict[str, str]:
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def _names_in(paths) -> set[str]:
    return set().union(*(_names([ast.parse(path.read_text())]) for path in paths))


def test_every_def_is_reached():
    outside = _names_in(path for path in [*(ROOT / "demos").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
                        if path != ROOT / "bench" / "test_bench.py")
    assert unreached_defs(_src_modules(), outside) == []


# The defs that only ``bench/`` reaches: the transcript parser and its
# helpers, the one-subfile reader and the two traced view functions.  Each
# waits on the change that may edit the benchmark (ROADMAP item 1), and no
# other def may lean on ``bench/`` names to pass the lint above.
BENCH_ONLY_DEFS = [
    "core._decimal", "core._field", "core._fields", "core._lines", "core._parse_header",
    "core._parse_hex", "core._parse_sid", "core.subfile_value", "core.transcript_from_text",
    "verify.canonical_view", "verify.canonical_view_blocks",
]


def test_defs_only_the_benchmark_reaches_are_pinned():
    assert unreached_defs(_src_modules(), _names_in((ROOT / "demos").rglob("*.py"))) == BENCH_ONLY_DEFS


def test_unreached_defs_are_found():
    modules = {
        "cli": "def main():\n    return helper().run()\n\n\ndef helper():\n    return Box()\n",
        "box": (
            "class Box:\n"
            "    size = 1\n\n"
            "    def __init__(self):\n        self.parts = parts()\n\n"
            "    def run(self):\n        return 1\n\n"
            "    def spare(self):\n        return dead()\n\n\n"
            "def parts():\n    return []\n\n\n"
            "def dead():\n    return 0\n\n\n"
            "def traced():\n    return 2\n"
        ),
    }
    assert unreached_defs(modules, {"traced"}) == ["box.Box.spare", "box.dead"]
