"""Tier-1 lint: no module imports a name it never uses, every def in
``d2dpc`` is reached from a caller, subfile ids are built in three places
only, and the test oracles share no def with the modules they check.

No linter ships with the toolchain, so the checks are ``ast`` walks.

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
* ``SubfileId(...)`` is called in ``src/d2dpc`` only where an id first
  appears: ``core.place`` draws every id of a run, ``core._parse_sid``
  reads one from text, and ``decode_from_messages`` names the slot it
  could not recover in its ``DecodingFailure``.  Caches and message
  compositions hold the placement's objects instead of equal copies.
* ``tests/oracles.py`` imports no def of ``d2dpc.bounds`` or
  ``d2dpc.gf2``, the modules whose results its oracles check, and neither
  module whole; constants such as tag tuples may be shared.
* No ``==``, ``!=``, ``in`` or ``not in`` in ``src/d2dpc`` compares with a
  curve name of ``bounds.CURVES``, alone or in a literal tuple, list or
  set: what differs between curves is a field of the table, not a branch.
* No module of ``src/d2dpc`` reads the environment (``os.environ``,
  ``os.environ.get``, ``os.getenv``, or either name imported from ``os``):
  every input is an argument, so a run is set by its command line alone.
"""

import ast
from pathlib import Path

import pytest

from d2dpc.bounds import CURVES

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


def _callee(func) -> str:
    """The last name of ``f`` or ``a.b.f`` ("" for any other node)."""
    return getattr(func, "id", None) or getattr(func, "attr", "")


def subfile_id_calls(modules: dict[str, str]) -> list[str]:
    """Where each ``SubfileId(...)`` call (``SubfileId._make(...)`` too) of
    ``modules`` (module name -> source) sits: ``module.def`` or
    ``module.Class.def``, plus ``: raise Name`` inside ``raise Name(...)``;
    ``module`` alone at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            where = f"{where}: raise {_callee(node.exc.func)}"
        elif isinstance(node, ast.Call):
            if "SubfileId" in (_callee(node.func), _callee(getattr(node.func, "value", None))):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, source in modules.items():
        visit(ast.parse(source), module)
    return found


SUBFILE_ID_SITES = {"core.place", "core._parse_sid", "scheme_a.decode_from_messages: raise DecodingFailure"}


def test_subfile_ids_are_built_only_where_they_first_appear():
    assert [site for site in subfile_id_calls(_src_modules()) if site not in SUBFILE_ID_SITES] == []


def test_subfile_id_calls_are_found():
    modules = {
        "core": (
            "ORIGIN = SubfileId(0, 0)\n\n\n"
            "def place(slots):\n    return [SubfileId(1, s) for s in slots]\n\n\n"
            "class Cache:\n    def key(self, s):\n        return core.SubfileId._make((1, s))\n"
        ),
        "scheme_a": (
            "def decode(s):\n"
            "    if s:\n        raise DecodingFailure(1, SubfileId(1, s))\n"
            "    raise ValueError(str(SubfileId(2, s)))\n"
        ),
    }
    assert subfile_id_calls(modules) == [
        "core", "core.place", "core.Cache.key", "scheme_a.decode: raise DecodingFailure",
        "scheme_a.decode: raise ValueError",
    ]


def imported_defs(source: str, checked: dict[str, str]) -> list[str]:
    """``line N: module.name`` for every def of a ``checked`` module
    (dotted name -> source) that ``source`` imports, and ``line N: module``
    for every import of a checked module whole."""
    defs = {
        module: {stmt.name for stmt in ast.parse(text).body if isinstance(stmt, ast.FunctionDef)}
        for module, text in checked.items()
    }
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name in checked]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                whole = f"{node.module}.{alias.name}"
                if whole in checked or node.module in checked and alias.name in defs[node.module] | {"*"}:
                    found.append(f"line {node.lineno}: {whole}")
    return found


def test_oracles_import_no_def_they_check():
    checked = {f"d2dpc.{name}": (SRC / f"{name}.py").read_text() for name in ("bounds", "gf2")}
    assert imported_defs((ROOT / "tests" / "oracles.py").read_text(), checked) == []


def test_imported_defs_are_found():
    checked = {"pkg.mod": "LIMIT = 3\n\n\ndef solve():\n    return LIMIT\n"}
    source = (
        "from pkg.mod import LIMIT, solve\n"
        "from pkg import mod\n"
        "import pkg.mod\n"
        "from pkg.mod import *\n"
        "from pkg.other import solve as other\n"
    )
    assert imported_defs(source, checked) == [
        "line 1: pkg.mod.solve", "line 2: pkg.mod", "line 3: pkg.mod", "line 4: pkg.mod.*",
    ]


def name_comparisons(source: str, names) -> list[str]:
    """``line N: name`` for every string of ``names`` that a comparison by
    ``==``, ``!=``, ``in`` or ``not in`` in ``source`` has as an operand,
    alone or as an element of a literal tuple, list or set."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare) or not any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            continue
        for operand in [node.left, *node.comparators]:
            items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
            found += [f"line {node.lineno}: {item.value}" for item in items
                      if isinstance(item, ast.Constant) and item.value in names]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_curve_name_is_compared(path):
    assert name_comparisons(path.read_text(), set(CURVES)) == []


def test_name_comparisons_are_found():
    source = (
        "if which == 'schemeA':\n    pass\n"
        "ok = 'conv2u' != which or which in ('sharedlink', 'other') or which not in ['schemeB']\n"
        "fine = which == 'other' or which in CURVES or which < 'schemeC' or CURVES['schemeC']\n"
    )
    assert name_comparisons(source, {"schemeA", "schemeB", "schemeC", "conv2u", "sharedlink"}) == [
        "line 1: schemeA", "line 3: conv2u", "line 3: sharedlink", "line 3: schemeB",
    ]


_ENVIRONMENT = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """``line N: os.name`` for every ``os.environ`` or ``os.getenv`` that
    ``source`` takes as an attribute or imports from ``os``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT and _callee(node.value) == "os":
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in _ENVIRONMENT]
    return [f"line {line}: os.{name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []


def test_environment_reads_are_found():
    source = (
        "import os\n"
        "seed = os.environ['SEED']\n"
        "cap = os.environ.get('CAP', '1')\n"
        "home = os.getenv('HOME')\n"
        "from os import environ, getenv, path\n"
        "fine = os.path.join(environ_name, getenv_name)\n"
    )
    assert environment_reads(source) == [
        "line 2: os.environ", "line 3: os.environ", "line 4: os.getenv", "line 5: os.environ",
        "line 5: os.getenv",
    ]
