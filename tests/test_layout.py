"""Stdlib-only lint of the package source: no unused imports, no long
lines, no module import outside its pinned place in the import graph,
and no public function or class that nothing reads."""

import ast
from pathlib import Path

import pytest

import tablepaths

SRC = Path(tablepaths.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
MAX_COLUMNS = 88
# module -> the package modules it imports; each layer reads only those below
IMPORT_GRAPH = {
    "__init__": set(),
    "core": set(),
    "dp": {"core"},
    "oracle": {"core"},
    "formulas": {"core", "dp"},
    "verify": {"core", "dp", "formulas"},
    "cli": {"core", "dp", "oracle", "verify"},
    "__main__": {"cli"},
}


def _imported(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def test_no_source_line_is_too_long():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


def _package_imports(tree: ast.Module) -> set[str]:
    """Package modules the module imports, relative or through ``tablepaths``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("tablepaths."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "tablepaths":
                    continue
                module = module.partition(".")[2]
            if module:
                names.add(module.partition(".")[0])
            else:
                names.update(a.name for a in node.names)
    return names


def test_import_graph_is_pinned():
    graph = {p.stem: _package_imports(ast.parse(p.read_text())) for p in MODULES}
    assert graph == IMPORT_GRAPH


# Public names no source module reads: the engine's and the oracle's
# counts that the tests and the benchmark compare, and the documented
# calibration that the acceptance tests drive.  ``dp.imn_sequence`` and
# ``dp.d1_bottom_row`` are named only as strings the CLI passes to
# ``dp._sequence``; the tests and perfbench's ``MARCHES`` call them.
# ``dp.hss_values`` reads a whole table's columns; the CLI sums each
# footer entry as it renders that column, and the tests compare the two.
UNCALLED_API = {
    "dp.imn",
    "dp.hss_values",
    "dp.imn_sequence",
    "dp.d1_bottom_row",
    "oracle.brute_pair_count",
    "oracle.brute_imn",
    "oracle.brute_free",
    "verify.calibrate_domain",
}

# The two tables that code looks a function up in by its name: there, and
# only there, a string reads the name it spells.
NAME_TABLES = {("verify", "_REGISTRY"), ("dp", "_FAMILIES")}


def _references(node: ast.AST, strings: bool) -> set[str]:
    """Names a subtree reads: bare names, attributes and, with
    ``strings``, exact strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _bound(stmt: ast.stmt) -> set[str]:
    """The names a top-level assignment binds."""
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def test_every_public_name_has_a_caller():
    """Each top-level public function and class is read by some source
    module outside its own definition, or is pinned in UNCALLED_API."""
    defined, read = [], set()
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            tables = {(path.stem, name) for name in _bound(stmt)} & NAME_TABLES
            refs = _references(stmt, strings=bool(tables))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append((path.stem, stmt.name))
            read |= refs
    uncalled = {f"{module}.{name}" for module, name in defined if name not in read}
    assert uncalled == UNCALLED_API
