"""Stdlib-only lint of the package source: no unused imports, no long
lines, no module import outside its pinned place in the import graph,
no import from outside the package and the standard library, and no
public function, class or method that nothing reads."""

import ast
import sys
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


def _outside_imports(tree: ast.Module) -> set[str]:
    """Top-level modules the module imports from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - {"tablepaths"}


def test_runtime_imports_only_the_standard_library():
    # Pins the empty ``dependencies`` of pyproject.toml.
    third_party = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in sorted(_outside_imports(ast.parse(path.read_text())))
        if name not in sys.stdlib_module_names
    ]
    assert third_party == []
    found = _outside_imports(ast.parse(
        "import numpy.linalg\nfrom . import dp\nfrom tablepaths.core import Cell\n"
        "from sympy import Matrix\nimport math\n"))
    assert found - sys.stdlib_module_names == {"numpy", "sympy"}


# Public names no source module reads: the engine's and the oracle's
# counts that the tests and the benchmark compare, and the documented
# calibration that the acceptance tests drive.  ``dp.imn_sequence`` and
# ``dp.d1_bottom_row`` reduce ``dp.columns`` as the CLI's ``sequence``
# does; the tests and perfbench's ``MARCHES`` call them.
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


def _public(stmt: ast.stmt) -> list[tuple[str, str]]:
    """(dotted name, name) of a top-level public function or class and of
    the public methods of a public class."""
    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or (
            stmt.name.startswith("_")):
        return []
    names = [(stmt.name, stmt.name)]
    if isinstance(stmt, ast.ClassDef):
        names += [(f"{stmt.name}.{f.name}", f.name) for f in stmt.body
                  if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return names


def _uncalled(sources: dict[str, str]) -> set[str]:
    """Public names of the ``sources`` (module -> text) that no statement
    reads, outside a function's or class's own name."""
    defined, read = [], set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            tables = {(module, name) for name in _bound(stmt)} & NAME_TABLES
            refs = _references(stmt, strings=bool(tables))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
            defined += [(module, dotted, name) for dotted, name in _public(stmt)]
            read |= refs
    return {f"{module}.{dotted}" for module, dotted, name in defined
            if name not in read}


def test_every_public_name_has_a_caller():
    """Each top-level public function and class, and each public method
    of a public class, is read by some source module outside its own
    definition, or is pinned in UNCALLED_API."""
    assert _uncalled({path.stem: path.read_text() for path in MODULES}) == (
        UNCALLED_API)


def test_a_public_method_without_a_caller_is_found():
    # A method is read by its attribute name, from any module; one that
    # nothing reads is reported with its class, and a private one is not.
    source = ("class Box:\n"
              "    def get(self): return self.size()\n"
              "    def size(self): return 1\n"
              "    def unread(self): return 2\n"
              "    def _private(self): return 3\n")
    assert _uncalled({"box": source, "user": "Box().get()\n"}) == {"box.Box.unread"}
