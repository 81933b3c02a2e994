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
# calibration that the acceptance tests drive.
UNCALLED_API = {
    "dp.imn",
    "oracle.brute_pair_count",
    "oracle.brute_imn",
    "oracle.brute_free",
    "verify.calibrate_domain",
}


def _references(node: ast.AST) -> set[str]:
    """Names a subtree reads: bare names, attributes and exact strings
    (``dp.build`` and the verify registry look functions up by name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_public_name_has_a_caller():
    """Each top-level public function and class is read by some source
    module outside its own definition, or is pinned in UNCALLED_API."""
    defined, read = [], set()
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append((path.stem, stmt.name))
            read |= refs
    uncalled = {f"{module}.{name}" for module, name in defined if name not in read}
    assert uncalled == UNCALLED_API
