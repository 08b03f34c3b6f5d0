"""Every name a module of the package imports is used, and every definition is.

An AST scan of ``src/eqkd``: an imported name counts as used when the module
refers to it anywhere, string annotations included. Package ``__init__``
modules are exempt, because their imports are re-exports, and so is
``from __future__``.

Every function, class and method defined in the package must be referred to
by name, as a name or an attribute, somewhere in the package or in the
benchmark (``perfbench/``, outside its tests), or be named in an ``__all__``;
dunder methods are exempt. So library code that only the tests use does not
stay in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eqkd"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "SymbolBlock"; other strings that
            # happen to parse add harmless extra names
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_the_scan_sees_the_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _used_names(tree: ast.Module) -> set[str]:
    """The referenced names, and every attribute the module reads or sets."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _referenced_names(tree) | attributes


def _exported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _defined_names(tree: ast.Module) -> dict[str, int]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, defs) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_definition_is_used_outside_the_tests():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.rglob("*.py")}
    assert len(BENCH) >= 3
    used = set().union(*map(_used_names, trees.values()))
    used |= set().union(*(_used_names(ast.parse(p.read_text())) for p in BENCH))
    used |= set().union(*map(_exported_names, trees.values()))
    unused = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path, tree in sorted(trees.items())
        for name, line in _defined_names(tree).items()
        if name not in used
    ]
    assert not unused, f"defined but used only by tests, or not at all: {unused}"
