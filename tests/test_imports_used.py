"""Every name a module of the package imports is used, and every definition is.

An AST scan of ``src/eqkd``: an imported name counts as used when the module
refers to it anywhere, string annotations included. Package ``__init__``
modules are exempt, because their imports are re-exports, and so is
``from __future__``.

Every function, class and method defined in the package must be referred to
by name, as a name or an attribute, somewhere in the package or in the
benchmark (``perfbench/``, outside its tests); dunder methods are exempt, and
being listed in an ``__all__`` does not count. So library code that only the
tests use does not stay in ``src/``.

No ``isinstance`` or ``issubclass`` call in the package names a channel
strategy class: a strategy carries its own behaviour. No floor division
divides by a block length outside ``protocol.session_sizes``. No module of
the package has a ``global`` statement: what a function needs is handed to
it. No ``gf2_*`` function is defined in the package, and no module but
``codes`` imports a ``_``-prefixed name of ``codes``: a code's algebra runs
on words inside ``codes``, and with it the reconciliation format stays in
one module. No ``int()`` converts a seed: ``channel.check_seed`` is the one
seed rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from eqkd.channel import _STRATEGY_KINDS, AttackStrategy

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


def _without_all(tree: ast.Module) -> ast.Module:
    """``tree`` less its ``__all__`` assignment, whose strings would read as used names."""
    tree.body = [
        node
        for node in tree.body
        if not (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
    ]
    return tree


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
    used = set().union(*(_used_names(_without_all(tree)) for tree in trees.values()))
    used |= set().union(*(_used_names(ast.parse(p.read_text())) for p in BENCH))
    # strategy_from_dict reaches each strategy class by its kind, through the
    # registry built from AttackStrategy's subclasses
    used |= {cls.__name__ for cls in _STRATEGY_KINDS.values()}
    # the exact hypergeometric tail: c3 compares Lemma 1 against it, and the
    # planner is to call it (ROADMAP item 6), so it stays although only the tests use it
    used.add("hypergeometric_pmf")
    unused = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path, tree in sorted(trees.items())
        for name, line in _defined_names(tree).items()
        if name not in used
    ]
    assert not unused, f"defined but used only by tests, or not at all: {unused}"


def _class_names(node: ast.expr) -> set[str]:
    """The class names in an ``isinstance`` class argument: a name, an attribute or a tuple."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_class_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_no_type_test_names_a_strategy():
    strategies = {AttackStrategy.__name__, *(cls.__name__ for cls in _STRATEGY_KINDS.values())}
    assert len(strategies) == 5
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and len(node.args) == 2
        and _class_names(node.args[1]) & strategies
    ]
    assert not found, f"a type test on a strategy class, which should carry the behaviour: {found}"


def test_only_session_sizes_cuts_the_key_into_blocks():
    """Only ``session_sizes`` floor-divides by an attribute named ``n``, a block length.

    How many blocks the untested both-diagonal positions fill is the
    session's key layout. Both parties, the payload checks and replay must
    agree on it exactly, so ``session_sizes`` is the one place it is sized;
    a second ``// css.n`` elsewhere is a second rule for the same count,
    free to drift from it.
    """
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "session_sizes"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.FloorDiv)
            and id(node) not in exempt
            and isinstance(
                divisor := node.right if isinstance(node, ast.BinOp) else node.value, ast.Attribute
            )
            and divisor.attr == "n"
        ]
    assert not found, f"a block count sized outside session_sizes: {found}"


def test_no_module_rebinds_a_global():
    """No ``global`` statement in the package: module state set around a call is hidden input.

    A slot set before a fork and read back in the child is a second way of
    handing a value to a function, beside its arguments, and one that a
    spawned child or a second caller does not see.
    """
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert not found, f"a global statement: {found}"


def test_only_codes_does_gf2_algebra():
    """No ``gf2_*`` definition in the package, and no import of a private name of ``codes``.

    A block's syndrome and key are products over GF(2) that both parties
    must form alike. ``codes`` does that algebra on n-bit words, through its
    private helpers; a ``gf2_*`` matrix routine, or a second module that
    borrows those helpers, is a second place that knows the reconciliation
    format, free to drift from ``reconcile_alice_blocks`` and
    ``reconcile_bob_blocks``. The ``gf2_*`` references live in
    ``tests/pipeline_oracle.py``.
    """
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            else:
                continue
            where = f"{path.relative_to(PACKAGE)}:{node.lineno}"
            found += [f"{where} {name}" for name in names if name.startswith("gf2_")]
            if (
                isinstance(node, ast.ImportFrom)
                and path != PACKAGE / "codes.py"
                and (node.module or "").split(".")[-1] == "codes"
            ):
                found += [f"{where} {name}" for name in names if name.startswith("_")]
    assert not found, f"GF(2) algebra outside the word helpers of codes.py: {found}"


def _ends_in_seed(node: ast.expr) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.endswith("seed")


def test_no_seed_is_converted():
    """No ``int(x)`` in the package where ``x`` is a name or attribute ending in ``seed``.

    ``channel.check_seed`` is the one seed rule: it refuses what is not an
    integer in [0, 2^64). A converted seed is a second rule for the same
    value, and it can record, or draw from, a seed the caller never gave:
    ``int(2.5)`` runs seed 2.
    """
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and node.args
        and _ends_in_seed(node.args[0])
    ]
    assert not found, f"a seed converted with int() instead of checked: {found}"
