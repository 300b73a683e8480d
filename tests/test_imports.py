"""Every name a package module imports is used in that module, and every
public function or class it defines has a caller.

Each ``src/schurzeta/*.py`` but ``__init__.py`` (which imports to export)
is parsed, and a name bound by an import must appear as a name somewhere
else in the module's code; a docstring or comment does not count.

A public module-level function or class must be referenced by name (as a
name, an attribute or an import) elsewhere in the package, outside its own
definition, or in ``bench/*.py``, which reaches the package as
``api.values.schur_value``.  The tests do not count as callers: a public
function only the tests call is API nothing uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schurzeta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))

# jacobi_trudi keeps linear_value for bench/selftest.py, which checks that
# the name is traced there.
ALLOWED = {("jacobi_trudi", "linear_value")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = (
        "from .shapes import Partition, walk\nimport math\n"
        "def f(p: Partition):\n    return p\n"
    )
    assert unused_imports(source) == ["walk", "math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    unused = [
        name for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in ALLOWED
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


# The reference routes the tests compare the linear-value evaluator against;
# only the tests call them, by design.
REFERENCE_ROUTES = {"values.linear_value_by_recursion", "values.merge_expansion"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced(node: ast.AST) -> set[str]:
    """The names node's code refers to: names, attribute names and the
    names an import binds or reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def uncalled(package: dict[str, str], outside: list[str]) -> list[str]:
    """module.name for each public module-level function or class of the
    package's modules (module name -> source) that no other code refers to:
    no statement of the package but its own definition, and no source in
    outside."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    elsewhere = set().union(*(referenced(ast.parse(source)) for source in outside))
    # Per top-level statement: the name it defines (None if none) and the
    # names it refers to.
    statements = [
        (module, stmt.name if isinstance(stmt, DEFINITIONS) else None, referenced(stmt))
        for module, tree in trees.items()
        for stmt in tree.body
    ]
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS) or stmt.name.startswith("_"):
                continue
            callers = [
                names for other, defined, names in statements
                if (other, defined) != (module, stmt.name)
            ]
            if stmt.name not in elsewhere and not any(stmt.name in names for names in callers):
                found.append(f"{module}.{stmt.name}")
    return found


def test_the_check_sees_an_uncalled_function():
    package = {
        "a": "def used():\n    return used()\n\ndef lone():\n    return lone()\n\n"
             "class Shown:\n    pass\n\ndef _private():\n    return 0\n",
        "b": "from .a import used\n",
    }
    assert uncalled(package, []) == ["a.lone", "a.Shown"]
    assert uncalled(package, ["api.a.Shown(api.a.lone)"]) == []


def test_every_public_function_has_a_caller():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    outside = [p.read_text(encoding="utf-8") for p in BENCH]
    found = set(uncalled(package, outside))
    extra, called = found - REFERENCE_ROUTES, REFERENCE_ROUTES - found
    assert not extra, f"no caller outside the tests: {sorted(extra)}"
    assert not called, f"allowed, but called elsewhere: {sorted(called)}"
