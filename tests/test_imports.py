"""Every name a package module imports is used in that module.

Each ``src/schurzeta/*.py`` but ``__init__.py`` (which imports to export)
is parsed, and a name bound by an import must appear as a name somewhere
else in the module's code; a docstring or comment does not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schurzeta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

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
