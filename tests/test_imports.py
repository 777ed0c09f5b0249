"""Every imported name is read in its module, listed in ``__all__``, or marked.

A name an import binds must be read somewhere in the same module (a load of
the name, as in ``np.array`` or ``f(x)``), be listed in the module's
``__all__``, or sit in an import statement marked ``# noqa: F401``, which is
how a module keeps an attribute that only something outside it reads. This
covers the package and the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "palmpc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module neither reads nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and name not in exported:
                unused.append((node.lineno, name))
    return unused


def test_the_check_sees_unused_and_marked_imports():
    source = ("import os\nimport numpy as np\nfrom a import (  # noqa: F401\n    b, c)\n"
              "from d import e, f\n__all__ = ['f']\nnp.zeros(1)\n")
    assert unused_imports(source) == [(1, "os"), (5, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
