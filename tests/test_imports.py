"""Every imported name and every package definition is read somewhere.

A name an import binds must be read somewhere in the same module (a load of
the name, as in ``np.array`` or ``f(x)``), be listed in the module's
``__all__``, or sit in an import statement marked ``# noqa: F401``, which is
how a module keeps an attribute that only something outside it reads. This
covers the package and the tests.

A top-level definition of the package (function, class or assigned name) must
be read by some module of the package or of ``solvebench/`` (a load of the
name, an attribute of that name, or an import of it) or be the console
script's entry point. A package export counts through the import in
``__init__.py``; listing a name in another module's ``__all__`` does not.
Code that only its own tests reach fails this check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "palmpc").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "solvebench").glob("*.py"))
ENTRY_POINTS = {"console_entry"}     # [project.scripts] in pyproject.toml


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


def _definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each top-level function, class and assigned name, dunders aside."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out if not name.startswith("__")]


def _reads(tree) -> set[str]:
    """Names a module loads, reads as attributes or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_definitions(package: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each definition in ``package`` (module name -> source)
    that no source of ``readers`` reads and that is not an entry point."""
    read = set().union(*(_reads(ast.parse(source)) for source in readers)) | ENTRY_POINTS
    return [(module, line, name) for module, source in package.items()
            for line, name in _definitions(ast.parse(source)) if name not in read]


def test_the_check_sees_unread_definitions():
    package = {"a": "X = 1\n_y: int = 2\n__all__ = ['f']\ndef f(): pass\nclass C: pass\n"
                    "def g(): return X\ndef console_entry(): pass\n",
               "b": "from a import g\nimport a\na.C()\n"}
    assert unread_definitions(package, list(package.values())) == [("a", 2, "_y"), ("a", 4, "f")]


def test_every_package_definition_is_read():
    package = {path.name: path.read_text() for path in PACKAGE}
    assert unread_definitions(package, [path.read_text() for path in READERS]) == []
