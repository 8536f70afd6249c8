"""Lean imports: no module under ``src/`` or ``tests/`` imports a name it
never uses, and no function under ``src/`` imports anything in its body.

A name counts as used when it is read anywhere in the module (as a bare
name or as the root of an attribute chain) or is listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/**/*.py")])


def unused_imports(source):
    """The names ``source`` imports and never uses, in line order."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def function_imports(source):
    """The line numbers of the imports inside function bodies, in order."""
    return sorted({node.lineno
                   for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_finds_an_unused_import():
    source = ("import os\nimport sys as system\nfrom a.b import c, d\n"
              "__all__ = ['d']\nprint(system.argv)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_import_in_a_function():
    source = ("import os\n\ndef f():\n    import re\n\n"
              "    def g():\n        from a import b\n")
    assert function_imports(source) == [4, 7]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_no_imports_in_function_bodies(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []
