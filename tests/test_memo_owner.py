"""One module owns the memo: no module under ``src/`` other than
``tworep.py`` reads or writes an attribute named ``_cache``.

The one exception is the empty memo that ``ProductRep.__init__`` declares
on ``self``; every entry goes through ``tworep._memoized`` or
``tworep._sequence``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(p for p in ROOT.glob("src/**/*.py") if p.name != "tworep.py")


def memo_accesses(source):
    """The line numbers of the ``_cache`` attributes ``source`` touches,
    other than an empty-memo declaration on ``self`` in a class's
    ``__init__`` named ``ProductRep``."""
    tree = ast.parse(source)
    allowed = {id(stmt.targets[0] if isinstance(stmt, ast.Assign)
                  else stmt.target)
               for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "ProductRep"
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
               for stmt in fn.body
               if isinstance(stmt, (ast.Assign, ast.AnnAssign))
               and isinstance(stmt.value, ast.Dict) and not stmt.value.keys}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_cache"
                  and not (id(node) in allowed
                           and isinstance(node.value, ast.Name)
                           and node.value.id == "self"))


def test_finds_a_memo_access():
    source = ("class ProductRep:\n"
              "    def __init__(self):\n"
              "        self._cache: dict = {}\n"
              "        self.other._cache = {}\n"
              "        self._cache = {1: 2}\n\n"
              "def f(P):\n"
              "    return P._cache.get(1)\n")
    assert memo_accesses(source) == [4, 5, 8]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_tworep_touches_the_memo(path):
    assert memo_accesses(path.read_text(encoding="utf-8")) == []
