"""One module decides invertibility: ``bimodcat.unit_det`` is the only test
of a unit determinant that the product code uses, and ``BimoduleMap`` is
the only class that reads as a map of matrices.

No module under ``src/`` other than ``bimodcat`` and ``matrixops`` imports
or calls ``bareiss_determinant`` or ``adjugate``, and no module under
``src/sl2prod/product/`` names ``exact_divide``: the product divides by
its y-operators by back-substitution in y.  No class under ``src/`` other
than ``BimoduleMap`` defines both ``mats`` and ``matrix``, so a
certificate reads a dict of matrices, not an object that imitates a map.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
PRODUCT = [p for p in SRC if p.parent.name == "product"]
# the modules that may compute a determinant or an adjugate
NON_OWNERS = [p for p in SRC if p.relative_to(ROOT).as_posix() not in (
    "src/sl2prod/bimodcat.py", "src/sl2prod/matrixops.py")]


def name_uses(source, names):
    """The line numbers where ``source`` imports or names one of
    ``names``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom)
            and any(a.name in names for a in node.names))
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names))


def determinant_uses(source):
    """The line numbers where ``source`` imports or names
    ``bareiss_determinant``."""
    return name_uses(source, {"bareiss_determinant"})


def map_lookalikes(source):
    """The classes of ``source`` other than ``BimoduleMap`` that define
    both ``mats`` and ``matrix``: as a method, a class attribute or an
    attribute set on ``self``."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or cls.name == "BimoduleMap":
            continue
        names = set()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
        names |= {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"}
        if {"mats", "matrix"} <= names:
            out.append(cls.name)
    return out


def test_finds_a_determinant_use():
    source = ("from ..matrixops import Matrix, bareiss_determinant\n"
              "from .. import matrixops\n\n"
              "def f(m):\n"
              "    return matrixops.bareiss_determinant(m)\n\n"
              "def g(m):\n"
              "    return bareiss_determinant(m)\n")
    assert determinant_uses(source) == [1, 5, 8]


def test_finds_an_adjugate_and_a_division():
    source = ("from ..matrixops import adjugate\n"
              "from ..polyring import dot\n\n"
              "def f(m, p, q):\n"
              "    return polyring.exact_divide(p, q), adjugate(m)\n")
    assert name_uses(source, {"adjugate", "bareiss_determinant"}) == [1, 5]
    assert name_uses(source, {"exact_divide"}) == [5]


def test_finds_a_map_lookalike():
    source = ("class BimoduleMap:\n"
              "    def __init__(self):\n"
              "        self.mats = {}\n"
              "    def matrix(self, lam):\n"
              "        return self.mats[lam]\n\n"
              "class Corners:\n"
              "    @property\n"
              "    def mats(self):\n"
              "        return {}\n"
              "    def matrix(self, key):\n"
              "        return None\n\n"
              "class Stored:\n"
              "    matrix = None\n"
              "    def __init__(self):\n"
              "        self.mats = {}\n\n"
              "class Half:\n"
              "    def matrix(self, key):\n"
              "        return None\n")
    assert map_lookalikes(source) == ["Corners", "Stored"]


@pytest.mark.parametrize("path", PRODUCT,
                         ids=[str(p.relative_to(ROOT)) for p in PRODUCT])
def test_product_code_computes_no_determinant(path):
    assert determinant_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", NON_OWNERS,
                         ids=[str(p.relative_to(ROOT)) for p in NON_OWNERS])
def test_only_the_certificates_compute_determinants(path):
    assert name_uses(path.read_text(encoding="utf-8"),
                     {"bareiss_determinant", "adjugate"}) == []


@pytest.mark.parametrize("path", PRODUCT,
                         ids=[str(p.relative_to(ROOT)) for p in PRODUCT])
def test_product_code_makes_no_exact_division(path):
    assert name_uses(path.read_text(encoding="utf-8"),
                     {"exact_divide"}) == []


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_bimodule_maps_hold_mats_and_matrix(path):
    assert map_lookalikes(path.read_text(encoding="utf-8")) == []
