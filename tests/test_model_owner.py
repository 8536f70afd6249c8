"""One corner model family: under ``src/``, the only ``ModelElt``
subclasses written out as class statements are ``GElt``, the base of the
family G(n) that ``models.G`` makes from n, ``L2Elt`` and ``UElt``.

A corner of a power of E whose last word is FE^n is G(n), so a new such
corner needs no new class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))


def base_names(node):
    return {b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}


def model_classes(sources):
    """The classes of ``sources`` that derive from ``ModelElt``, directly or
    through another class of ``sources``."""
    bases = {node.name: base_names(node) for source in sources
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ClassDef)}
    found = {"ModelElt"}
    while True:
        more = {name for name, b in bases.items() if b & found} - found
        if not more:
            return sorted(found - {"ModelElt"})
        found |= more


def test_finds_every_subclass():
    source = ("from . import models\n\n"
              "class A(models.ModelElt):\n    pass\n\n"
              "class B(A):\n    pass\n\n"
              "class C(object):\n    pass\n")
    assert model_classes([source, "class D(B, C):\n    pass\n"]) == [
        "A", "B", "D"]


def test_only_the_family_base_and_two_corners_subclass_model_elt():
    assert model_classes([p.read_text(encoding="utf-8") for p in SRC]) == [
        "GElt", "L2Elt", "UElt"]
