"""One module applies maps to elements: no module under ``src/`` other than
``product/elements.py`` names ``apply_map``.

Everywhere else an element applies the positional operators of its own
word (``v.x(i)``, ``v.y(i)``, ``v.tau(i)``, ``v.eta(pos)``,
``v.tau_mate()``), so the word is never restated beside the element that
carries it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OWNER = ROOT / "src" / "sl2prod" / "product" / "elements.py"
SRC = sorted(p for p in ROOT.glob("src/sl2prod/**/*.py") if p != OWNER)


def apply_map_names(source):
    """The line numbers at which ``source`` names ``apply_map``: as a name,
    an attribute or an import."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id == "apply_map"
        or isinstance(node, ast.Attribute) and node.attr == "apply_map"
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any(a.name.split(".")[-1] == "apply_map" for a in node.names))


def test_finds_every_naming():
    source = ("from .elements import Elt, apply_map\n"
              "from . import elements\n"
              "def f(r, v):\n"
              "    return apply_map(r.y_at('E', 1), v, 'E')\n"
              "def g(r, v):\n"
              "    return elements.apply_map(r.eta, v, 'FE')\n"
              "def h(v):\n"
              "    return v.y(1)\n")
    assert apply_map_names(source) == [1, 4, 6]


@pytest.mark.parametrize("path", SRC,
                         ids=[str(p.relative_to(ROOT)) for p in SRC])
def test_only_elements_applies_maps(path):
    assert apply_map_names(path.read_text(encoding="utf-8")) == []
