"""One corner model family, and one owner of its elementwise calculus.

Under ``src/``, the only ``ModelElt`` subclasses written out as class
statements are ``GElt``, the base of the family G(n) that ``models.G``
makes from n, ``L2Elt`` and ``UElt``.  A corner of a power of E whose last
word is FE^n is G(n), so a new such corner needs no new class.

Every elementwise corner operation (C's product ``c_mult``, the crossings,
the dot steps, the composites, the actions and the gamma pairings) is
defined in ``product/models.py`` only, and takes only its operands: no
parameter ``P`` and no ``ProductRep``.  ``c_mult`` and each composite and
action say which argument they apply first, citing the one order
convention in the models docstring.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
MODELS = "sl2prod/product/models.py"
CORNER_NAMES = {"c_mult", "tau21", "tau22", "tilde_x_step_21",
                "tilde_x_step_22"}
CORNER_PREFIXES = ("compose_", "act_", "gamma")
# a composite of maps and the nil-Hecke action on polynomials, which share
# a prefix with the corner operations but act on no corner element
NOT_CORNER = {("sl2prod/bimodcat.py", "compose_all"),
              ("sl2prod/nilhecke.py", "act_on_poly")}


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


def corner_operations(path, source):
    """The corner operations that ``source``, the file ``path`` under
    ``src/``, defines, each with its parameter names and annotations."""
    ops = {}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.FunctionDef)
                and (node.name in CORNER_NAMES
                     or node.name.startswith(CORNER_PREFIXES))
                and (path, node.name) not in NOT_CORNER):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            ops[node.name] = ([p.arg for p in params],
                              [ast.unparse(p.annotation) for p in params
                               if p.annotation])
    return ops


def test_finds_every_corner_operation():
    source = ("def c_mult(P, ca, a, cb, b):\n    pass\n\n"
              "def compose_all(*maps):\n    pass\n\n"
              "class K:\n    def act_on_U(self, u: 'ProductRep'):\n"
              "        pass\n\n"
              "def gamma9(x):\n    pass\n\n"
              "def tau(x):\n    pass\n")
    assert corner_operations("sl2prod/bimodcat.py", source) == {
        "c_mult": (["P", "ca", "a", "cb", "b"], []),
        "act_on_U": (["self", "u"], ["'ProductRep'"]),
        "gamma9": (["x"], [])}


def sources():
    return {p.relative_to(ROOT / "src").as_posix(): p.read_text(
        encoding="utf-8") for p in SRC}


def test_corner_operations_are_defined_only_in_models():
    found = {path: sorted(corner_operations(path, source))
             for path, source in sources().items()}
    assert {path: ops for path, ops in found.items() if ops} == {
        MODELS: found[MODELS]}
    assert CORNER_NAMES <= set(found[MODELS])


def test_corner_operations_take_only_their_operands():
    ops = corner_operations(MODELS, sources()[MODELS])
    assert [name for name, (params, notes) in ops.items()
            if "P" in params or any("ProductRep" in n for n in notes)] == []


def test_order_bearing_operations_cite_the_order_convention():
    tree = ast.parse(sources()[MODELS])
    assert "Order convention." in ast.get_docstring(tree)
    docs = {node.name: " ".join((ast.get_docstring(node) or "").split())
            for node in tree.body if isinstance(node, ast.FunctionDef)
            and (node.name == "c_mult"
                 or node.name.startswith(("compose_", "act_")))}
    assert len(docs) == 9
    assert [name for name, doc in docs.items()
            if "applied first" not in doc
            or "order convention" not in doc] == []
