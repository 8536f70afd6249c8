"""The lower-right mixed component of the E-F square.

On the constrained corner, the pairing of a degree +1 and a degree -1
element has a component onto the (A, FE, FE, FEFE) summands that is linear
over the off-diagonal end data.  ``omega3_map`` presents it as an explicit
block matrix, ``pack_G2L2`` lays out a decomposable tensor in its domain,
and ``omega3_apply`` applies it.
"""

from __future__ import annotations

from ..bimodcat import BimoduleMap, SumBimodule, compose, direct_sum_maps
from ..matrixops import Matrix
from ..polyring import Poly
from ..tworep import _memoized, sigma
from .elements import Elt, elem_tensor
from .models import G2Elt, L2Elt
from .core import ProductRep


def omega3_map(P: ProductRep) -> BimoduleMap:
    """The lower-right mixed component as an explicit block matrix map, built
    once per representation."""
    return _omega3_map(P.Vy)


@_memoized
def _omega3_map(r) -> BimoduleMap:
    sig = sigma(r)
    eps = r.eps
    y1 = r.y_at("EF", 1)
    sig_y = compose(sig, y1)
    eps_y = compose(eps, y1)
    dom = SumBimodule([r.word("EF")] * 4 + [r.word("EFFE")] * 2
                      + [r.word("FEEF")] * 2 + [r.word("FEEFFE")],
                      name="G2L2")
    cod = SumBimodule([r.word(""), r.word("FE"), r.word("FE"),
                       r.word("FEFE")], name="G1G1")
    entries = {
        (0, 0): eps,
        (0, 3): eps,
        (1, 0): sig,
        (1, 5): r.eps_at("EFFE", 0),
        (2, 1): -sig_y,
        (2, 3): sig,
        (2, 6): r.eps_at("FEEF", 2),
        (2, 7): compose(r.eps_at("FEEF", 2), r.y_at("FEEF", 1)),
        (3, 4): -r.lift(sig_y, "EF", "FE", "", "FE"),
        (3, 5): r.lift(sig, "EF", "FE", "", "FE"),
        (3, 6): r.lift(sig, "EF", "FE", "FE", ""),
        (3, 8): r.lift(eps_y, "EF", "", "FE", "FE"),
    }
    return direct_sum_maps(dom, cod, entries)


def pack_G2L2(P: ProductRep, g: G2Elt, l: L2Elt):
    """Coordinates of a decomposable tensor in the mixed-component domain."""
    return [
        elem_tensor(g.a, l.fp), elem_tensor(g.a, l.f),
        elem_tensor(g.b, l.fp), elem_tensor(g.b, l.f),
        elem_tensor(g.a, l.rho1), elem_tensor(g.b, l.rho1),
        elem_tensor(g.c, l.fp), elem_tensor(g.c, l.f),
        elem_tensor(g.c, l.rho1),
    ]


def omega3_apply(P: ProductRep, g: G2Elt, l: L2Elt):
    """Apply the mixed component to a decomposable tensor; returns the four
    coordinate elements of the target sum."""
    r = P.Vy
    w = l.weight
    parts = pack_G2L2(P, g, l)
    field = r.A.field
    vec = []
    for p in parts:
        vec.extend(p.vec)
    mat = omega3_map(P).matrix(w)
    if vec:
        col = Matrix.from_rows(field, [[v] for v in vec])
        out = mat @ col
        flat = [out[i, 0] for i in range(out.nrows)]
    else:
        flat = [Poly.zero(field)] * mat.nrows
    words = ["", "FE", "FE", "FEFE"]
    res = []
    for word in words:
        n = r.word(word).rank(w)
        res.append(Elt(r, word, w, flat[:n]))
        flat = flat[n:]
    return res
