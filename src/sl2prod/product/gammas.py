"""The lower-right mixed component of the E-F square.

On the constrained corner, the pairing of a degree +1 and a degree -1
element has a component onto the (A, FE, FE, FEFE) summands that is linear
over the off-diagonal end data.  ``omega3_map`` presents it as an explicit
block matrix, ``pack_G2L2`` lays out a decomposable tensor in its domain,
and ``omega3_apply`` applies it.
"""

from __future__ import annotations

from ..bimodcat import BimoduleMap, compose, direct_sum_maps
from ..tworep import _memoized, sigma
from .elements import Elt, elem_tensor
from .models import GElt, L2Elt
from .core import ProductRep, word_sum

# Summand words of the mixed component's codomain.
G1G1 = ("", "FE", "FE", "FEFE")


@_memoized
def omega3_map(P: ProductRep) -> BimoduleMap:
    """The lower-right mixed component as an explicit block matrix map, built
    once per product."""
    r = P.Vy
    sig = sigma(r)
    eps = r.eps
    y1 = r.y_at("EF", 1)
    sig_y = compose(sig, y1)
    eps_y = compose(eps, y1)
    dom = word_sum(r, ["EF"] * 4 + ["EFFE"] * 2 + ["FEEF"] * 2 + ["FEEFFE"])
    cod = word_sum(r, G1G1)
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


def pack_G2L2(g: GElt, l: L2Elt):
    """Coordinates of a decomposable tensor in the mixed-component domain."""
    return [
        elem_tensor(g.q1, l.fp), elem_tensor(g.q1, l.f),
        elem_tensor(g.d0, l.fp), elem_tensor(g.d0, l.f),
        elem_tensor(g.q1, l.rho1), elem_tensor(g.d0, l.rho1),
        elem_tensor(g.last, l.fp), elem_tensor(g.last, l.f),
        elem_tensor(g.last, l.rho1),
    ]


def omega3_apply(P: ProductRep, g: GElt, l: L2Elt):
    """Apply the mixed component to a decomposable tensor; returns the four
    coordinate elements of the target sum."""
    r = P.Vy
    w = l.weight
    flat = omega3_map(P).matrix(w).apply(
        [v for p in pack_G2L2(g, l) for v in p.vec])
    res = []
    for word in G1G1:
        n = r.word(word).rank(w)
        res.append(Elt(r, word, w, flat[:n]))
        flat = flat[n:]
    return res
