"""The product construction: corner modules, closed-form maps, end algebra.

The product of the standard two-object 2-representation with an input
representation V is presented by a 2x2 corner decomposition.  Every corner
of the one-step functors and of their squares is a finite sum of word
modules over V, on which the central variable y acts by scalars, except the
constrained square corner, which is handled elementwise.  Each EF-ordered
corner sum is the tensor of two end-algebra corners C, ``T_FACTORS``, in
the order given there; :func:`c_bases` is the one basis of C.  This is the
matrix side; every elementwise operation, C's product included, is in
``models``.  The product works on V itself and shares its memo.
"""

from __future__ import annotations

import functools
import itertools

from ..bimodcat import (BimoduleMap, SumBimodule, compose, compose_all,
                        direct_sum_maps, identity_map, record)
from ..matrixops import ShapeMismatchError
from ..polyring import Poly
from ..tworep import _memoized, check_hypotheses, self_pow, sigma, xi_eta
from .elements import NotInModelError, basis_elt
from .models import CORNER_MODELS, act_G1_on_G2, c_mult, one_G1

# Corner order of the commutator maps and of the reports.
CORNERS = ("11", "21", "12", "22")
# Summand words of the end-algebra corners C_c: the codomains of the
# evaluation pairings and the domains of the coevaluation pairings.
C_WORDS = {"11": ("",), "21": ("F",), "12": ("E",), "22": ("", "FE")}
# The end-algebra corners of the left and right factors of each EF-ordered
# corner sum (the domains of the commutator maps; the FE-ordered sums are
# the model layouts).  The sum is their tensor: its summands are the words
# l + r, left summand outer, and corner 22 adds the mixed summand EF.
T_FACTORS = {"11": ("12", "21"), "21": ("22", "21"), "12": ("12", "22"),
             "22": ("22", "22")}
T_WORDS = {c: tuple(l + r for l in C_WORDS[a] for r in C_WORDS[b])
           + ("EF",) * (c == "22") for c, (a, b) in T_FACTORS.items()}
# A corner of the weight-lam commutator map lives at internal weight
# lam + MU_SHIFT[corner].
MU_SHIFT = {"11": +1, "21": +1, "12": -1, "22": -1}


def word_sum(r, words):
    """The direct sum of the word modules of ``words``."""
    return SumBimodule([r.word(w) for w in words])


class ProductRep:
    """The assembled product data over an input representation V.  ``Vy`` is
    V itself, whose memo holds the word modules and y-operators."""

    def __init__(self, V):
        self.Vy = r = V
        self._cache: dict = {}
        # domain sums for the EF-ordered corners
        self.T = {c: word_sum(r, words) for c, words in T_WORDS.items()}
        # codomain sums for the FE-ordered corners (the model corner sums)
        self.S = {c: word_sum(r, m.words()) for c, m in CORNER_MODELS.items()}
        # the end-algebra corners
        self.C = {c: word_sum(r, words) for c, words in C_WORDS.items()}

    # -- small helpers ----------------------------------------------------
    def weights(self):
        return sorted(self.Vy.A.weights())

    def c_weights(self):
        supp = set(self.Vy.A.weights())
        return sorted({w - 1 for w in supp} | {w + 1 for w in supp})

    def vec_to_model(self, corner, w, vec):
        """The model element of a corner whose concatenated coordinates are
        ``vec``."""
        return CORNER_MODELS[corner].from_vec(self.Vy, w, vec)

    @_memoized
    def sum_basis(self, corner, w):
        """Model elements forming the standard basis of an S-corner at w."""
        n = self.S[corner].rank(w)
        field = self.Vy.A.field
        return tuple(self.vec_to_model(corner, w, [
            Poly.one(field) if i == k else Poly.zero(field)
            for i in range(n)]) for k in range(n))


def build_product(V) -> ProductRep:
    """Assemble the product over V; :func:`check_construction` verifies it."""
    return ProductRep(V)


def check_construction(P: ProductRep) -> dict:
    """The construction gate: the input hypotheses on every weight of the
    input's support, then the end algebra's right-module law.
    The witness names the first of these that fails, or the product that
    leaves G(1), as given duality data that are no adjunction can make it."""
    supp = P.weights()
    window = (supp[0], supp[-1]) if supp else (0, -1)
    bad = [r["check"] for r in check_hypotheses(P.Vy, window)
           if r["status"] != "pass"]
    try:
        witness = ("input hypotheses fail: " + "; ".join(bad) if bad
                   else _check_end_algebra(P))
    except NotInModelError as e:
        witness = f"end algebra product leaves G(1): {e}"
    return record("construction checks (end algebra, actions)",
                  witness is None, witness)


# ---------------------------------------------------------------------------
# the end algebra C
# ---------------------------------------------------------------------------

def c_bases(P: ProductRep, corner: str, w: int):
    """The standard basis of an end-algebra corner at source weight w, one
    tuple per summand word of ``C_WORDS[corner]``.  C_22 is the model G(1)
    of the S-corner 11, so its basis is that corner's, split at its one
    summand ""; the other corners are one word module each."""
    r = P.Vy
    if corner == "22":
        n, flat = r.word("").rank(w), P.sum_basis("11", w)
        return flat[:n], flat[n:]
    word, = C_WORDS[corner]
    n = r.word(word).rank(w)
    return (tuple(basis_elt(r, word, w, k) for k in range(n)),)


def c_basis(P: ProductRep, corner: str, w: int):
    """C's basis at source weight w: the summands of :func:`c_bases`."""
    return [e for es in c_bases(P, corner, w) for e in es]


def _right_law(act, mult, m, a, b) -> bool:
    """C's right-module law (m.a).b = m.(ab) on one triple: acting by a,
    then by b, is acting by ``mult(a, b)``, the product that applies a
    first (the order convention of :mod:`~sl2prod.product.models`)."""
    return act(act(m, a), b) == act(m, mult(a, b))


def _check_end_algebra(P: ProductRep):
    """:func:`_right_law` on basis elements at each c-weight: with m in C,
    where it is associativity, then with m in the degree +1 corner under
    ``act_G1_on_G2``, after the unit law m.1 = m.  The witness of the first
    failure, or None.  Elements of C are held with their corners, and each
    product of C is formed once per weight, on first use."""
    for c in P.c_weights():
        basis = {k: [(k, e) for e in c_basis(P, k, c + MU_SHIFT[k])]
                 for k in CORNERS}

        @functools.cache
        def mult(x, a):
            (cx, ex), (ca, ea) = x, a
            return cx[0] + ca[1], c_mult(cx, ex, ca, ea)
        for ca, cb, cc in itertools.product(CORNERS, repeat=3):
            if (ca[1], cb[1]) == (cb[0], cc[0]) and not all(
                    _right_law(mult, mult, m, a, b) for m in basis[ca]
                    for a in basis[cb] for b in basis[cc]):
                return ("end algebra associativity fails "
                        f"at weight {c}: ({ca})({cb})({cc})")
        w = c + MU_SHIFT["22"]
        if w not in P.Vy.A:
            continue
        one = one_G1(P.Vy, w)
        for g in P.sum_basis("12", w):
            if act_G1_on_G2(g, one) != g:
                return f"unit action fails on degree +1 corner at weight {c}"
            if not all(_right_law(lambda h, x: act_G1_on_G2(h, x[1]), mult,
                                  g, a, b)
                       for a in basis["22"] for b in basis["22"]):
                return f"action compatibility fails at weight {c}"


# ---------------------------------------------------------------------------
# closed forms: single-step and power maps, crossing
# ---------------------------------------------------------------------------

def tilde_x_pow(P: ProductRep, i: int) -> BimoduleMap:
    """The i-th power of the dot map on the degree +1 corner, in closed form.

    A power x_k^i at one factor is h_i of the single variable x_k."""
    r = P.Vy
    yi = Poly.var(r.A.field, "y") ** i
    entries = {
        (0, 0): self_pow(r, i),
        (0, 1): -r.h_xy("E", i - 1, [1]),
        (1, 1): r.scalar("E", yi),
        (2, 0): compose(r.h_xy("FEE", i - 1, [1, 2], extra_y=False),
                        r.eta_at("E", 0)),
        (2, 1): -compose(r.h_xy("FEE", i - 2, [1, 2]), r.eta_at("E", 0)),
        (2, 2): r.h_xy("FEE", i, [2], extra_y=False),
    }
    return direct_sum_maps(P.S["12"], P.S["12"], entries)


def tilde_tau(P: ProductRep, corner: str) -> BimoduleMap:
    """The crossing on a free square corner as a matrix map.  Corner 22,
    the model G(3), has the elementwise crossing
    :func:`~sl2prod.product.models.tau22`."""
    r = P.Vy
    if corner == "11":
        return r.tau_at("EE", 1)
    if corner == "12":
        return r.tau_at("EEE", 2)
    if corner == "21":
        entries = {
            (1, 0): identity_map(r.word("E")),
            (2, 2): r.tau_at("FEE", 1),
        }
        return direct_sum_maps(P.S["12"], P.S["12"], entries)
    raise ShapeMismatchError(f"unknown corner {corner}")


# ---------------------------------------------------------------------------
# closed forms: commutator corner maps
# ---------------------------------------------------------------------------

@_memoized
def tilde_sigma_closed(P: ProductRep, corner: str) -> BimoduleMap:
    """The commutator natural map on a corner, in closed matrix form."""
    r = P.Vy
    sig = sigma(r)
    if corner == "11":
        return direct_sum_maps(P.T["11"], P.S["11"],
                               {(0, 0): r.eps, (1, 0): sig})
    if corner == "21":
        entries = {
            (0, 0): identity_map(r.word("F")),
            (1, 1): r.eps_at("FEF", 1),
            (2, 1): r.lift(sig, "EF", "FE", "F", ""),
        }
        return direct_sum_maps(P.T["21"], P.S["21"], entries)
    if corner == "12":
        epsE = r.eps_at("EFE", 0)
        entries = {
            (0, 1): epsE,
            (1, 0): identity_map(r.word("E")),
            (1, 1): compose(r.y_at("E", 1), epsE),
            (2, 1): r.lift(sig, "EF", "FE", "", "E"),
        }
        return direct_sum_maps(P.T["12"], P.S["12"], entries)
    if corner == "22":
        FepsE = r.eps_at("FEFE", 1)
        entries = {
            (0, 2): identity_map(r.word("FE")),
            (0, 3): compose(r.y_at("FE", 1), FepsE),
            (1, 3): FepsE,
            (2, 0): r.eta,
            (2, 1): r.y_at("FE", 1),
            (2, 4): sig,
            (3, 1): identity_map(r.word("FE")),
            (4, 3): r.lift(sig, "EF", "FE", "F", "E"),
        }
        return direct_sum_maps(P.T["22"], P.S["22"], entries)
    raise ShapeMismatchError(f"unknown corner {corner}")


def _theta_entry(P: ProductRep, i: int) -> BimoduleMap:
    """The corner entry EF -> FE built from the double insertion."""
    r = P.Vy
    m1 = r.eta_at("EF", 0)                       # EF -> FEEF
    mid = compose(r.tau_at("FEEF", 1),
                  r.h_xy("FEEF", i - 1, [1, 2], extra_y=False))
    mid = mid + r.h_xy("FEEF", i - 2, [1, 2])
    m3 = r.eps_at("FEEF", 2)                     # FEEF -> FE
    return -compose_all(m3, mid, m1)


def _eps_x_y(r, i: int, lw: str, rw: str) -> BimoduleMap:
    """The evaluation eps . x^i . y_1 : EF -> A lifted to lw + EF + rw, as
    the composite of its factors on the longer word (lifting is
    functorial)."""
    w = lw + "EF" + rw
    k = rw.count("E") + 1  # the E of the pair, counted from the right
    return compose_all(r.eps_at(w, len(lw)),
                       r.h_xy(w, i, [k], extra_y=False), r.y_at(w, k))


def _h_eta(r, i: int, lw: str, rw: str) -> BimoduleMap:
    """The coevaluation h_(i-1)(x, y) . eta : A -> FE lifted to
    lw + FE + rw, as the composite of its factors on the longer word."""
    k = rw.count("E") + 1  # the E of the pair, counted from the right
    return compose(r.h_xy(lw + "FE" + rw, i - 1, [k]),
                   r.eta_at(lw + rw, len(lw)))


@_memoized
def eps_xi_F_closed(P: ProductRep, i: int, corner: str) -> BimoduleMap:
    """Closed form of the i-th evaluation pairing on a corner."""
    r = P.Vy
    field = r.A.field
    yi = Poly.var(field, "y") ** i
    # evaluation against i dots and one framing dot: EF -> A
    if corner == "11":
        return _eps_x_y(r, i, "", "")
    if corner == "21":
        entries = {
            (0, 0): r.xF_pow(i, ""),
            (0, 1): _eps_x_y(r, i, "F", ""),
        }
        return direct_sum_maps(P.T["21"], P.C["21"], entries)
    if corner == "12":
        entries = {
            (0, 0): self_pow(r, i),
            (0, 1): _eps_x_y(r, i, "", "E"),
        }
        return direct_sum_maps(P.T["12"], P.C["12"], entries)
    if corner == "22":
        entries = {
            (0, 0): r.scalar("", yi),
            (0, 4): -compose(r.eps, r.h_xy("EF", i - 1, [1])),
            (1, 0): _h_eta(r, i, "", ""),
            (1, 1): r.xF_pow(i, "E"),
            (1, 2): r.h_xy("FE", i, [1], extra_y=False),
            (1, 3): _eps_x_y(r, i, "F", "E"),
            (1, 4): _theta_entry(P, i),
        }
        return direct_sum_maps(P.T["22"], P.C["22"], entries)
    raise ShapeMismatchError(f"unknown corner {corner}")


@_memoized
def F_xi_eta_closed(P: ProductRep, i: int, corner: str) -> BimoduleMap:
    """Closed form of the i-th coevaluation pairing on a corner."""
    r = P.Vy
    field = r.A.field
    yi = Poly.var(field, "y") ** i
    if corner == "11":
        entries = {(0, 0): r.scalar("", yi), (1, 0): _h_eta(r, i, "", "")}
        return direct_sum_maps(P.C["11"], P.S["11"], entries)
    if corner == "21":
        entries = {
            (1, 0): r.scalar("F", yi),
            (2, 0): _h_eta(r, i, "F", ""),
        }
        return direct_sum_maps(P.C["21"], P.S["21"], entries)
    if corner == "12":
        entries = {
            (0, 0): r.scalar("E", yi),
            (1, 0): compose(r.y_at("E", 1), r.scalar("E", yi)),
            (2, 0): _h_eta(r, i, "", "E"),
        }
        return direct_sum_maps(P.C["12"], P.S["12"], entries)
    if corner == "22":
        eta2 = compose(r.eta_at("FE", 1), r.eta)   # "" -> FFEE
        op = compose(r.h_xy("FFEE", i - 1, [1, 2], extra_y=False),
                     r.tau_at("FFEE", 1))
        op = op - r.h_xy("FFEE", i - 2, [1, 2])
        entries = {
            (0, 0): compose(r.scalar("FE", yi), r.eta),
            (0, 1): compose(r.scalar("FE", yi), r.y_at("FE", 1)),
            (1, 0): -_h_eta(r, i, "", ""),
            (1, 1): r.scalar("FE", yi),
            (3, 0): xi_eta(r, i),
            (4, 0): compose(op, eta2),
            (4, 1): compose(r.h_xy("FFEE", i - 1, [2]),
                            r.eta_at("FE", 1)),
        }
        return direct_sum_maps(P.C["22"], P.S["22"], entries)
    raise ShapeMismatchError(f"unknown corner {corner}")
