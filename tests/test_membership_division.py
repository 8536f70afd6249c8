"""Exact division by the operators y_i = x_i - y of a word module.

``solve_op`` divides by back-substitution in y.  These tests hold it to a
reference that divides by a determinant instead: the adjugate of y_i
applied to the datum, each coordinate divided exactly by det(y_i), then
checked.  The two must agree on members and on perturbed non-members, on
L(1), on the input with x = 2u, and on a rank-two E whose dot is a
non-scalar companion matrix, over QQ and GF(7).
"""

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sl2prod.matrixops import adjugate, bareiss_determinant
from sl2prod.polyring import NotDivisibleError, Poly, dot, exact_divide
from sl2prod.product.elements import Elt, NotInModelError, solve_op
from sl2prod.tworep import make_L1, rep_from_json

from test_bimodcat import FIELDS, polys_in, rank_two_rep

L1_X2U = Path(__file__).parent / "golden" / "l1_x2u.json"
WORDS = ("E", "EF", "FE", "EFE")


def companion_rep(field):
    """A rank-two E at weight -1 on which u, x3 and x4 act as themselves
    times the identity, with the dot x = [[0, -x4], [1, x3]]."""
    z, one = Poly.zero(field), Poly.one(field)
    x3, x4 = Poly.var(field, "x3"), Poly.var(field, "x4")
    return rank_two_rep([[z, -x4], [one, x3]], field, ("u", "x3", "x4"))


@functools.lru_cache(maxsize=None)
def reps(field):
    return (make_L1(field),
            rep_from_json(json.loads(L1_X2U.read_text()), field),
            companion_rep(field))


def places(rep):
    """Every (word, factor, weight) at which y_i acts on a nonzero module."""
    return [(w, i, lam) for w in WORDS for i in range(1, w.count("E") + 1)
            for lam in rep.word(w).weights() if rep.word(w).rank(lam)]


@functools.lru_cache(maxsize=None)
def determinant_data(rep, word, i, lam):
    m = rep.y_at(word, i).matrix(lam)
    return m, bareiss_determinant(m), adjugate(m)


def reference_solve(elt, i):
    """The coordinates of v with v.y(i) == elt, by the adjugate and exact
    division by the determinant of y_i, or None when elt is no image."""
    field = elt.rep.A.field
    m, det, adj = determinant_data(elt.rep, elt.word, i, elt.weight)
    try:
        out = [exact_divide(dot(zip(row, elt.vec), field), det)
               for row in adj.entries]
    except NotDivisibleError:
        return None
    return (out if [dot(zip(row, out), field) for row in m.entries]
            == elt.vec else None)


def solved(elt, i):
    try:
        return solve_op(elt, i).vec
    except NotInModelError:
        return None


@st.composite
def elements(draw, field):
    """A rep, a factor i and an element v of one of its word modules, with
    coordinates in the weight ring's generators and y."""
    rep = draw(st.sampled_from(reps(field)))
    word, i, lam = draw(st.sampled_from(places(rep)))
    coords = polys_in(*rep.A.support[lam], "y", field=field)
    vec = draw(st.lists(coords, min_size=rep.word(word).rank(lam),
                        max_size=rep.word(word).rank(lam)))
    return Elt(rep, word, lam, vec), i


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_division_inverts_y_and_agrees_with_the_adjugate(field, data):
    v, i = data.draw(elements(field))
    member = v.y(i)
    assert solve_op(member, i) == v
    assert reference_solve(member, i) == v.vec

    # a perturbation with y may or may not leave the image; both routes
    # must decide it alike
    k = data.draw(st.integers(0, len(v.vec) - 1))
    lam_gens = v.rep.A.support[v.weight]
    p = data.draw(polys_in(*lam_gens, "y", field=field))
    datum = Elt(v.rep, v.word, v.weight,
                [q + p if j == k else q for j, q in enumerate(member.vec)])
    assert solved(datum, i) == reference_solve(datum, i)

    # a nonzero y-free perturbation always leaves the image: the top
    # y-coefficient of (x_i - y) w is -w's top coefficient, so no nonzero
    # w has a y-free image
    c = data.draw(polys_in(*lam_gens, field=field).filter(
        lambda q: not q.is_zero()))
    datum = Elt(v.rep, v.word, v.weight,
                [q + c if j == k else q for j, q in enumerate(member.vec)])
    with pytest.raises(NotInModelError,
                       match="membership division leaves a remainder"):
        solve_op(datum, i)
    assert reference_solve(datum, i) is None
