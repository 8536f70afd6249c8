"""The product on L(2), ``tests/golden/l2.json``: its corner 22 is
non-empty at lambda < 0, and its E has rank 2 at weight -2.

L(2) fails the construction gate on hypothesis (b) (ROADMAP item 2), so
these tests pass the gate by hand and pin what the product suites then
report, what the gate's end-algebra checks find, the identities the
coevaluation oracle could use, and the branches of the triangular
certificate that L(1) and L(2) reach.
"""

import json
from pathlib import Path

import pytest

from sl2prod import cli
from sl2prod.bimodcat import record
from sl2prod.polyring import make_field
from sl2prod.product import core
from sl2prod.product import rho as rho_mod
from sl2prod.product.core import (MU_SHIFT, _check_end_algebra, _right_law,
                                  build_product, c_bases, c_basis)
from sl2prod.product.models import (G, act_G1_on_G2, act_G1_on_U,
                                    act_L2_on_L2_left, c_mult,
                                    compose_G1_after_L2, gamma21_EE_G1E,
                                    one_G1, tilde_x_step_21, tilde_x_step_22)
from sl2prod.product.elements import basis_elt
from sl2prod.product.oracles import _eta_pairs
from sl2prod.tworep import make_L1, rep_from_json

GOLDEN = Path(__file__).parent / "golden"
FIELDS = ("QQ", "7")


def load(name, spec="QQ"):
    field = make_field(spec)
    if name == "L1":
        return make_L1(field)
    return rep_from_json(json.loads((GOLDEN / name).read_text()), field)


def power(step, g, i):
    for _ in range(i):
        g = step(g)
    return g


@pytest.mark.parametrize("spec", FIELDS)
def test_build_product_records_on_l2(monkeypatch, spec):
    # past a bypassed gate, 58 of the 60 records pass; corner 22's dot
    # relations are not implemented, and its crossing oracle's claim fails
    # at one mixed column (ROADMAP item 2 step 3)
    monkeypatch.setattr(cli, "check_construction", lambda P: record(
        "construction checks (end algebra, actions)", True))
    _, records = cli.suite_build_product(load("l2.json", spec), 4)
    assert len(records) == 60
    assert [(r["check"], r["witness"]) for r in records
            if r["status"] != "pass"] == [
        ("product hecke: hecke[22]: dot relations",
         "nonzero corner: dot relations not implemented"),
        ("crossing closed = oracle, corner 22",
         "weight 0, column 9: decomposable presentation of the crossed "
         "image does not match")]


def old_nesting(act, mult, m, a, b):
    """The gate as it was: associativity as now, but the action of C_22 on
    the degree +1 corner checked as (m.b).a = m.(ab), the right-module law
    of the opposite product."""
    first, then = (a, b) if act is mult else (b, a)
    return act(act(m, first), then) == act(m, mult(a, b))


def action_failures(P, law):
    """The action of C_22 on the degree +1 corner triple by triple: the
    (c, g, a, b) basis indices, c the weight of C, that fail ``law``, and
    the number of triples."""
    fails, triples = [], 0
    for c in P.c_weights():
        w = c + MU_SHIFT["22"]
        if w not in P.Vy.A:
            continue
        c22 = [("22", e) for e in c_basis(P, "22", w)]
        for k, g in enumerate(P.sum_basis("12", w)):
            for i, a in enumerate(c22):
                for j, b in enumerate(c22):
                    triples += 1
                    if not law(lambda h, x: act_G1_on_G2(h, x[1]),
                               lambda x, y: ("22", c_mult(*x, *y)), g, a, b):
                        fails.append((c, k, i, j))
    return fails, triples


def non_commuting_pairs(P):
    """The (c, i, j) of the basis pairs of C_22 that do not commute, and the
    number of pairs."""
    pairs = [(c, i, j, a, b) for c in P.c_weights()
             for i, a in enumerate(c_basis(P, "22", c + MU_SHIFT["22"]))
             for j, b in enumerate(c_basis(P, "22", c + MU_SHIFT["22"]))]
    return ([(c, i, j) for c, i, j, a, b in pairs
             if c_mult("22", a, "22", b) != c_mult("22", b, "22", a)],
            len(pairs))


@pytest.mark.parametrize("spec", FIELDS)
def test_gate_end_algebra_checks_on_l2(monkeypatch, spec):
    # below the (b) records that stop the gate, C's right-module law holds
    # on L(2), on all 90 action triples; the old nesting fails on the two
    # orderings of the one non-commuting pair of C_22
    P = build_product(load("l2.json", spec))
    assert _check_end_algebra(P) is None
    assert action_failures(P, _right_law) == ([], 90)
    assert action_failures(P, old_nesting) == (
        [(1, 1, 1, 2), (1, 1, 2, 1)], 90)
    monkeypatch.setattr(core, "_right_law", old_nesting)
    assert _check_end_algebra(P) == "action compatibility fails at weight 1"


def order_failures(triples):
    """Of (lhs, opposite, rhs) triples, the number whose law fails in C's
    order (lhs != rhs), and in the opposite order (opposite != rhs)."""
    triples = list(triples)
    return (sum(lhs != rhs for lhs, _, rhs in triples),
            sum(opp != rhs for _, opp, rhs in triples), len(triples))


@pytest.mark.parametrize("spec", FIELDS)
def test_other_actions_follow_c_order_on_l2(spec):
    # the order convention of models: the right actions of C_22 on the
    # square and degree -1 corners, and the left action of its FE
    # coordinate on the degree -1 corner, are actions of C's product.  On
    # L(2) each module law holds, and its opposite fails
    P = build_product(load("l2.json", spec))
    r = P.Vy

    def mult(a, b):
        return c_mult("22", a, "22", b)

    def right(act, ms, cs):
        return ((act(act(m, a), b), act(act(m, b), a), act(m, mult(a, b)))
                for m in ms for a in cs for b in cs)

    def on_l2(l, g):
        return compose_G1_after_L2(g, l)

    def phi_mult(a, b):
        ab = mult(G(1)(r, a.weight, last=a), G(1)(r, b.weight, last=b))
        assert ab.d0.is_zero()
        return ab.last
    ws = P.C["22"].weights()
    assert order_failures(t for w in ws for t in right(
        act_G1_on_U, P.sum_basis("22", w), c_basis(P, "22", w))) == (
            0, 8, 180)
    assert order_failures(t for w in ws for t in right(
        on_l2, P.sum_basis("21", w), c_basis(P, "22", w))) == (0, 4, 40)
    left = act_L2_on_L2_left
    phis = {w: [basis_elt(r, "FE", w - 2, j)
                for j in range(r.word("FE").rank(w - 2))] for w in P.weights()}
    assert order_failures(
        (left(a, left(b, l)), left(b, left(a, l)), left(phi_mult(a, b), l))
        for w in P.weights() for l in P.sum_basis("21", w)
        for a in phis[w] for b in phis[w]) == (0, 6, 32)


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("name, found", [
    ("L1", ([], 5)), ("l2.json", ([(1, 1, 2), (1, 2, 1)], 19))])
def test_end_algebra_corner_22_commutators(name, found, spec):
    # C_22 commutes at every weight of L(1), so no L(1) run can tell the
    # order of its product; on L(2) one pair at c = 1 does not commute
    assert non_commuting_pairs(build_product(load(name, spec))) == found


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("name, cases", [("L1", (7, 28)),
                                         ("l2.json", (21, 126))])
def test_dots_commute_with_the_coevaluation_starts(name, cases, spec):
    # the "one orbit" form of the coevaluation oracle: x^i of gamma_21(1, e)
    # is gamma_21 of x^i of the unit, and x^i of g . c is x^i of g, acted on
    # by c.  Both hold here; the oracle steps each start instead, which
    # takes fewer term products
    P = build_product(load(name, spec))
    r = P.Vy
    unit_cases = act_cases = 0
    for i in range(7):
        for w in P.weights():
            for k in range(r.word("E").rank(w)):
                e, one = basis_elt(r, "E", w, k), one_G1(r, w + 2)
                unit_cases += 1
                assert (power(tilde_x_step_22, gamma21_EE_G1E(one, e), i)
                        == gamma21_EE_G1E(power(tilde_x_step_21, one, i),
                                          e)), (w, k, i)
            for _, g, _ in _eta_pairs(P, w):
                gi = power(tilde_x_step_22, g, i)
                for cs in c_bases(P, "22", w):
                    for c in cs:
                        act_cases += 1
                        assert (power(tilde_x_step_22, act_G1_on_G2(g, c), i)
                                == act_G1_on_G2(gi, c)), (w, i)
    assert (unit_cases, act_cases) == cases


def sign(corner, lam):
    if corner == "22":
        return (lam > 0) - (lam < 0)
    return int(lam >= 0)


def layout_branches(name):
    """The branches of ``rho._layout`` that certify a non-empty corner
    matrix on the named input, for lambda in -6..6: (corner, sign), the
    sign 1 or 0 for lambda >= 0 or < 0, and -1, 0 or 1 on corner 22."""
    P = build_product(load(name))
    layout, seen = rho_mod._layout, set()

    def recording(corner, lam):
        m = rho_mod._corner_rho(P, corner, lam).matrix(lam + MU_SHIFT[corner])
        if m.nrows and m.ncols:
            seen.add((corner, sign(corner, lam)))
        return layout(corner, lam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rho_mod, "_layout", recording)
        for lam in range(-6, 7):
            assert rho_mod.triangular_certificate(P, lam)["status"] == "pass"
    return seen


def test_every_layout_branch_is_reached():
    # L(3) is not needed for these branches, only for E^3 != 0
    l1, l2 = layout_branches("L1"), layout_branches("l2.json")
    assert (len(l1), len(l2)) == (6, 8)
    assert l1 | l2 == {(c, s) for c in ("11", "21", "12") for s in (0, 1)} | {
        ("22", s) for s in (-1, 0, 1)}
