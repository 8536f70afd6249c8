"""Structural checks on weighted representations and the commutator map."""

import json
from pathlib import Path

import pytest

from sl2prod.bimodcat import (BimoduleMap, Component, Bimodule, certify_iso,
                              compose, identity_map, regular_bimodule,
                              tensor_over_A, WeightedAlgebra)
from sl2prod.cli import suite_check_rep
from sl2prod.matrixops import Matrix
from sl2prod.polyring import Poly, QQ, make_field
from sl2prod.tworep import (TwoRep, check_hecke, check_hypotheses, make_L1,
                            rep_from_json, rep_to_json, rho,
                            scalar_variable, sigma)

GOLDEN = Path(__file__).parent / "golden"

# E of rank 2 at weight -1 and of rank 1 at -3 and 1, each with u acting
# as u, and x = u; rho is no isomorphism on it
RANK2 = {
    "weights": {"-3": ["u"], "-1": ["u"], "1": ["u"], "3": ["u"]},
    "E": {"-3": {"basis": ["e"], "left": {"u": [["u"]]}},
          "-1": {"basis": ["e", "f"],
                 "left": {"u": [["u", "0"], ["0", "u"]]}},
          "1": {"basis": ["e"], "left": {"u": [["u"]]}}},
    "x": {"-3": [["u"]], "-1": [["u", "0"], ["0", "u"]], "1": [["u"]]},
    "tau": {}}


def all_pass(records):
    return [r for r in records if r["status"] != "pass"]


def zigzags(r):
    """(eps E).(E eta) and (F eps).(eta F), each against the identity."""
    return (compose(r.eps_at("EFE", 0), r.eta_at("E", 1))
            == identity_map(r.word("E")),
            compose(r.eps_at("FEF", 1), r.eta_at("F", 0))
            == identity_map(r.word("F")))


class TestL1:
    def test_hecke_relations(self, V):
        assert all_pass(check_hecke(V)) == []

    def test_hypotheses_window(self, V):
        assert all_pass(check_hypotheses(V, window=(-4, 4))) == []

    def test_rho_iso_every_weight(self, V):
        for lam in range(-4, 5):
            cert = certify_iso(rho(V, lam).mats, f"rho_{lam} iso")
            assert cert["status"] == "pass", cert

    def test_counit_unit_triangle(self, V):
        # both zig-zag composites are identities, so sigma is a genuine
        # single-crossing commutator map
        s = sigma(V)
        assert s.is_welldefined() is None
        # on L(1) the only nonzero weight of EF is 1, where sigma vanishes
        # (FE has rank 0 there) and the evaluation pairing is an iso
        assert s.matrix(1).is_zero()
        assert zigzags(V) == (True, True)

    def test_prime_field_build(self):
        rep = make_L1(field=make_field("7"))
        assert all_pass(check_hecke(rep)) == []
        for lam in range(-2, 3):
            assert certify_iso(rho(rep, lam).mats, "")["status"] == "pass"


class TestSerialization:
    def test_round_trip(self, V):
        data = rep_to_json(V)
        back = rep_from_json(data, V.A.field)
        assert rep_to_json(back) == data
        assert all_pass(check_hecke(back)) == []

    def test_round_trip_preserves_ranks(self, V):
        back = rep_from_json(rep_to_json(V), V.A.field)
        for lam in (-1, 1):
            assert back.E.rank(lam) == V.E.rank(lam)


def corrupted_rep():
    """A three-weight representation with tau forced to zero on a rank-one
    EE component, which breaks the dot-sliding relation."""
    data = {
        "weights": {"-2": ["u"], "0": ["u"], "2": ["u"]},
        "E": {
            "-2": {"basis": ["e"], "left": {"u": [["u"]]}},
            "0": {"basis": ["e"], "left": {"u": [["u"]]}},
        },
        "x": {"-2": [["u"]], "0": [["u"]]},
        "tau": {"-2": [["0"]]},
    }
    return rep_from_json(data, make_field("QQ"))


class TestFaultInjection:
    def test_corrupted_rep_fails_hecke(self):
        rep = corrupted_rep()
        bad = all_pass(check_hecke(rep))
        assert bad, "corrupted representation must be rejected"
        assert any("tau" in r["check"] for r in bad)

    def test_corrupted_failure_names_relation(self):
        bad = all_pass(check_hecke(corrupted_rep()))
        assert {r["check"] for r in bad} == {
            "tau.(Ex) = (xE).tau + 1", "(Ex).tau = tau.(xE) + 1"}


def ref_left_dual(E):
    """F, eta and eps built independently: F from the variable bijection
    read off E's scalar left actions at every weight, and eta and eps on
    tensor modules FE, EF and A of their own, one dual-basis entry at a
    time."""
    A, field = E.algebra, E.algebra.field
    one = Poly.one(field)
    comps = {}
    for lam in A.weights():
        src = lam - E.shift
        if src not in A:
            continue
        r = E.rank(src)
        inv = {scalar_variable(E.left_matrix(src, w), r, A, src): w
               for w in A.support[lam]} if r else {}
        comps[lam] = Component(r, {
            v: Matrix.identity(field, r).scale(Poly.var(field, inv[v]))
            if r else Matrix.zero(field, 0, 0) for v in A.support[src]})
    F = Bimodule(A, -E.shift, comps)
    Areg, FE, EF = (regular_bimodule(A), tensor_over_A(F, E),
                    tensor_over_A(E, F))
    eta, eps = {}, {}
    for lam in A.weights():
        r = E.rank(lam)
        eta[lam] = Matrix.zero(field, FE.rank(lam), 1)
        for a in range(r):
            eta[lam].set(a * r + a, 0, one)
        r = E.rank(lam - 2) if lam - 2 in A else 0
        eps[lam] = Matrix.zero(field, 1, EF.rank(lam))
        for a in range(r):
            eps[lam].set(0, a * r + a, one)
    return F, BimoduleMap(Areg, FE, eta), BimoduleMap(EF, Areg, eps)


def load(name):
    """A named input over QQ, or over GF(p) when the name ends in /GFp."""
    name, _, p = name.partition("/GF")
    field = make_field(p or "QQ")
    if name == "L1":
        return make_L1(field)
    data = RANK2 if name == "rank2" else json.loads(
        (GOLDEN / f"{name}.json").read_text())
    return rep_from_json(data, field)


@pytest.mark.parametrize("name", ["L1", "e2_tau0", "l1_x2u", "rank2"])
def test_duality_matches_reference(name):
    r = load(name)
    F, eta, eps = ref_left_dual(r.E)
    assert r.F.weights() == F.weights()
    for lam in F.weights():
        assert r.F.rank(lam) == F.rank(lam)
        assert r.F.components[lam].left == F.components[lam].left
    for lam in r.A.weights():
        assert r.eta.matrix(lam) == eta.matrix(lam)
        assert r.eps.matrix(lam) == eps.matrix(lam)
    assert r.eta.dom is r.word("") and r.eta.cod is r.word("FE")
    assert r.eps.dom is r.word("EF") and r.eps.cod is r.word("")


@pytest.mark.parametrize("name", ["L1/GF7", "rank2", "l2", "l2/GF7"])
def test_zigzag_identities(name):
    r = load(name)
    assert zigzags(r) == (True, True)


def test_zigzag_fails_on_mutated_l2_unit():
    # eta at 0 is the dual basis of {1, x1} under the divided difference;
    # with -x2 turned into x2 it no longer is, and the F zig-zag breaks
    data = json.loads((GOLDEN / "l2.json").read_text())
    assert data["eta"]["0"] == [["-x2"], ["1"]]
    data["eta"]["0"][0][0] = "x2"
    assert zigzags(rep_from_json(data, QQ)) == (True, False)


def test_l2_check_rep_fails_only_hypothesis_b():
    # L(2) loads with its given F, eta and eps; the coded (b) asks each x_i
    # to act as a variable times I, which x1 and x2 on E at -2 do not, and
    # every other record passes
    records = suite_check_rep(load("l2"), (-4, 4))
    assert len(records) == 34
    assert [(r["check"], r["witness"]) for r in records
            if r["status"] != "pass"] == [
        ("hypotheses: E^1 free over P_1",
         "x_1 at weight -2 not a scalar variable"),
        ("hypotheses: E^2 free over P_2",
         "x_2 at weight -2 not a scalar variable")]


def test_zigzag_fails_on_off_diagonal_counit():
    r = load("rank2")
    one, zero = Poly.one(QQ), Poly.zero(QQ)
    assert r.eta.matrix(-1) == Matrix.from_rows(
        QQ, [[one], [zero], [zero], [one]])
    # the counit at weight 1 with its ones moved off the diagonal
    mats = dict(r.eps.mats)
    assert mats[1] == Matrix.from_rows(QQ, [[one, zero, zero, one]])
    mats[1] = Matrix.from_rows(QQ, [[zero, one, one, zero]])
    r.eps = BimoduleMap(r.eps.dom, r.eps.cod, mats)
    assert zigzags(r) != (True, True)


def hand_L1(field):
    """L(1) built by hand, as ``make_L1`` built it before it read JSON:
    k[u] at -1 and 1, E of rank one at -1 and F of rank one at 1 with u
    acting as u, x = u, tau the zero map on the zero E^2, and eta and eps
    the identity at -1 and 1."""
    A = WeightedAlgebra(field, {-1: ("u",), 1: ("u",)})
    u = Matrix.from_rows(field, [[Poly.var(field, "u")]])
    one = Matrix.identity(field, 1)
    r = TwoRep(A, Bimodule(A, 2, {-1: Component(1, {"u": u})}),
               Bimodule(A, -2, {1: Component(1, {"u": u})}))
    r.x = BimoduleMap(r.E, r.E, {-1: u})
    r.tau = BimoduleMap(r.word("EE"), r.word("EE"), {})
    r.eta = BimoduleMap(r.word(""), r.word("FE"), {-1: one})
    r.eps = BimoduleMap(r.word("EF"), r.word(""), {1: one})
    return r


@pytest.mark.parametrize("field", ["QQ", "7"])
def test_make_L1_matches_the_hand_construction(field):
    got, want = make_L1(make_field(field)), hand_L1(make_field(field))
    assert got.A == want.A and got.A.weights() == [-1, 1]
    for ours, theirs in ((got.E, want.E), (got.F, want.F),
                         (got.word("EE"), want.word("EE"))):
        assert ours.shift == theirs.shift
        assert ours.weights() == theirs.weights()
        for lam in theirs.weights():
            assert ours.rank(lam) == theirs.rank(lam)
            assert ours.components[lam].left == theirs.components[lam].left
    for ours, theirs in ((got.x, want.x), (got.tau, want.tau),
                         (got.eta, want.eta), (got.eps, want.eps)):
        for lam in got.A.weights():
            assert ours.matrix(lam) == theirs.matrix(lam)
    assert got.E.rank(-1) == 1 and got.x.matrix(-1) != Matrix.zero(
        got.A.field, 1, 1)


def test_readme_prints_the_built_in_input():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("read by the same loader:\n\n```json\n")[1]
    assert json.loads(block.split("```")[0]) == rep_to_json(make_L1())
