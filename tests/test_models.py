"""Model elements: coordinate forms, tensor decompositions, compositions."""

import json
import random
from pathlib import Path

import pytest

from sl2prod.matrixops import ShapeMismatchError
from sl2prod.polyring import QQ, Poly, make_field
from sl2prod.product.core import (C_WORDS, CORNERS, MU_SHIFT, T_FACTORS,
                                  T_WORDS, build_product, c_basis)
from sl2prod.product.elements import (Elt, NotInModelError, basis_elt,
                                      elem_tensor, zero_elt)
from sl2prod.product import models
from sl2prod.product.models import (CORNER_MODELS, G, L2Elt, UElt,
                                    act_G1_on_G2, c_mult, decompose_first,
                                    gamma22_EE_G1EE, gamma22_EE_G2G2, one_at,
                                    one_G1, tau22)
from sl2prod.product.oracles import check_product_hecke, pair_basis
from sl2prod.tworep import make_L1, rep_from_json

CORNER_TAGS = sorted(CORNER_MODELS)
GOLDEN = Path(__file__).parent / "golden"
# L(1) and every committed input that loads
INPUTS = ["L1", "e2_tau0", "l1_x2u", "l1_renamed"]


def load_product(name, field=QQ):
    """A new product over L(1) or the golden input ``name``, without the
    construction gate."""
    V = (make_L1(field) if name == "L1" else rep_from_json(
        json.loads((GOLDEN / f"{name}.json").read_text()), field))
    return build_product(V)


@pytest.fixture(scope="module")
def E2():
    """The product over an input with E^2 != 0, where every corner's last
    word has nonzero rank at some weight.  The construction gate is not
    run: the input fails its rho hypotheses."""
    return load_product("e2_tau0")


@pytest.fixture(scope="module", params=INPUTS)
def each_input(request):
    return load_product(request.param)


def rand_elt(P, rng, word, w):
    r = P.Vy
    y = Poly.var(r.A.field, "y")
    vec = []
    for _ in range(r.word(word).rank(w)):
        p = Poly.zero(r.A.field)
        for k in range(2):
            c = rng.randint(-2, 2)
            if c:
                p = p + (y ** k) * c
        vec.append(p)
    return Elt(r, word, w, vec)


def rand_model(P, rng, corner, w):
    cls = CORNER_MODELS[corner]
    return cls(P.Vy, w, *(rand_elt(P, rng, word, w) for word in cls.words()))


def round_trip(rep, m):
    """Rebuild a model element from its defining morphism data."""
    return type(m).from_data(rep, *m.data())


def square_corner_elements(E2, rng):
    """G(3) elements on e2_tau0, at each weight w with EE != 0 (only -2):
    10 random pairs gamma22_EE_G1EE(c1, ee), with c1 at w + 4 as
    ``check_product_hecke`` spans them, then gamma22_EE_G2G2 on every pair
    of basis elements."""
    r = E2.Vy
    out = []
    for w in E2.weights():
        if r.word("EE").rank(w) == 0:
            continue
        out += [gamma22_EE_G1EE(rand_model(E2, rng, "11", w + 4),
                                rand_elt(E2, rng, "EE", w))
                for _ in range(10)]
        out += [gamma22_EE_G2G2(p, q) for q in E2.sum_basis("12", w)
                for p in E2.sum_basis("12", w + 2)]
    assert any(not h.is_zero() for h in out)
    return out


class TestFormRoundTrip:
    @pytest.mark.parametrize("corner", ["11", "12", "21", "22"])
    def test_basis_round_trip(self, P, corner):
        for w in P.weights():
            for m in P.sum_basis(corner, w):
                back = round_trip(P.Vy, m)
                assert back.to_vec() == m.to_vec(), (corner, w)

    def test_random_round_trip(self, P):
        rng = random.Random(424242)
        corners = ["11", "12", "21", "22"]
        for _ in range(200):
            corner = corners[rng.randrange(4)]
            ws = P.weights()
            w = ws[rng.randrange(len(ws))]
            m = rand_model(P, rng, corner, w)
            back = round_trip(P.Vy, m)
            assert back.to_vec() == m.to_vec()

    def test_pair_end_round_trip(self, E2):
        # the square corner G(3) round-trips through its data d_0, d_1, d_2
        # and the divisions q_k = (d_(k-1) - d_k) / y_(3-k)
        for h in square_corner_elements(E2, random.Random(7)):
            assert round_trip(E2.Vy, h) == h

    def test_non_member_rejected(self, P):
        # datum = y1.last with d0 = 0 needs (u - y) to divide the datum
        r = P.Vy
        with pytest.raises(NotInModelError):
            G(1).from_data(r, zero_elt(r, "", -1), basis_elt(r, "FE", -1, 0))


def last_word_weights(P, corner):
    """The weights at which the corner's last coordinate is not empty."""
    word = CORNER_MODELS[corner].words()[-1]
    return [w for w in P.weights() if P.Vy.word(word).rank(w)]


class TestDivisionsOnE2:
    """On L(1) the last words FEE, FFE and FFEE are empty at every weight;
    here each model's from_data divides a nonempty vector."""

    @pytest.mark.parametrize("corner", CORNER_TAGS)
    def test_round_trip(self, E2, corner):
        rng = random.Random(int(corner))
        ws = last_word_weights(E2, corner)
        assert ws
        for w in ws:
            ms = [*E2.sum_basis(corner, w),
                  *(rand_model(E2, rng, corner, w) for _ in range(5))]
            for m in ms:
                assert round_trip(E2.Vy, m) == m, (corner, w)

    @pytest.mark.parametrize("corner", CORNER_TAGS)
    def test_non_member_rejected(self, E2, corner):
        # a basis vector of the last word added to the datum is not
        # divisible by y_Y
        r = E2.Vy
        cls = CORNER_MODELS[corner]
        word = cls.words()[-1]
        for w in last_word_weights(E2, corner):
            *lead, datum = cls(r, w).data()
            for k in range(r.word(word).rank(w)):
                with pytest.raises(NotInModelError):
                    cls.from_data(r, *lead, datum + basis_elt(r, word, w, k))

    @pytest.mark.parametrize("corner", CORNER_TAGS)
    def test_dropped_factor_fails_round_trip(self, E2, monkeypatch, corner):
        # data built with the full y_Y, then divided without its last
        # factor: the recovered last coordinate is off by that factor
        cls = CORNER_MODELS[corner]
        ms = [m for w in last_word_weights(E2, corner)
              for m in E2.sum_basis(corner, w) if not m.coords[-1].is_zero()]
        assert ms
        data = [m.data() for m in ms]
        monkeypatch.setattr(cls, "Y", cls.Y[:-1])
        for m, d in zip(ms, data):
            assert cls.from_data(E2.Vy, *d) != m


class TestConstruction:
    def test_left_out_coordinates_are_zero(self, P):
        r = P.Vy
        f = basis_elt(r, "F", 1, 0)
        assert L2Elt(r, 1, f=f) == L2Elt(r, 1, zero_elt(r, "F", 1), f,
                                         zero_elt(r, "FFE", 1))
        assert UElt(r, -1).is_zero()

    def test_too_many_coordinates(self, P):
        r = P.Vy
        z = zero_elt(r, "", -1)
        with pytest.raises(ShapeMismatchError):
            G(1)(r, -1, z, zero_elt(r, "FE", -1), z)

    @pytest.mark.parametrize("name", ["rho", "fp"])
    def test_unknown_or_repeated_name(self, P, name):
        r = P.Vy
        fp = zero_elt(r, "F", 1)
        with pytest.raises(ShapeMismatchError):
            L2Elt(r, 1, fp, **{name: fp})


class TestEltShape:
    def test_length_mismatch(self, P):
        r = P.Vy
        one = Poly.one(r.A.field)
        u = Poly.var(r.A.field, "u")
        short = Elt(r, "E", -1, [one])
        long = Elt(r, "E", -1, [one, u])
        assert short != long
        with pytest.raises(ShapeMismatchError):
            short + long


class TestDecomposition:
    def test_decompose_first_reconstructs(self, P):
        rng = random.Random(31)
        r = P.Vy
        for word in ("EF", "FE", "FEE"):
            for w in P.weights():
                if r.word(word).rank(w) == 0:
                    continue
                e = rand_elt(P, rng, word, w)
                total = zero_elt(r, word, w)
                for left, rest in decompose_first(e):
                    total = total + elem_tensor(left, rest)
                assert (total - e).is_zero(), (word, w)

    def test_decompose_left_reconstructs(self, P):
        # the pair word EE split at its left letter
        rng = random.Random(32)
        r = P.Vy
        for w in P.weights():
            if r.word("EE").rank(w) == 0:
                continue
            ee = rand_elt(P, rng, "EE", w)
            total = zero_elt(r, "EE", w)
            for left, rest in decompose_first(ee):
                assert left.word == "E" and rest.word == "E"
                total = total + elem_tensor(left, rest)
            assert (total - ee).is_zero()

    def test_elem_tensor_bilinear(self, P):
        rng = random.Random(33)
        r = P.Vy
        w = 0
        if r.word("E").rank(w) and r.word("F").rank(w + 2):
            a1 = rand_elt(P, rng, "F", w + 2)
            a2 = rand_elt(P, rng, "F", w + 2)
            b = rand_elt(P, rng, "E", w)
            lhs = elem_tensor(a1 + a2, b)
            rhs = elem_tensor(a1, b) + elem_tensor(a2, b)
            assert (lhs - rhs).is_zero()


def coordinates(m):
    """The coordinates of a pair factor: a word element is its own."""
    return m.coords if isinstance(m, models.ModelElt) else [m]


class TestPairLayout:
    """Pair j of ``pair_basis(P, c, w)`` is the j-th standard column of the
    EF corner sum T[c] at w.  A pair flattens to the tensors of each left
    coordinate with each right coordinate, left coordinate outer, and a
    mixed pair of corner 22 to d0 (x) fp in the summand EF; the other pairs
    are zero there."""

    @pytest.mark.parametrize("field", ["QQ", "7"])
    @pytest.mark.parametrize("name, n_columns", [
        ("L1", 11), ("e2_tau0", 21), ("l1_x2u", 11), ("l1_renamed", 11)])
    def test_pairs_are_the_standard_columns(self, name, n_columns, field):
        P = load_product(name, make_field(field))
        r = P.Vy
        one, zero = Poly.one(r.A.field), Poly.zero(r.A.field)
        columns = 0
        for c in CORNERS:
            ca, cb = T_FACTORS[c]
            for w in P.T[c].weights():
                pairs = pair_basis(P, c, w)
                n = P.T[c].rank(w)
                assert len(pairs) == n
                for j, (a, b) in enumerate(pairs):
                    if isinstance(a, G(2)):
                        assert a == G(2)(r, w - 2, d0=a.d0)
                        assert b == L2Elt(r, w, fp=b.fp)
                        parts = [zero_elt(r, word, w)
                                 for word in T_WORDS[c][:-1]]
                        parts.append(elem_tensor(a.d0, b.fp))
                    else:
                        left, right = coordinates(a), coordinates(b)
                        assert [e.word for e in left] == list(C_WORDS[ca])
                        assert [e.word for e in right] == list(C_WORDS[cb])
                        parts = [elem_tensor(x, y)
                                 for x in left for y in right]
                        if c == "22":
                            parts.append(zero_elt(r, "EF", w))
                    # the summands are the tensors of the factors' words
                    assert tuple(p.word for p in parts) == T_WORDS[c]
                    assert [q for p in parts for q in p.vec] == [
                        one if i == j else zero for i in range(n)]
                    columns += 1
        assert columns == n_columns


class TestComposition:
    @pytest.mark.parametrize("name, n_cases", [("L1", 14), ("e2_tau0", 24)],
                             ids=["L1", "e2_tau0"])
    def test_end_algebra_is_unital(self, name, n_cases):
        # every rule of C with a diagonal factor fixes the other factor when
        # the diagonal one is its unit; unit (22) times (21) is the zig-zag
        # identity of eta.  A new product, since other tests here extend
        # the module product's cached bases.
        P = load_product(name)
        r = P.Vy
        cases = 0
        for c in P.c_weights():
            basis = {k: c_basis(P, k, c + MU_SHIFT[k]) for k in CORNERS}
            units = {}
            if basis["11"]:
                units["11"] = one_at(r, c + 1)
            if basis["22"]:
                units["22"] = one_G1(r, c - 1)
            for ca in CORNERS:
                for cb in CORNERS:
                    if ca[1] != cb[0]:
                        continue
                    for x in basis[cb] if ca in units else ():
                        assert c_mult(ca, units[ca], cb, x) == x
                        cases += 1
                    for x in basis[ca] if cb in units else ():
                        assert c_mult(ca, x, cb, units[cb]) == x
                        cases += 1
        assert cases == n_cases

    @pytest.mark.parametrize("field", ["QQ", "7"])
    @pytest.mark.parametrize("name, n_products", [
        ("L1", 15), ("e2_tau0", 28), ("l2", 54)], ids=["L1", "e2_tau0", "l2"])
    def test_end_algebra_product_lies_in_its_corner(self, name, n_products,
                                                    field):
        # a product of corners (i,j) and (j,k) lies in corner (i,k): in the
        # model G(1) for corner 22, on the one word of C_WORDS otherwise,
        # at the source weight of C's weight c
        P = load_product(name, make_field(field))
        products = 0
        for c in P.c_weights():
            basis = {k: c_basis(P, k, c + MU_SHIFT[k]) for k in CORNERS}
            for ca in CORNERS:
                for cb in CORNERS:
                    if ca[1] != cb[0]:
                        continue
                    k = ca[0] + cb[1]
                    w = c + MU_SHIFT[k]
                    for a in basis[ca]:
                        for b in basis[cb]:
                            ab = c_mult(ca, a, cb, b)
                            products += 1
                            assert ab.weight == w
                            if k == "22":
                                assert type(ab) is G(1)
                            else:
                                assert type(ab) is Elt
                                assert ab.word == C_WORDS[k][0]
        assert products == n_products

    def test_one_acts_trivially_on_G2(self, P):
        rng = random.Random(42)
        for w in P.weights():
            g = rand_model(P, rng, "12", w)
            one = one_G1(P.Vy, w)
            acted = act_G1_on_G2(g, one)
            assert acted.to_vec() == g.to_vec()

    def test_tau22_squares_to_zero(self, E2):
        # tau22 sends data (d_0, d_1, d_2) to (q_1, q_1, d_2 . tau(1)),
        # which is in G(3) when y_1 divides q_1 - d_2 . tau(1).  On these
        # spanning elements that follows from x_1 tau = tau x_2 + 1 on EE,
        # which e2_tau0 breaks (tau = 0): there one of the six
        # gamma22_EE_G2G2 basis products crosses to (1, 1, 0), outside
        # G(3).  Every other image is in G(3), and crossing it again gives
        # zero.
        outside = 0
        for h in square_corner_elements(E2, random.Random(43)):
            try:
                t = tau22(h)
            except NotInModelError:
                outside += 1
                continue
            assert tau22(t).is_zero()
        assert outside == 1

    def test_crossing_outside_square_corner_fails_its_record(self, E2):
        # e2_tau0 breaks the dot slide on corners 11 and 21, and so
        # corner 22's crossing leaves G(3); the record fails, no exception
        # escapes
        recs = {rec["check"]: rec for rec in check_product_hecke(E2)}
        assert [c for c, rec in recs.items() if rec["status"] == "fail"] == [
            "hecke[11]: tau xin = xout tau + 1",
            "hecke[11]: xin tau = tau xout + 1",
            "hecke[21]: tau xin = xout tau + 1",
            "hecke[21]: xin tau = tau xout + 1",
            "hecke[22]: tau^2 = 0", "hecke[22]: dot relations"]
        assert recs["hecke[22]: tau^2 = 0"]["witness"] == (
            "weight -2: crossed image not in G(3): membership division "
            "leaves a remainder")


# ---------------------------------------------------------------------------
# G(n) against the hand-written classes it replaced

# G1Elt's and G2Elt's coordinate words, and their data (the leading data
# and the datum head() + y_Y . last), frozen as written before G(n).
OLD_WORDS = {1: ("", "FE"), 2: ("E", "E", "FEE")}


def old_G1_data(theta, phi1):
    return theta, theta.eta(0) + phi1.y(1)


def old_G2_data(a, b, c):
    e2 = b - a.y(1)
    return b, e2, b.eta(0) + e2.eta(0).tau(1).y(2) + c.y(1).y(2)


def old_G3_datum(ee1, ee2, ee3, chi2):
    """G3Elt's datum, on its constrained tuple (ee1, ee2, ee3, chi2)."""
    return (ee1.eta(0) + ee2.eta(0).tau(2).y(3)
            + ee3.eta(0).tau(2).tau(1).y(2).y(3) + chi2.y(1).y(2).y(3))


def model_basis(r, cls, w):
    """The standard basis of the coordinate sum of ``cls`` at w."""
    n = sum(r.word(word).rank(w) for word in cls.words())
    one, zero = Poly.one(r.A.field), Poly.zero(r.A.field)
    return [cls.from_vec(r, w, [one if i == k else zero for i in range(n)])
            for k in range(n)]


def nonempty(P, word):
    return any(P.Vy.word(word).rank(w) for w in P.weights())


class TestFrozenFormulas:
    @pytest.mark.parametrize("n, old_data", [(1, old_G1_data),
                                             (2, old_G2_data)])
    def test_free_models_match(self, each_input, n, old_data):
        # G(n) keeps G1Elt's (theta, phi1) and G2Elt's (a, b, c) as its
        # coordinate vectors, so the same tuple gives the same element
        P, r = each_input, each_input.Vy
        rng = random.Random(n)
        assert G(n).words() == list(OLD_WORDS[n])
        nonzero = 0
        for w in P.weights():
            tuples = [m.coords for m in model_basis(r, G(n), w)]
            tuples += [[rand_elt(P, rng, word, w) for word in OLD_WORDS[n]]
                       for _ in range(5)]
            for t in tuples:
                m, old = G(n)(r, w, *t), old_data(*t)
                assert m.to_vec() == [p for c in t for p in c.vec]
                assert m.data() == old
                assert m.datum() == old[-1]
                nonzero += not old[-1].is_zero()
        # the datum lies on FE^n: empty for n = 2 on the L(1) inputs
        assert bool(nonzero) == nonempty(P, G(n).words()[-1])

    def test_square_model_matches(self, each_input):
        # a G3Elt tuple (ee1, ee2, ee3, chi2) is a member when
        # y2 | ee1 - ee2 and y1 | ee3 - ee2; in free coordinates it is
        # G(3)'s element with data d = (ee1, ee2, ee3) and last = chi2.
        # Only e2_tau0 has EE != 0, and FEEE, where the datum lies, is
        # empty on every committed input, so the datum comparison checks
        # the conversion only on empty columns there
        P, r = each_input, each_input.Vy
        rng = random.Random(3)
        G3 = G(3)

        def rand(word, w):
            return rand_elt(P, rng, word, w)
        nonzero = 0
        for w in P.weights():
            tuples = [(*m.data()[:3], m.last)
                      for m in model_basis(r, G3, w)]
            for _ in range(5):
                ee2 = rand("EE", w)
                tuples.append((ee2 + rand("EE", w).y(2), ee2,
                               ee2 + rand("EE", w).y(1), rand("FEEE", w)))
            for ee1, ee2, ee3, chi2 in tuples:
                m = G3(r, w, *G3.free([ee1, ee2, ee3]), chi2)
                datum = old_G3_datum(ee1, ee2, ee3, chi2)
                assert m.data() == (ee1, ee2, ee3, datum)
                assert G3.from_data(r, ee1, ee2, ee3, datum) == m
                nonzero += not all(e.is_zero() for e in (ee1, ee2, ee3))
        assert bool(nonzero) == nonempty(P, "EE")

    def test_square_model_rejects_non_members(self, E2):
        # a basis vector of EE is divisible by neither y1 nor y2
        r = E2.Vy
        rejected = 0
        for w in E2.weights():
            z = zero_elt(r, "EE", w)
            datum = zero_elt(r, "FEEE", w)
            for k in range(r.word("EE").rank(w)):
                e = basis_elt(r, "EE", w, k)
                # y2 does not divide ee1 - ee2; y1 does not divide ee3 - ee2
                for ds in ([e, z, z], [z, z, e]):
                    with pytest.raises(NotInModelError):
                        G(3).from_data(r, *ds, datum)
                    rejected += 1
        assert rejected == 2


class Sym:
    """A formal coordinate: the operator chains, sums and differences of a
    formula build an expression tree, so two formulas compare as written.
    On the committed inputs some index errors cannot show (e2_tau0 has
    tau = 0, and y1 and y2 agree on its rank-one EE); here they do."""

    def __init__(self, expr):
        self.expr = expr

    def __add__(self, other):
        return Sym(("+", self.expr, other.expr))

    def __sub__(self, other):
        return Sym(("-", self.expr, other.expr))

    def __eq__(self, other):
        return self.expr == other.expr

    def __getattr__(self, op):
        # eta, tau and y: one more step of the chain
        if op not in ("eta", "tau", "y"):
            raise AttributeError(op)
        return lambda i: Sym((op, i, self.expr))


def sym_elt(n):
    """G(n)'s element with formal coordinates named as in its layout."""
    return G(n)(None, 0, *(Sym(name) for name, _ in G(n).LAYOUT))


class TestSymbolicFormulas:
    # G(1), G(2) and G(3) against G1Elt's, G2Elt's and G3Elt's formulas,
    # with G3Elt's membership conditions y2 | ee1 - ee2 and y1 | ee3 - ee2
    # giving its data in free coordinates; G(4) against the pattern
    # written out

    def test_G1_and_G2(self):
        g1, g2 = sym_elt(1), sym_elt(2)
        assert g1.data() == old_G1_data(g1.d0, g1.last)
        assert g2.data() == old_G2_data(g2.q1, g2.d0, g2.last)

    def test_G3(self):
        g = sym_elt(3)
        ee1 = g.d0
        ee2 = ee1 - g.q1.y(2)
        ee3 = ee2 - g.q2.y(1)
        assert g.data() == (ee1, ee2, ee3,
                            old_G3_datum(ee1, ee2, ee3, g.last))

    def test_G4(self):
        g = sym_elt(4)
        d1 = g.d0 - g.q1.y(3)
        d2 = d1 - g.q2.y(2)
        d3 = d2 - g.q3.y(1)
        head = (g.d0.eta(0) + d1.eta(0).tau(3).y(4)
                + d2.eta(0).tau(3).tau(2).y(3).y(4)
                + d3.eta(0).tau(3).tau(2).tau(1).y(2).y(3).y(4))
        assert g.data() == (g.d0, d1, d2, d3,
                            head + g.last.y(1).y(2).y(3).y(4))

    def test_free_divides_by_the_membership_operators(self, monkeypatch):
        monkeypatch.setattr(models, "solve_op",
                            lambda elt, i: Sym(("/", elt.expr, i)))
        ee1, ee2, ee3 = Sym("ee1"), Sym("ee2"), Sym("ee3")
        assert G(2).free([ee1, ee2]) == [Sym(("/", (ee1 - ee2).expr, 1)),
                                         ee1]
        assert G(3).free([ee1, ee2, ee3]) == [
            Sym(("/", (ee2 - ee3).expr, 1)), Sym(("/", (ee1 - ee2).expr, 2)),
            ee1]


class TestFamily:
    def test_one_class_per_n(self, P):
        # G(n) makes its class once, so the type of an element decides
        # equality and hashing
        r = P.Vy
        assert [CORNER_MODELS["11"], CORNER_MODELS["12"]] == [G(1), G(2)]
        for n in range(1, 5):
            assert G(n) is G(n)
            assert G(n).__name__ == f"G{n}Elt"
            a, b = G(n)(r, -1), G(n)(r, -1)
            assert a == b and hash(a) == hash(b)
        assert G(1)(r, 1) != G(2)(r, 1)

    def test_G4_layout(self):
        assert [name for name, _ in G(4).LAYOUT] == [
            "q3", "q2", "q1", "d0", "last"]
        assert G(4).words() == ["EEE"] * 4 + ["FEEEE"]
        assert G(4).Y == (1, 2, 3, 4)

    def test_G4_round_trip(self, E2):
        # Vacuous on every committed input: EEE is empty at every weight of
        # e2_tau0, the only one with E^2 != 0, so each element here is zero
        # and the round trip only runs G(4)'s operations on empty columns.
        # L(3) (ROADMAP item 6) is the first input with E^3 != 0, and the
        # first on which this round trip checks anything.
        r = E2.Vy
        rng = random.Random(4)
        assert not nonempty(E2, "EEE")
        for w in E2.weights():
            ms = [*model_basis(r, G(4), w),
                  G(4)(r, w, *(rand_elt(E2, rng, word, w)
                               for word in G(4).words()))]
            for m in ms:
                assert round_trip(r, m) == m
