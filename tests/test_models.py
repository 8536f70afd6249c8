"""Model elements: coordinate forms, tensor decompositions, compositions."""

import json
import random
from pathlib import Path

import pytest

from sl2prod.matrixops import ShapeMismatchError
from sl2prod.polyring import Poly
from sl2prod.product.core import CORNERS, build_product, c_basis, c_mult
from sl2prod.product.elements import (Elt, NotInModelError, basis_elt,
                                      elem_tensor, zero_elt)
from sl2prod.product.models import (CORNER_MODELS, G1Elt, L2Elt, UElt,
                                    act_G1_on_G2, decompose_first,
                                    gamma22_EE_G1EE, one_at, one_G1, tau22)
from sl2prod.tworep import make_L1, rep_from_json

CORNER_TAGS = sorted(CORNER_MODELS)


@pytest.fixture(scope="module")
def E2():
    """The product over an input with E^2 != 0, where every corner's last
    word has nonzero rank at some weight.  The construction gate is not
    run: the input fails its rho hypotheses."""
    path = Path(__file__).parent / "golden" / "e2_tau0.json"
    return build_product(rep_from_json(json.loads(path.read_text())))


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

    def test_pair_end_round_trip(self, P):
        # end data on the pair word is not coordinatized by free slots, so the
        # round trip runs through the constrained solver
        rng = random.Random(7)
        r = P.Vy
        for w in P.weights():
            if r.word("EE").rank(w) == 0:
                continue
            for _ in range(10):
                c1 = rand_model(P, rng, "11", w)
                ee = rand_elt(P, rng, "EE", w)
                h = gamma22_EE_G1EE(c1, ee)
                back = round_trip(P.Vy, h)
                assert (back.ee1 - h.ee1).is_zero()
                assert (back.ee2 - h.ee2).is_zero()
                assert (back.ee3 - h.ee3).is_zero()

    def test_non_member_rejected(self, P):
        # phi = y1.phi1 with theta = 0 needs (u - y) to divide phi's entry
        r = P.Vy
        with pytest.raises(NotInModelError):
            G1Elt.from_data(r, zero_elt(r, "", -1), basis_elt(r, "FE", -1, 0))


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
            G1Elt(r, -1, z, zero_elt(r, "FE", -1), z)

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


class TestComposition:
    @pytest.mark.parametrize("name, n_cases", [("L1", 14), ("e2_tau0", 24)],
                             ids=["L1", "e2_tau0"])
    def test_end_algebra_is_unital(self, name, n_cases):
        # every rule of C with a diagonal factor fixes the other factor when
        # the diagonal one is its unit; unit (22) times (21) is the zig-zag
        # identity of eta.  A new product, since other tests here extend
        # the module product's cached bases.
        V = (make_L1() if name == "L1" else rep_from_json(json.loads(
            (Path(__file__).parent / "golden" / f"{name}.json").read_text())))
        P = build_product(V)
        r = P.Vy
        cases = 0
        for c in P.c_weights():
            basis = {k: c_basis(P, k, c) for k in CORNERS}
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
                        assert c_mult(P, ca, units[ca], cb, x) == (cb, x)
                        cases += 1
                    for x in basis[ca] if cb in units else ():
                        assert c_mult(P, ca, x, cb, units[cb]) == (ca, x)
                        cases += 1
        assert cases == n_cases

    def test_one_acts_trivially_on_G2(self, P):
        rng = random.Random(42)
        for w in P.weights():
            g = rand_model(P, rng, "12", w)
            one = one_G1(P.Vy, w)
            acted = act_G1_on_G2(g, one)
            assert acted.to_vec() == g.to_vec()

    def test_tau22_squares_to_zero(self, P):
        rng = random.Random(43)
        r = P.Vy
        for w in P.weights():
            if r.word("EE").rank(w) == 0:
                continue
            c1 = rand_model(P, rng, "11", w)
            ee = rand_elt(P, rng, "EE", w)
            h = gamma22_EE_G1EE(c1, ee)
            hh = tau22(tau22(h))
            assert hh.is_zero()
