"""Equality and the polynomial representation of the extended nil affine
Hecke algebra."""

import math
import random

import pytest

from sl2prod.nilhecke import (IndexOutOfRangeError, NilHeckeElt, _artin_basis,
                              act_on_poly, divided_power_idempotents,
                              normalize)
from sl2prod.polyring import Poly, QQ, make_field, var_index


def random_word(rng, n: int, length: int):
    """A random generator word for property tests (seeded by the caller)."""
    word = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            word.append(("tau", rng.randrange(1, n)))
        elif kind == 1:
            word.append(("x", rng.randrange(1, n + 1)))
        elif kind == 2:
            word.append(("y",))
        else:
            word.append(("scalar", rng.randrange(-3, 4)))
    return word


def T(i, n=2):
    return NilHeckeElt.tau(n, i)


def X(i, n=2):
    return NilHeckeElt.x(n, i)


class TestNormalize:
    def test_tau_squared(self):
        assert normalize(2, [("tau", 1), ("tau", 1)]) == NilHeckeElt.zero(2)

    def test_dot_slide(self):
        lhs = normalize(2, [("tau", 1), ("x", 1)])
        rhs = X(2) * T(1) + NilHeckeElt.one(2)
        assert lhs == rhs

    def test_dot_slide_mirror(self):
        lhs = normalize(2, [("x", 1), ("tau", 1)])
        rhs = T(1) * X(2) + NilHeckeElt.one(2)
        assert lhs == rhs

    def test_braid(self):
        lhs = normalize(3, [("tau", 1), ("tau", 2), ("tau", 1)])
        rhs = normalize(3, [("tau", 2), ("tau", 1), ("tau", 2)])
        assert lhs == rhs

    def test_central_y(self):
        lhs = normalize(2, [("y",), ("tau", 1)])
        rhs = normalize(2, [("tau", 1), ("y",)])
        assert lhs == rhs

    def test_crossing_chain(self):
        chain = normalize(3, [("tau", 1), ("tau", 2), ("y_", 2), ("y_", 1),
                              ("tau", 1), ("tau", 2)])
        expected = (normalize(3, [("y_", 3), ("tau", 2), ("tau", 1),
                                  ("tau", 2)])
                    + normalize(3, [("tau", 1), ("tau", 2)]))
        assert chain == expected

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            normalize(2, [("tau", 2)])


class TestEqualityByAction:
    def test_longest_element_is_not_zero(self):
        # t1 t2 t1 kills every Artin monomial but x2 x3^2, so a truncated
        # basis would find it equal to zero
        w0 = normalize(3, [("tau", 1), ("tau", 2), ("tau", 1)])
        assert w0 != NilHeckeElt.zero(3)

    def test_tau_is_not_zero(self):
        # t1 kills 1 and needs the monomial x2
        assert T(1) != NilHeckeElt.zero(2)

    @pytest.mark.parametrize("lhs, rhs", [
        ([("tau", 1), ("x", 1)], [("x", 1), ("tau", 1)]),
        ([("tau", 1), ("tau", 2), ("tau", 1)], [("tau", 1), ("tau", 2)]),
        ([("tau", 1), ("x", 3)], [("tau", 1)]),
        ([("y",), ("tau", 1)], [("tau", 1)]),
    ])
    def test_false_identities_compare_unequal(self, lhs, rhs):
        assert normalize(3, lhs) != normalize(3, rhs)

    def test_field_gf2(self):
        gf2 = make_field("2")
        # x1 t1 - t1 x2 = 1 holds over GF(2) too, where -1 = 1
        lhs = normalize(2, [("x", 1), ("tau", 1)], gf2)
        rhs = (normalize(2, [("tau", 1), ("x", 2)], gf2)
               + NilHeckeElt.one(2, gf2))
        assert lhs == rhs
        assert normalize(2, [("tau", 1)], gf2) != NilHeckeElt.zero(2, gf2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(NilHeckeElt.one(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_artin_basis(self, n):
        # n! distinct monomials with a_k < k: that is every such monomial
        basis = _artin_basis(n)
        assert len(set(basis)) == len(basis) == math.factorial(n)
        top = var_index(f"x{n}")
        for m in basis:
            (exps,) = m.terms
            assert m.terms[exps] == 1
            exps = exps + (0,) * (top + 1 - len(exps))
            assert len(exps) == top + 1
            assert exps[:var_index("x1")] == (0, 0)
            assert all(exps[var_index(f"x{k}")] < k for k in range(1, n + 1))


class TestIdempotents:
    def test_relations(self):
        ep, em = divided_power_idempotents()
        one = NilHeckeElt.one(2)
        zero = NilHeckeElt.zero(2)
        assert ep + em == one
        assert ep * em == zero
        assert em * ep == zero
        assert ep * ep == ep
        assert em * em == em


class TestConfluence:
    def test_fold_directions_agree(self):
        rng = random.Random(12345)
        for _ in range(1000):
            word = random_word(rng, 3, rng.randint(0, 8))
            # fold right to left, multiplying on the left
            acc = NilHeckeElt.one(3)
            for tok in reversed(word):
                acc = normalize(3, [tok]) * acc
            assert normalize(3, word) == acc


class TestPolynomialRepresentation:
    def test_tau_acts_as_divided_difference(self):
        x1 = Poly.var(QQ, "x1")
        assert act_on_poly(T(1), x1) == Poly.one(QQ)

    def test_normal_form_acts_identically(self):
        x1 = Poly.var(QQ, "x1")
        x2 = Poly.var(QQ, "x2")
        e = X(2) * T(1) + NilHeckeElt.one(2)
        assert act_on_poly(e, x1) == x2 + x1

    def test_tau_on_cubic(self):
        x1 = Poly.var(QQ, "x1")
        x2 = Poly.var(QQ, "x2")
        assert act_on_poly(T(1), x1 ** 2 * x2) == x1 * x2

    def test_faithfulness_on_seeded_words(self):
        rng = random.Random(999)
        gens = [Poly.var(QQ, v) for v in ("x1", "x2", "x3", "y")]
        for _ in range(500):
            word = random_word(rng, 3, rng.randint(0, 6))
            f = Poly.one(QQ)
            for _ in range(rng.randint(0, 4)):
                f = f * gens[rng.randrange(4)]
            lhs = act_on_poly(normalize(3, word), f)
            acc = f
            for tok in reversed(word):
                acc = act_on_poly(normalize(3, [tok]), acc)
            assert lhs == acc
