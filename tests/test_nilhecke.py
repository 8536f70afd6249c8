"""Normal forms in the extended nil affine Hecke algebra."""

import itertools
import random

import pytest

from sl2prod.nilhecke import (IndexOutOfRangeError, NilHeckeElt, _perm_tables,
                              _word_to_perm, act_on_poly,
                              divided_power_idempotents, normalize)
from sl2prod.polyring import Poly, QQ


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


class TestPermTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_words_match_brute_force(self, n):
        # the first word of each length, in lexicographic order, that reaches
        # a permutation is its shortlex-minimal reduced word
        expected = {}
        for length in range(n * (n - 1) // 2 + 1):
            for word in itertools.product(range(1, n), repeat=length):
                expected.setdefault(_word_to_perm(n, word), word)
        words, right = _perm_tables(n)
        assert words == expected
        for (p, i), (q, change) in right.items():
            assert q == _word_to_perm(n, words[p] + (i,))
            assert change == (1 if len(words[q]) > len(words[p]) else -1)
        assert len(right) == len(words) * (n - 1)


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
