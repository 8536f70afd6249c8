"""Differential tests of polyring and the Bareiss determinant against sympy.

Polynomials are drawn as term lists in u, y, x1..x3 and built on both sides
independently; results are compared after converting sympy's answer back.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sl2prod.matrixops import Matrix, bareiss_determinant  # noqa: E402
from sl2prod.polyring import (NotDivisibleError, Poly, PrimeField, QQ,  # noqa: E402
                              divided_difference, dot, exact_divide,
                              h_complete, parse_poly)

NAMES = ("u", "y", "x1", "x2", "x3")
GENS = sympy.symbols(NAMES)
SYM = dict(zip(NAMES, GENS))
FIELDS = [QQ, PrimeField(7)]


def sympy_poly(expr, field):
    if field is QQ:
        return sympy.Poly(expr, *GENS, domain="QQ")
    return sympy.Poly(expr, *GENS, modulus=field.p)


def term_lists(max_terms=4, max_exp=2):
    mono = st.tuples(*[st.integers(0, max_exp)] * len(NAMES))
    coeff = st.fractions(-3, 3, max_denominator=3)
    return st.lists(st.tuples(coeff, mono), max_size=max_terms)


def build(terms, field):
    """The same term list as a Poly and as a sympy Poly."""
    p = Poly.zero(field)
    expr = sympy.Integer(0)
    for c, exps in terms:
        if field is not QQ:
            c = Fraction(c.numerator)  # keep denominators prime to p
        m = Poly.const(field, c)
        s = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(NAMES, exps):
            m = m * Poly.var(field, name) ** e
            s = s * SYM[name] ** e
        p = p + m
        expr = expr + s
    return p, sympy_poly(expr, field)


def from_sympy(sp, field):
    out = Poly.zero(field)
    for exps, c in sp.terms():
        m = Poly.const(field, Fraction(int(c.p), int(c.q)) if field is QQ
                       else int(c))
        for name, e in zip(NAMES, exps):
            m = m * Poly.var(field, name) ** e
        out = out + m
    return out


def parsed(text, field):
    """A polynomial in the rendering that parse_poly reads, as sympy's."""
    return sympy_poly(sympy.sympify(text.replace("^", "**"), locals=SYM),
                      field)


polys = st.sampled_from(FIELDS).flatmap(
    lambda F: st.tuples(st.just(F), term_lists(), term_lists()))

SETTINGS = settings(max_examples=40, deadline=None)


class TestAgainstSympy:
    @SETTINGS
    @given(polys)
    def test_ring_operations(self, data):
        F, ta, tb = data
        (a, A), (b, B) = build(ta, F), build(tb, F)
        assert a + b == from_sympy(A + B, F)
        assert a - b == from_sympy(A - B, F)
        assert a * b == from_sympy(A * B, F)
        assert (a == b) == (A == B)
        assert from_sympy(A, F) == a
        assert hash(from_sympy(A, F)) == hash(a)

    @SETTINGS
    @given(polys, st.sampled_from([1, 2]))
    def test_divided_difference(self, data, i):
        F, ta, _ = data
        a, A = build(ta, F)
        xi, xj = SYM[f"x{i}"], SYM[f"x{i + 1}"]
        swapped = A.as_expr().subs({xi: xj, xj: xi}, simultaneous=True)
        q, r = sympy.div(A - sympy_poly(swapped, F), sympy_poly(xi - xj, F))
        assert r.is_zero
        assert divided_difference(a, i) == from_sympy(q, F)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("names", [("x1", "y"), ("u", "x2", "x3"),
                                       ("y", "x1", "x2", "x3")])
    def test_h_complete(self, field, names):
        gens = [SYM[n] for n in names]
        for i in range(5):
            h = sum(sympy.polys.monomials.itermonomials(gens, i, i),
                    sympy.Integer(0))
            assert h_complete(i, names, field) == from_sympy(
                sympy_poly(h, field), field)

    @SETTINGS
    @given(polys)
    def test_exact_divide(self, data):
        F, ta, tb = data
        (a, A), (b, B) = build(ta, F), build(tb, F)
        if b.is_zero():
            return
        assert exact_divide(a * b, b) == a
        q, r = sympy.div(A, B)
        if r.is_zero:
            assert exact_divide(a, b) == from_sympy(q, F)
        else:
            with pytest.raises(NotDivisibleError):
                exact_divide(a, b)

    @SETTINGS
    @given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(
        st.just(F), st.lists(st.tuples(term_lists(), term_lists()),
                             max_size=4), st.booleans())))
    def test_dot(self, data):
        # with cancel, every product appears once more negated, so the
        # accumulated dict must cancel to the zero polynomial
        F, drawn, cancel = data
        pairs = [(build(ta, F), build(tb, F)) for ta, tb in drawn]
        if cancel:
            pairs += [((-a, -A), (b, B)) for (a, A), (b, B) in pairs]
        want = sympy_poly(sympy.Integer(0), F)
        for (_, A), (_, B) in pairs:
            want = want + A * B
        got = dot(((a, b) for (a, _), (b, _) in pairs), F)
        assert got == from_sympy(want, F)
        if cancel:
            assert got.terms == {}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_dot_exponent_lengths(self, field):
        # u and x3 have exponent tuples of lengths 1 and 5; the last pair
        # cancels the first
        u, y, x3 = (Poly.var(field, n) for n in ("u", "y", "x3"))
        got = dot([(u, x3), (x3 ** 2, u * y), (y, y), (x3, -u)], field)
        assert got.terms == {(1, 1, 0, 0, 2): field.one, (0, 2): field.one}
        U, Y, X3 = SYM["u"], SYM["y"], SYM["x3"]
        assert got == from_sympy(sympy_poly(X3 ** 2 * U * Y + Y ** 2, field),
                                 field)

    @SETTINGS
    @given(polys)
    def test_exact_divide_leaves_its_operands(self, data):
        # the remainder is updated in place, on a copy of the dividend
        F, ta, tb = data
        (a, _), (b, _) = build(ta, F), build(tb, F)
        if b.is_zero():
            return
        ab = a * b
        saved = [dict(p.terms) for p in (a, b, ab)]
        assert exact_divide(ab, b) == a
        try:
            exact_divide(a, b)
        except NotDivisibleError:
            pass
        assert [a.terms, b.terms, ab.terms] == saved

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("f, g", [
        ("x1", "x2"), ("x1^2 + 1", "x1 + y"), ("u*x3 + y", "x3"),
        ("x1^2 - y^2 + u", "x1 - y"), ("u", "x3"), ("x3^2*u + 1", "u*x3")])
    def test_not_divisible(self, field, f, g):
        # sympy leaves a remainder on each, some only after several steps
        _, r = sympy.div(parsed(f, field), parsed(g, field))
        assert not r.is_zero
        with pytest.raises(NotDivisibleError):
            exact_divide(parse_poly(f, field), parse_poly(g, field))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("f, g", [
        ("0", "x1 - y"), ("u*x3 + y*x3", "x3"), ("x3^2*u - u", "x3 + 1"),
        ("x1^2 - y^2", "x1 - y"), ("u^3*x2 + u*x2", "u*x2")])
    def test_divisible(self, field, f, g):
        # exponent tuples of different lengths, and a zero dividend
        q, r = sympy.div(parsed(f, field), parsed(g, field))
        assert r.is_zero
        assert exact_divide(parse_poly(f, field),
                            parse_poly(g, field)) == from_sympy(q, field)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(
        st.just(F), st.lists(term_lists(max_terms=2, max_exp=1),
                             min_size=9, max_size=9))))
    def test_bareiss_determinant(self, data):
        F, entries = data
        built = [build(t, F) for t in entries]
        m = Matrix.from_rows(F, [[p for p, _ in built[3 * r:3 * r + 3]]
                                 for r in range(3)])
        S = sympy.Matrix(3, 3, [s.as_expr() for _, s in built])
        det = sympy_poly(sympy.expand(S.det(method="berkowitz")), F)
        assert bareiss_determinant(m) == from_sympy(det, F)
