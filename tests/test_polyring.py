"""Polynomial arithmetic, symmetric functions, and divided differences."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2prod.polyring import (NotDivisibleError, Poly, QQ, PrimeField,
                              divided_difference, exact_divide, h_complete,
                              make_field, parse_poly)

X1 = Poly.var(QQ, "x1")
X2 = Poly.var(QQ, "x2")
X3 = Poly.var(QQ, "x3")
Y = Poly.var(QQ, "y")


def poly_strategy(names=("x1", "x2", "y"), max_terms=4, max_exp=3):
    coeff = st.integers(min_value=-5, max_value=5)
    mono = st.tuples(*[st.integers(min_value=0, max_value=max_exp)
                       for _ in names])
    term = st.tuples(coeff, mono)

    def build(terms):
        p = Poly.zero(QQ)
        for c, exps in terms:
            m = Poly.const(QQ, c)
            for name, e in zip(names, exps):
                m = m * Poly.var(QQ, name) ** e
            p = p + m
        return p

    return st.lists(term, max_size=max_terms).map(build)


class TestArithmetic:
    def test_zero_has_empty_support(self):
        assert (X1 - X1).is_zero()
        assert not (X1 * X2).terms == {}

    def test_variable_unification(self):
        p = X1 + Y
        q = X2 * Y
        assert (p * q) * p == p * (q * p)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)

    def test_prime_field(self):
        F = make_field("7")
        assert isinstance(F, PrimeField)
        a = Poly.const(F, 5) + Poly.const(F, 4)
        assert a == Poly.const(F, 2)


class TestExactDivide:
    def test_difference_of_squares(self):
        assert exact_divide(X1 ** 2 - Y ** 2, X1 - Y) == X1 + Y

    def test_zero_dividend(self):
        assert exact_divide(Poly.zero(QQ), X1 - Y).is_zero()

    def test_h_round_trip(self):
        h2 = h_complete(2, ["x1", "y"])
        assert exact_divide((X1 - Y) * h2, X1 - Y) == h2

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            exact_divide(X1, X2)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy())
    def test_multiply_divide_round_trip(self, f, g):
        if g.is_zero():
            return
        assert exact_divide(f * g, g) == f


class TestCompleteHomogeneous:
    def test_negative_is_zero(self):
        assert h_complete(-1, ["x1", "y"]).is_zero()

    def test_h0_is_one(self):
        assert h_complete(0, ["x1", "y"]) == Poly.one(QQ)

    def test_h1(self):
        assert h_complete(1, ["x2", "y"]) == X2 + Y

    def test_h2(self):
        assert h_complete(2, ["x1", "y"]) == X1 ** 2 + X1 * Y + Y ** 2


class TestDividedDifference:
    def test_symmetric_input(self):
        assert divided_difference(Poly.one(QQ), 1).is_zero()
        assert divided_difference(X1 * X2, 1).is_zero()

    def test_linear(self):
        assert divided_difference(X1, 1) == Poly.one(QQ)

    def test_square(self):
        assert divided_difference(X1 ** 2 * X2, 1) == X1 * X2

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(names=("x1", "x2", "x3")))
    def test_nilpotence(self, f):
        assert divided_difference(divided_difference(f, 1), 1).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(names=("x1", "x2", "x3")))
    def test_braid(self, f):
        d1 = lambda g: divided_difference(g, 1)
        d2 = lambda g: divided_difference(g, 2)
        assert d1(d2(d1(f))) == d2(d1(d2(f)))

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(names=("x1", "x2", "x3")))
    def test_twisted_leibniz(self, f):
        assert (divided_difference(X1 * f, 1)
                - X2 * divided_difference(f, 1) == f)


MONOMIALS = [X1 ** a * X2 ** b for a in range(7) for b in range(7)
             if a + b <= 6]


class TestSymmetricFacts:
    @pytest.mark.parametrize("i", range(9))
    def test_dot_slide_past_crossing(self, i):
        h = h_complete(i - 1, ["x1", "x2"])
        for f in MONOMIALS:
            assert (X2 ** i * divided_difference(f, 1)
                    == divided_difference(X1 ** i * f, 1) - h * f)

    @pytest.mark.parametrize("i", range(9))
    def test_power_difference_factors(self, i):
        assert X2 ** i - Y ** i == (X2 - Y) * h_complete(i - 1, ["x2", "y"])

    @pytest.mark.parametrize("i", range(9))
    def test_convolution_collapses(self, i):
        s = Poly.zero(QQ)
        for j in range(i):
            s = s + X1 ** j * h_complete(i - 2 - j, ["x2", "y"])
        assert s == h_complete(i - 2, ["x1", "x2", "y"])

    @pytest.mark.parametrize("i", range(9))
    def test_three_variable_telescoping(self, i):
        assert ((X2 - Y) * h_complete(i - 2, ["x1", "x2", "y"])
                == h_complete(i - 1, ["x1", "x2"])
                - h_complete(i - 1, ["x1", "y"]))


class TestParsePrint:
    @pytest.mark.parametrize("text", ["0", "1", "-1", "x1", "u + y",
                                      "x1^2 - 2*x1*y + y^2", "3*x1*x2*y"])
    def test_round_trip(self, text):
        p = parse_poly(text)
        assert parse_poly(str(p)) == p

    def test_deterministic_rendering(self):
        p = X2 + X1 + Y + Poly.var(QQ, "u")
        q = Poly.var(QQ, "u") + Y + X1 + X2
        assert str(p) == str(q)


U = Poly.var(QQ, "u")


class TestLayoutDependentMethods:
    """Methods whose implementation walks the exponent layout."""

    def test_coeff_of(self):
        p = U * X1 ** 2 * Y + 3 * X1 ** 2 + X2
        assert p.coeff_of("x1", 2) == U * Y + 3
        assert p.coeff_of("x1", 0) == X2
        assert p.coeff_of("x1", 1).is_zero()
        assert p.coeff_of("x3", 0) == p
        assert p.coeff_of("x3", 1).is_zero()
        assert hash(p.coeff_of("x1", 0)) == hash(X2)

    def test_subs(self):
        p = X1 ** 2 * Y + U
        assert p.subs({"x1": X2 + 1}) == (X2 + 1) ** 2 * Y + U
        assert p.subs({"y": Poly.const(QQ, 2), "u": X3}) == 2 * X1 ** 2 + X3
        assert p.subs({}) == p

    def test_swap_x(self):
        assert X2.swap_x(1) == X1
        assert hash(X2.swap_x(1)) == hash(X1)
        p = X1 ** 2 * X3 + Y
        assert p.swap_x(2) == X1 ** 2 * X2 + Y
        assert p.swap_x(2).swap_x(2) == p

    def test_constant_value_and_is_constant(self):
        assert (X1 + 5).constant_value() == 5
        assert (X1 * Y).constant_value() == 0
        assert Poly.zero(QQ).constant_value() == 0
        assert Poly.const(QQ, 3).is_constant()
        assert Poly.zero(QQ).is_constant()
        assert (X1 - X1 + 2).is_constant()
        assert (X1 - X1 + 2).constant_value() == 2
        assert not (X1 + 2).is_constant()
        F = PrimeField(7)
        assert (Poly.var(F, "y") + 9).constant_value() == 2

    def test_with_vars_is_the_same_polynomial(self):
        p = X1 * Y + 2
        q = p.with_vars(["u", "x3"])
        assert q == p
        assert hash(q) == hash(p)
        assert str(q) == str(p)

    def test_hash_independent_of_construction_order(self):
        p = (X1 + Y) * U
        q = U * Y + X1 * U
        assert p == q and hash(p) == hash(q)
        # the same value reached through a polynomial with more variables
        r = (X1 + Y) - X1
        assert r == Y and hash(r) == hash(Y)
        assert len({p, q, r, Y}) == 2

    def test_field_mismatch_raises(self):
        F = PrimeField(7)
        g = Poly.var(F, "x1")
        with pytest.raises(ValueError):
            X1 + g
        with pytest.raises(ValueError):
            X1 * g
        with pytest.raises(ValueError):
            X1 == g

    def test_graded_order_with_larger_variables_dominating(self):
        assert str(Y ** 2 + U * X1) == "u*x1 + y^2"
        assert str(U ** 3 + X1 + Y * X2) == "u^3 + y*x2 + x1"

    def test_exact_quotient_drops_divided_variable(self):
        q = exact_divide(X1 * X2 + X2 ** 2, X2)
        assert q == X1 + X2
        assert hash(q) == hash(X1 + X2)


# ---------------------------------------------------------------------------
# The closed-form divided difference against its definition, and the
# int-or-Fraction form of rational coefficients.

FIELDS = [QQ, PrimeField(7)]
NAMES = ("u", "y", "x1", "x2", "x3", "x4")


def build(field, terms, names=NAMES):
    p = Poly.zero(field)
    for c, exps in terms:
        m = Poly.const(field, c)
        for name, e in zip(names, exps):
            m = m * Poly.var(field, name) ** e
        p = p + m
    return p


def term_lists(names=NAMES, max_terms=5, max_exp=3,
               coeff=st.fractions(-3, 3, max_denominator=3)):
    mono = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return st.lists(st.tuples(coeff, mono), max_size=max_terms)


def field_polys(field):
    # denominators 1..3 are units in GF(7) too
    return term_lists().map(lambda t: build(field, t))


def ref_divided_difference(f, i):
    """The definition: f - s_i f divided by x_i - x_{i+1} by long division."""
    fld = f.field
    num = f - f.swap_x(i)
    if num.is_zero():
        return Poly.zero(fld)
    return exact_divide(num, Poly.var(fld, f"x{i}") - Poly.var(fld, f"x{i+1}"))


class TestClosedFormDividedDifference:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), i=st.sampled_from([1, 2, 3]))
    def test_matches_definition(self, field, data, i):
        f = data.draw(field_polys(field))
        got = divided_difference(f, i)
        want = ref_divided_difference(f, i)
        assert got == want
        assert hash(got) == hash(want)


def coefficient_forms_ok(p):
    """Every QQ coefficient is an int or a Fraction with denominator > 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


qq_polys = term_lists(NAMES[:4], max_terms=4, max_exp=2).map(
    lambda t: build(QQ, t))


class TestRationalCoefficientForm:
    @settings(max_examples=80, deadline=None)
    @given(qq_polys, qq_polys)
    def test_operations_keep_the_form(self, f, g):
        three = Poly.const(QQ, 3)
        results = [f, g, f + g, f - g, f * g, -f, f * Fraction(2, 4),
                   f * Fraction(4, 2), parse_poly(str(f)),
                   exact_divide(f, three), exact_divide(f * 3, three)]
        if not g.is_zero():
            results.append(exact_divide(f * g, g))
        for p in results:
            assert coefficient_forms_ok(p), p.terms

    def test_division(self):
        assert QQ.div(1, 2) == Fraction(1, 2)
        assert type(QQ.div(1, 2)) is Fraction
        assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
        assert type(QQ.div(Fraction(1, 2), Fraction(1, 4))) is int
        with pytest.raises(ZeroDivisionError):
            QQ.div(1, 0)

    def test_field_constants_and_coercion(self):
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(QQ.coerce(Fraction(6, 3))) is int
        assert type(QQ.coerce(Fraction(1, 3))) is Fraction
        assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
        assert type(QQ.sub(Fraction(3, 2), Fraction(1, 2))) is int
        assert type(QQ.mul(Fraction(2, 3), 3)) is int
        with pytest.raises(TypeError):
            QQ.coerce(0.5)

    def test_parse_integral_quotient(self):
        p = parse_poly("4/2*x1")
        assert p.terms == {(0, 0, 1): 2}
        assert [type(c) for c in p.terms.values()] == [int]

    @settings(max_examples=60, deadline=None)
    @given(term_lists(NAMES[:4], max_terms=4, max_exp=2,
                      coeff=st.integers(-5, 5)))
    def test_int_and_fraction_inputs_agree(self, terms):
        p = build(QQ, terms)
        q = build(QQ, [(Fraction(c), e) for c, e in terms])
        r = build(QQ, [(Fraction(2 * c, 2), e) for c, e in terms])
        assert p == q == r
        assert hash(p) == hash(q) == hash(r)
        assert all(type(c) is int for c in q.terms.values())

    def test_rendering(self):
        half = Fraction(1, 2)
        assert str(-half * X1) == "-1/2*x1"
        assert str(X1 * half - Y) == "1/2*x1 - y"
        assert str(Poly.const(QQ, Fraction(-7, 3))) == "-7/3"
        assert str(Poly.const(QQ, Fraction(6, 3)) * X1) == "2*x1"
