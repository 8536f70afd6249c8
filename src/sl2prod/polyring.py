"""Exact sparse multivariate polynomial arithmetic.

Polynomials are the universal scalars of the library.  Coefficients live in
an exact field (rationals by default, or a prime field), variables are drawn
from the fixed alphabet ``{u, y, x1, x2, ...}`` with the global order
``u < y < x1 < x2 < ...``, and terms are stored as a sparse map from exponent
tuples to nonzero coefficients.  All values are immutable; all operations are
pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division has a nonzero remainder."""


# ---------------------------------------------------------------------------
# coefficient fields


class Rationals:
    """The field of exact rationals, with Fraction coefficients."""

    name = "QQ"

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field of integers modulo a prime, with int coefficients."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            return self.div(v.numerator % self.p, v.denominator % self.p)
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def make_field(spec: str):
    """Parse a field tag: ``"QQ"`` or a prime such as ``"7"``."""
    if spec in ("QQ", "rationals", "Q"):
        return QQ
    return PrimeField(int(spec))


# ---------------------------------------------------------------------------
# variable order


def var_key(name: str):
    """Sort key realizing the global variable order u < y < x1 < x2 < ..."""
    if name == "u":
        return (0, 0)
    if name == "y":
        return (1, 0)
    if name.startswith("x"):
        return (2, int(name[1:]))
    raise ValueError(f"unknown variable {name!r}")


def sort_vars(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=var_key))


def _monomial_key(names: tuple[str, ...], exps: tuple[int, ...]):
    """Graded lexicographic key; larger variables dominate within a degree."""
    # names are sorted ascending, so reverse for lexicographic comparison
    return (sum(exps), tuple(reversed(exps)))


class Poly:
    """An exact sparse multivariate polynomial over a coefficient field."""

    __slots__ = ("field", "names", "terms", "_hash")

    def __init__(self, field, names: Iterable[str], terms: Mapping[tuple, object]):
        self.field = field
        self.names = sort_vars(names)
        # callers pass exponent tuples aligned with sorted names
        self.terms = {e: c for e, c in terms.items() if c != field.zero}
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls, field, names: Iterable[str] = ()) -> "Poly":
        return cls(field, names, {})

    @classmethod
    def const(cls, field, value, names: Iterable[str] = ()) -> "Poly":
        c = field.coerce(value)
        names = sort_vars(names)
        if c == field.zero:
            return cls(field, names, {})
        return cls(field, names, {(0,) * len(names): c})

    @classmethod
    def var(cls, field, name: str) -> "Poly":
        return cls(field, (name,), {(1,): field.one})

    @classmethod
    def one(cls, field, names: Iterable[str] = ()) -> "Poly":
        return cls.const(field, 1, names)

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        """The coefficient of the constant term."""
        zero_exp = (0,) * len(self.names)
        return self.terms.get(zero_exp, self.field.zero)

    def with_vars(self, names: Iterable[str]) -> "Poly":
        """The same polynomial over the union variable set."""
        new_names = sort_vars(tuple(self.names) + tuple(names))
        if new_names == self.names:
            return self
        pos = [new_names.index(v) for v in self.names]
        n = len(new_names)
        terms = {}
        for exps, c in self.terms.items():
            new_exp = [0] * n
            for p, e in zip(pos, exps):
                new_exp[p] = e
            terms[tuple(new_exp)] = c
        return Poly(self.field, new_names, terms)

    def _aligned(self, other: "Poly"):
        if not isinstance(other, Poly):
            other = Poly.const(self.field, other, self.names)
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.names == other.names:
            return self, other
        union = sort_vars(self.names + other.names)
        return self.with_vars(union), other.with_vars(union)

    # -- arithmetic

    def __add__(self, other):
        a, b = self._aligned(other)
        terms = dict(a.terms)
        f = a.field
        for e, c in b.terms.items():
            terms[e] = f.add(terms.get(e, f.zero), c)
        return Poly(f, a.names, terms)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Poly(f, self.names, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.field, other, self.names)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = self.field
            c0 = f.coerce(other)
            return Poly(f, self.names, {e: f.mul(c, c0) for e, c in self.terms.items()})
        a, b = self._aligned(other)
        f = a.field
        terms: dict = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                prod = f.mul(c1, c2)
                if e in terms:
                    terms[e] = f.add(terms[e], prod)
                else:
                    terms[e] = prod
        return Poly(f, a.names, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.field, self.names)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.field, other, self.names)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        if self._hash is None:
            # hash ignores inert variables so that equal polynomials collide
            items = frozenset(
                (tuple(v for v, e in zip(self.names, exps) if e),
                 tuple(e for e in exps if e), c)
                for exps, c in self.terms.items()
            )
            self._hash = hash((self.field, items))
        return self._hash

    # -- substitution and specialization

    def subs(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials for variables."""
        f = self.field
        out = Poly.zero(f, ())
        for exps, c in self.terms.items():
            term = Poly.const(f, c)
            for name, e in zip(self.names, exps):
                if e == 0:
                    continue
                repl = mapping.get(name)
                if repl is None:
                    repl = Poly.var(f, name)
                term = term * repl**e
            out = out + term
        return out

    def swap_x(self, i: int) -> "Poly":
        """Apply the transposition of x_i and x_{i+1}."""
        f = self.field
        return self.subs({f"x{i}": Poly.var(f, f"x{i+1}"), f"x{i+1}": Poly.var(f, f"x{i}")})

    def coeff_of(self, name: str, power: int) -> "Poly":
        """The coefficient polynomial of name**power."""
        if name not in self.names:
            if power == 0:
                return self
            return Poly.zero(self.field, self.names)
        idx = self.names.index(name)
        terms = {}
        for exps, c in self.terms.items():
            if exps[idx] == power:
                e = exps[:idx] + (0,) + exps[idx + 1:]
                terms[e] = c
        return Poly(self.field, self.names, terms)

    # -- leading term machinery (graded lex)

    def lead(self):
        """(exponent tuple, coefficient) of the leading monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda exps: _monomial_key(self.names, exps))
        return e, self.terms[e]

    # -- rendering

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        order = sorted(self.terms, key=lambda e: _monomial_key(self.names, e), reverse=True)
        parts = []
        for exps in order:
            c = self.terms[exps]
            factors = []
            for name, e in zip(self.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = f.to_str(c)
            if factors:
                mono = "*".join(factors)
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{cs}*{mono}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# operations


def exact_divide(f: Poly, g: Poly) -> Poly:
    """The exact quotient f/g; raises NotDivisibleError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return Poly.zero(f.field, f.names)
    a, b = f._aligned(g)
    fld = a.field
    names = a.names
    ge, gc = b.lead()
    quo: dict = {}
    rem = a
    while not rem.is_zero():
        re, rc = rem.lead()
        qe = tuple(i - j for i, j in zip(re, ge))
        if any(e < 0 for e in qe):
            raise NotDivisibleError(f"({f}) is not divisible by ({g})")
        qc = fld.div(rc, gc)
        quo[qe] = fld.add(quo.get(qe, fld.zero), qc)
        rem = rem - Poly(fld, names, {qe: qc}) * b
    return Poly(fld, names, quo)


def h_complete(i: int, names: Iterable[str], field=QQ) -> Poly:
    """Complete homogeneous symmetric polynomial h_i in the given variables.

    h_i = 0 for i < 0 and h_0 = 1.
    """
    names = sort_vars(names)
    if not names:
        raise ValueError("h_complete needs at least one variable")
    if i < 0:
        return Poly.zero(field, names)
    if i == 0:
        return Poly.one(field, names)
    n = len(names)
    terms: dict = {}
    for combo in combinations_with_replacement(range(n), i):
        exps = [0] * n
        for idx in combo:
            exps[idx] += 1
        terms[tuple(exps)] = field.one
    return Poly(field, names, terms)


def parse_poly(text: str, field=QQ) -> Poly:
    """Parse the canonical rendering back into a Poly.

    Grammar: sums/differences of products of powers of variables, integer or
    a/b rational constants, with parentheses.
    """
    import re

    tokens = re.findall(r"\d+/\d+|\d+|[a-z]\d*|\^|\*|\+|-|\(|\)", text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"cannot tokenize polynomial {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum() -> Poly:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        acc = parse_product() * sign
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            acc = acc + parse_product() * sign
        return acc

    def parse_product() -> Poly:
        acc = parse_power()
        while peek() == "*":
            take()
            acc = acc * parse_power()
        return acc

    def parse_power() -> Poly:
        base = parse_atom()
        if peek() == "^":
            take()
            exp = int(take())
            return base**exp
        return base

    def parse_atom() -> Poly:
        tok = take()
        if tok == "(":
            inner = parse_sum()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        if "/" in tok:
            num, den = tok.split("/")
            return Poly.const(field, field.div(field.coerce(int(num)), field.coerce(int(den))))
        if tok.isdigit():
            return Poly.const(field, int(tok))
        return Poly.var(field, tok)

    out = parse_sum()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in polynomial {text!r}")
    return out


def divided_difference(f: Poly, i: int) -> Poly:
    """The operator (f - s_i f) / (x_i - x_{i+1}), always exact."""
    fld = f.field
    num = f - f.swap_x(i)
    if num.is_zero():
        return Poly.zero(fld, f.names)
    denom = Poly.var(fld, f"x{i}") - Poly.var(fld, f"x{i+1}")
    return exact_divide(num, denom)
