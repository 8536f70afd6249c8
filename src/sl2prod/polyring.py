"""Exact sparse multivariate polynomial arithmetic.

Polynomials are the universal scalars of the library.  Coefficients live in
an exact field (rationals by default, or a prime field).  A rational
coefficient is an ``int`` while it is integral and a ``Fraction`` with
denominator > 1 otherwise, so integral arithmetic never builds a
``Fraction``; prime-field coefficients are ``int`` residues.  Variables are
drawn from the fixed alphabet ``{u, y, x1, x2, ...}`` with the global order
``u < y < x1 < x2 < ...``, and terms are stored as a sparse map from exponent
tuples to nonzero coefficients.  Position k of an exponent tuple holds the
exponent of the k-th variable of the global order (``var_index`` and
``var_name`` translate), and no tuple ends in a zero.  So every polynomial has
one layout and no operation realigns its operands.  All values are immutable;
all operations are pure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, sub
from typing import Iterable, Mapping


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division has a nonzero remainder."""


# ---------------------------------------------------------------------------
# coefficient fields


def _integral(q):
    """A rational with an integral ``Fraction`` demoted to ``int``."""
    if q.__class__ is int or q.denominator != 1:
        return q
    return q.numerator


class Rationals:
    """The field of exact rationals.  A coefficient is an ``int`` while it is
    integral and a ``Fraction`` with denominator > 1 otherwise; every
    operation returns this form, so an ``int`` result never becomes a
    ``Fraction`` and no result is ever a ``float``."""

    name = "QQ"
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, (int, Fraction)):
            return _integral(v)
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    def add(self, a, b):
        return _integral(a + b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return _integral(Fraction(a, b))

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2..41, which is exact below
    3317044064679887385961981 (Sorenson and Webster, 2015); larger n
    raise ValueError."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"{n} is too large to decide primality exactly")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a witnesses n composite when a^d != 1 and a^(d 2^k) != -1 for k < s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << k, n) == n - 1 for k in range(s))
               for a in bases)


class PrimeField:
    """The field of integers modulo a prime, with int coefficients."""

    def __init__(self, p: int):
        if not _is_prime(p):
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
    if spec == "QQ":
        return QQ
    return PrimeField(int(spec))


# ---------------------------------------------------------------------------
# variable order


def var_index(name: str) -> int:
    """The position of a variable in the global order u < y < x1 < x2 < ...:
    u -> 0, y -> 1, x_i -> i + 1."""
    if name == "u":
        return 0
    if name == "y":
        return 1
    i = name[1:]
    if name[:1] == "x" and i.isascii() and i.isdigit() and i[0] != "0":
        return int(i) + 1
    raise ValueError(f"unknown variable {name!r}")


def var_name(index: int) -> str:
    """The variable at a position of the global order; inverse of
    :func:`var_index`."""
    return ("u", "y")[index] if index < 2 else f"x{index - 1}"


def _trim(exps) -> tuple:
    """An exponent sequence as a tuple without trailing zeros."""
    n = len(exps)
    while n and not exps[n - 1]:
        n -= 1
    return tuple(exps[:n])


def split_var(terms: Mapping[tuple, object], k: int) -> dict:
    """The terms of a polynomial grouped by the exponent of the k-th
    variable: each exponent maps to the terms of its coefficient, which no
    longer involve that variable."""
    groups: dict = {}
    for e, c in terms.items():
        rest = _trim(e[:k] + (0,) + e[k + 1:]) if k < len(e) and e[k] else e
        groups.setdefault(e[k] if k < len(e) else 0, {})[rest] = c
    return groups


def _monomial_key(exps: tuple):
    """Graded lexicographic key; larger variables dominate within a degree
    (a longer trimmed tuple involves a larger variable)."""
    return (sum(exps), len(exps), exps[::-1])


_ZEROS: dict = {}  # the zero polynomial of each field, see Poly.zero


class Poly:
    """An exact sparse multivariate polynomial over a coefficient field.

    ``terms`` maps exponent tuples on the global variable order (position k
    is ``var_name(k)``, no tuple ends in a zero) to nonzero coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: Mapping[tuple, object]):
        self.field = field
        # callers pass exponent tuples without trailing zeros
        self.terms = {e: c for e, c in terms.items() if c != field.zero}

    # -- constructors

    @classmethod
    def zero(cls, field) -> "Poly":
        """The zero polynomial of a field: one shared value per field, made
        on first use, since polynomials are never mutated."""
        z = _ZEROS.get(field)
        if z is None:
            z = _ZEROS[field] = cls(field, {})
        return z

    @classmethod
    def const(cls, field, value) -> "Poly":
        return cls(field, {(): field.coerce(value)})

    @classmethod
    def var(cls, field, name: str) -> "Poly":
        return cls(field, {(0,) * var_index(name) + (1,): field.one})

    @classmethod
    def one(cls, field) -> "Poly":
        return cls.const(field, 1)

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not exps for exps in self.terms)

    def constant_value(self):
        """The coefficient of the constant term."""
        return self.terms.get((), self.field.zero)

    def with_vars(self, names: Iterable[str]) -> "Poly":
        """The same polynomial over a larger variable set: itself, since
        every polynomial lives on the global variable order."""
        return self

    def _operand(self, other) -> "Poly":
        """``other`` as a polynomial over this field."""
        if not isinstance(other, Poly):
            return Poly.const(self.field, other)
        if other.field is not self.field and other.field != self.field:
            raise ValueError("field mismatch")
        return other

    # -- arithmetic

    def __add__(self, other):
        other = self._operand(other)
        terms = dict(self.terms)
        f = self.field
        for e, c in other.terms.items():
            terms[e] = f.add(terms.get(e, f.zero), c)
        return Poly(f, terms)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Poly(f, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if isinstance(other, (int, Fraction)):
            c0 = f.coerce(other)
            return Poly(f, {e: f.mul(c, c0) for e, c in self.terms.items()})
        return dot(((self, self._operand(other)),), f)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == self._operand(other).terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    # -- substitution and specialization

    def subs(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials for variables."""
        f = self.field
        out = Poly.zero(f)
        for exps, c in self.terms.items():
            term = Poly.const(f, c)
            for k, e in enumerate(exps):
                if e == 0:
                    continue
                name = var_name(k)
                repl = mapping.get(name)
                if repl is None:
                    repl = Poly.var(f, name)
                term = term * repl**e
            out = out + term
        return out

    def swap_x(self, i: int) -> "Poly":
        """Apply the transposition of x_i and x_{i+1}."""
        k = var_index(f"x{i}")
        terms = {}
        for exps, c in self.terms.items():
            e = list(exps) + [0] * (k + 2 - len(exps))
            e[k], e[k + 1] = e[k + 1], e[k]
            terms[_trim(e)] = c
        return Poly(self.field, terms)

    def coeff_of(self, name: str, power: int) -> "Poly":
        """The coefficient polynomial of name**power."""
        groups = split_var(self.terms, var_index(name))
        return Poly(self.field, groups.get(power, {}))

    # -- leading term machinery (graded lex)

    def lead(self):
        """(exponent tuple, coefficient) of the leading monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_monomial_key)
        return e, self.terms[e]

    # -- rendering

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        order = sorted(self.terms, key=_monomial_key, reverse=True)
        parts = []
        for exps in order:
            c = self.terms[exps]
            factors = []
            for k, e in enumerate(exps):
                if e == 1:
                    factors.append(var_name(k))
                elif e > 1:
                    factors.append(f"{var_name(k)}^{e}")
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


def dot(pairs, field) -> Poly:
    """The sum of p * q over pairs of polynomials, accumulated in one term
    dict; a pair with a zero factor costs nothing."""
    fadd, fmul = field.add, field.mul
    terms: dict = {}
    for p, q in pairs:
        qterms = q.terms
        if not (p.terms and qterms):
            continue
        for e1, c1 in p.terms.items():
            for e2, c2 in qterms.items():
                e = tuple(map(add, e1, e2)) + (e1[len(e2):] or e2[len(e1):])
                prod = fmul(c1, c2)
                terms[e] = fadd(terms[e], prod) if e in terms else prod
    return Poly(field, terms)


def exact_divide(f: Poly, g: Poly) -> Poly:
    """The exact quotient f/g; raises NotDivisibleError if g does not divide f.

    Long division by the leading term of g, updating one remainder dict in
    place: each step cancels the leading term of the remainder, and the
    leading monomials strictly decrease, so every quotient monomial is new."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g = f._operand(g)
    fld = f.field
    ge, gc = g.lead()
    n = len(ge)
    gterms = [(e, fld.neg(c)) for e, c in g.terms.items()]
    quo: dict = {}
    rem = dict(f.terms)
    while rem:
        re = max(rem, key=_monomial_key)
        qe = tuple(map(sub, re, ge))
        if len(re) < n or any(e < 0 for e in qe):
            raise NotDivisibleError(f"({f}) is not divisible by ({g})")
        qe = _trim(qe + re[n:])
        qc = quo[qe] = fld.div(rem[re], gc)
        for e2, c2 in gterms:
            e = tuple(map(add, qe, e2)) + (qe[len(e2):] or e2[len(qe):])
            c = fld.mul(qc, c2)
            if e in rem:
                c = fld.add(rem[e], c)
            if c == fld.zero:
                del rem[e]
            else:
                rem[e] = c
    return Poly(fld, quo)


def h_complete(i: int, names: Iterable[str], field=QQ) -> Poly:
    """Complete homogeneous symmetric polynomial h_i in the given variables.

    h_i = 0 for i < 0 and h_0 = 1.
    """
    idx = sorted({var_index(v) for v in names})
    if not idx:
        raise ValueError("h_complete needs at least one variable")
    if i < 0:
        return Poly.zero(field)
    if i == 0:
        return Poly.one(field)
    terms: dict = {}
    for combo in combinations_with_replacement(idx, i):
        exps = [0] * (combo[-1] + 1)
        for k in combo:
            exps[k] += 1
        terms[tuple(exps)] = field.one
    return Poly(field, terms)


# The most work parse_poly does on one text: each product, a power's
# squarings included, costs its factors' terms times their coefficient bits.
PARSE_LIMIT = 10 ** 5


def parse_poly(text: str, field=QQ) -> Poly:
    """Parse the canonical rendering back into a Poly.

    Grammar: sums/differences of products of powers of variables, integer or
    a/b rational constants, with parentheses.  A product that would take
    the work past ``PARSE_LIMIT`` raises ValueError before it is computed.
    """
    tokens = re.findall(r"\d+/\d+|\d+|[a-z]\d*|\^|\*|\+|-|\(|\)", text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"cannot tokenize polynomial {text!r}")
    pos = work = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError(f"polynomial {text!r} ends too early")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum() -> Poly:
        acc = Poly.zero(field)
        while True:
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            acc = acc + parse_product() * sign
            if peek() not in ("+", "-"):
                return acc

    def bits(p):
        return max((abs(c.numerator).bit_length() + c.denominator.bit_length()
                    for c in p.terms.values()), default=0)

    def times(a, b):
        nonlocal work
        work += 1 + len(a.terms) * len(b.terms) * (bits(a) + bits(b))
        if work > PARSE_LIMIT:
            raise ValueError(f"polynomial {text!r} expands past PARSE_LIMIT")
        return a * b

    def parse_product() -> Poly:
        acc = parse_power()
        while peek() == "*":
            take()
            acc = times(acc, parse_power())
        return acc

    def parse_power() -> Poly:
        acc = base = parse_atom()
        if peek() == "^":
            take()
            acc, exp = Poly.one(field), int(take())
            while exp:
                if exp & 1:
                    acc = times(acc, base)
                exp >>= 1
                if exp:
                    base = times(base, base)
        return acc

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
    """The divided difference (f - s_i f) / (x_i - x_{i+1}), term by term.

    The other variables factor out, and on x_i^a x_{i+1}^b the operator is
    the closed form

        a > b:  sum_{j < a-b} x_i^(a-1-j) x_{i+1}^(b+j)
        a < b:  minus the same sum with a and b exchanged
        a = b:  0.
    """
    fld = f.field
    k = var_index(f"x{i}")
    terms: dict = {}
    for exps, c in f.terms.items():
        e = list(exps) + [0] * (k + 2 - len(exps))
        a, b = e[k], e[k + 1]
        if a == b:
            continue
        hi, lo = max(a, b), min(a, b)
        if a < b:
            c = fld.neg(c)
        for j in range(hi - lo):
            e[k], e[k + 1] = hi - 1 - j, lo + j
            key = _trim(e)
            terms[key] = fld.add(terms[key], c) if key in terms else c
    return Poly(fld, terms)
