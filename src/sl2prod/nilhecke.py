"""The nil affine Hecke algebra on n strands, extended by a central variable y.

An element is a formal sum of words in the generators: polynomials in
``x1..xn, y`` and the crossings ``t_i``.  The defining relations

    t_i^2 = 0,
    t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1},
    t_i x_i = x_{i+1} t_i + 1,      t_i x_{i+1} = x_i t_i - 1,
    t_i x_j = x_j t_i  (j not in {i, i+1}),

are never applied as rewriting rules.  Equality is decided instead in the
polynomial representation (t_i acting as the divided difference, x_i and y
as multiplication), which is faithful; see ``NilHeckeElt``.
"""

from __future__ import annotations

from itertools import product

from .polyring import Poly, QQ, divided_difference


class IndexOutOfRangeError(IndexError):
    """A generator index escapes 1..n-1 (tau) or 1..n (x)."""


_BASES: dict = {}


def _artin_basis(n: int, field=QQ) -> list:
    """The n! Artin monomials x1^a1 ... xn^an with a_k < k, a basis of
    Pol_n over Sym_n.  Built once per (n, field)."""
    key = (n, field)
    if key not in _BASES:
        xs = [Poly.var(field, f"x{k}") for k in range(1, n + 1)]
        basis = []
        for exps in product(*(range(k) for k in range(1, n + 1))):
            m = Poly.one(field)
            for x, a in zip(xs, exps):
                m = m * x ** a
            basis.append(m)
        _BASES[key] = basis
    return _BASES[key]


class NilHeckeElt:
    """A sum of words.  Each factor of a word is a ``Poly``, which
    multiplies, or an int i, which is the crossing t_i.

    Two elements are equal when they act equally on the Artin monomials.
    NH_n acts faithfully on Pol_n = k[x1..xn], and NH_n is isomorphic to
    End_{Sym_n}(Pol_n) (Lauda, "A categorification of quantum sl(2)",
    Adv. Math. 225, 2010); this holds over Z, so over QQ and every GF(p).
    Every element of NH_n[y] acts Sym_n[y]-linearly on Pol_n[y], which is
    free over Sym_n[y] on the Artin monomials.  So equal actions on that
    basis mean equal elements.  No hash agrees with this equality."""

    __slots__ = ("n", "words", "field")

    def __init__(self, n: int, words, field=QQ):
        self.n = n
        self.field = field
        self.words = list(words)

    # -- constructors

    @classmethod
    def zero(cls, n: int, field=QQ) -> "NilHeckeElt":
        return cls(n, [], field)

    @classmethod
    def one(cls, n: int, field=QQ) -> "NilHeckeElt":
        return cls(n, [()], field)

    @classmethod
    def tau(cls, n: int, i: int, field=QQ) -> "NilHeckeElt":
        if not 1 <= i <= n - 1:
            raise IndexOutOfRangeError(f"tau index {i} not in 1..{n-1}")
        return cls(n, [(i,)], field)

    @classmethod
    def x(cls, n: int, i: int, field=QQ) -> "NilHeckeElt":
        if not 1 <= i <= n:
            raise IndexOutOfRangeError(f"x index {i} not in 1..{n}")
        return cls(n, [(Poly.var(field, f"x{i}"),)], field)

    @classmethod
    def y(cls, n: int, field=QQ) -> "NilHeckeElt":
        return cls(n, [(Poly.var(field, "y"),)], field)

    @classmethod
    def scalar(cls, n: int, value, field=QQ) -> "NilHeckeElt":
        return cls(n, [(Poly.const(field, value),)], field)

    # -- ring structure

    def __add__(self, other: "NilHeckeElt") -> "NilHeckeElt":
        return NilHeckeElt(self.n, self.words + other.words, self.field)

    def __neg__(self) -> "NilHeckeElt":
        return -1 * self

    def __sub__(self, other: "NilHeckeElt") -> "NilHeckeElt":
        return self + (-other)

    def __mul__(self, other) -> "NilHeckeElt":
        if isinstance(other, int):
            other = Poly.const(self.field, other)
        if isinstance(other, Poly):
            other = NilHeckeElt(self.n, [(other,)], self.field)
        if not isinstance(other, NilHeckeElt):
            return NotImplemented
        return NilHeckeElt(self.n, [u + v for u in self.words
                                    for v in other.words], self.field)

    def __rmul__(self, other):
        if isinstance(other, int):
            c = Poly.const(self.field, other)
            return NilHeckeElt(self.n, [(c,) + w for w in self.words],
                               self.field)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, NilHeckeElt):
            return NotImplemented
        return self.n == other.n and all(
            act_on_poly(self, m) == act_on_poly(other, m)
            for m in _artin_basis(self.n, self.field))

    __hash__ = None

    def __str__(self) -> str:
        if not self.words:
            return "0"
        return " + ".join(
            "*".join(f"t{f}" if isinstance(f, int) else f"({f})" for f in w)
            or "1" for w in self.words)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# word-level API


def normalize(n: int, word, field=QQ) -> NilHeckeElt:
    """The product of generator tokens, folded left to right.

    Tokens: ``("tau", i)``, ``("x", i)``, ``("y",)``, ``("scalar", c)``,
    ``("y_", i)`` for the shorthand x_i - y.
    """
    acc = NilHeckeElt.one(n, field)
    for tok in word:
        kind = tok[0]
        if kind == "tau":
            f = NilHeckeElt.tau(n, tok[1], field)
        elif kind == "x":
            f = NilHeckeElt.x(n, tok[1], field)
        elif kind == "y":
            f = NilHeckeElt.y(n, field)
        elif kind == "y_":
            f = NilHeckeElt.x(n, tok[1], field) - NilHeckeElt.y(n, field)
        elif kind == "scalar":
            f = NilHeckeElt.scalar(n, tok[1], field)
        else:
            raise ValueError(f"unknown token {tok!r}")
        acc = acc * f
    return acc


def act_on_poly(e: NilHeckeElt, f: Poly) -> Poly:
    """The polynomial representation: tau_i acts as the divided difference,
    x_i and y act by multiplication; each word acts rightmost factor
    first."""
    out = Poly.zero(f.field)
    for w in e.words:
        g = f
        for factor in reversed(w):
            g = (divided_difference(g, factor) if isinstance(factor, int)
                 else factor * g)
        out = out + g
    return out


def divided_power_idempotents(field=QQ):
    """The orthogonal idempotents (tau*y1, -y2*tau) on two strands."""
    t = NilHeckeElt.tau(2, 1, field)
    y1 = NilHeckeElt.x(2, 1, field) - NilHeckeElt.y(2, field)
    y2 = NilHeckeElt.x(2, 2, field) - NilHeckeElt.y(2, field)
    e_plus = t * y1
    e_minus = -(y2 * t)
    return e_plus, e_minus
