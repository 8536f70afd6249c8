"""The nil affine Hecke algebra on n strands, extended by a central variable y.

Elements are kept in the normal form ``sum_w  p_w * t_w`` where ``t_w`` is the
product of divided-difference generators along a fixed (shortlex-minimal)
reduced word for the permutation ``w`` and ``p_w`` is a polynomial coefficient
in ``x1..xn, y`` collected on the left.  The defining relations are

    t_i^2 = 0,
    t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1},
    t_i x_i = x_{i+1} t_i + 1,      t_i x_{i+1} = x_i t_i - 1,
    t_i x_j = x_j t_i  (j not in {i, i+1}),

realized by the rewriting rules below; the polynomial representation (t_i
acting as the divided difference, x_i and y as multiplication) serves as a
faithfulness oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .polyring import Poly, QQ, divided_difference


class IndexOutOfRangeError(IndexError):
    """A generator index escapes 1..n-1 (tau) or 1..n (x)."""


# ---------------------------------------------------------------------------
# symmetric group bookkeeping


@lru_cache(maxsize=None)
def _perm_tables(n: int):
    """Canonical reduced words and right-multiplication tables for S_n.

    Returns (words, right) where words maps a permutation (as an image
    tuple) to its shortlex-minimal reduced word, and right[(perm, i)] is the
    pair (new perm, +1/-1 length change) for right multiplication by s_i.

    A breadth-first search that visits each level in shortlex order and keeps
    the first word reaching a permutation finds these words, because every
    prefix of a shortlex-minimal reduced word is itself shortlex-minimal.
    """
    idperm = tuple(range(n))
    words = {idperm: ()}
    frontier = [idperm]
    while frontier:
        new_frontier = []
        for p in frontier:
            for i in range(1, n):
                q = list(p)
                q[i - 1], q[i] = q[i], q[i - 1]
                q = tuple(q)
                if q not in words:
                    words[q] = words[p] + (i,)
                    new_frontier.append(q)
        frontier = new_frontier
    right = {}
    for p in words:
        for i in range(1, n):
            q = list(p)
            q[i - 1], q[i] = q[i], q[i - 1]
            q = tuple(q)
            right[(p, i)] = (q, 1 if len(words[q]) > len(words[p]) else -1)
    return words, right


def _word_to_perm(n: int, word) -> tuple:
    p = list(range(n))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


class NilHeckeElt:
    """A normal-form element: map from canonical reduced words to the Poly
    coefficient standing on the left of the tau word."""

    __slots__ = ("n", "terms", "field")

    def __init__(self, n: int, terms: dict, field=QQ):
        self.n = n
        self.field = field
        self.terms = {w: p for w, p in terms.items() if not p.is_zero()}

    # -- constructors

    @classmethod
    def zero(cls, n: int, field=QQ) -> "NilHeckeElt":
        return cls(n, {}, field)

    @classmethod
    def one(cls, n: int, field=QQ) -> "NilHeckeElt":
        return cls(n, {(): Poly.one(field)}, field)

    @classmethod
    def tau(cls, n: int, i: int, field=QQ) -> "NilHeckeElt":
        if not 1 <= i <= n - 1:
            raise IndexOutOfRangeError(f"tau index {i} not in 1..{n-1}")
        return cls(n, {(i,): Poly.one(field)}, field)

    @classmethod
    def x(cls, n: int, i: int, field=QQ) -> "NilHeckeElt":
        if not 1 <= i <= n:
            raise IndexOutOfRangeError(f"x index {i} not in 1..{n}")
        return cls(n, {(): Poly.var(field, f"x{i}")}, field)

    @classmethod
    def y(cls, n: int, field=QQ) -> "NilHeckeElt":
        return cls(n, {(): Poly.var(field, "y")}, field)

    @classmethod
    def scalar(cls, n: int, value, field=QQ) -> "NilHeckeElt":
        return cls(n, {(): Poly.const(field, value)}, field)

    # -- ring structure

    def __add__(self, other: "NilHeckeElt") -> "NilHeckeElt":
        terms = dict(self.terms)
        for w, p in other.terms.items():
            terms[w] = terms[w] + p if w in terms else p
        return NilHeckeElt(self.n, terms, self.field)

    def __neg__(self) -> "NilHeckeElt":
        return NilHeckeElt(self.n, {w: -p for w, p in self.terms.items()}, self.field)

    def __sub__(self, other: "NilHeckeElt") -> "NilHeckeElt":
        return self + (-other)

    def _lmul_poly(self, p: Poly) -> "NilHeckeElt":
        """Left multiplication by a polynomial (no rewriting needed)."""
        return NilHeckeElt(self.n, {w: p * q for w, q in self.terms.items()}, self.field)

    def _mul_tau(self, i: int) -> "NilHeckeElt":
        """Right multiplication by tau_i, restoring normal form."""
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRangeError(f"tau index {i} not in 1..{self.n-1}")
        words, right = _perm_tables(self.n)
        out: dict = {}
        for w, p in self.terms.items():
            # p * t_w * t_i: words combine; length drop kills the term
            perm = _word_to_perm(self.n, w)
            q, change = right[(perm, i)]
            if change > 0:
                nw = words[q]
                out[nw] = out[nw] + p if nw in out else p
        return NilHeckeElt(self.n, out, self.field)

    def _word_times_poly(self, w: tuple, q: Poly) -> "NilHeckeElt":
        """The normal form of t_w * q (polynomial pushed to the left)."""
        if not w:
            return NilHeckeElt(self.n, {(): q}, self.field)
        j = w[-1]
        # t_w * q = t_{w'} * (s_j q) * t_j + t_{w'} * d_j(q)
        head = self._word_times_poly(w[:-1], q.swap_x(j))._mul_tau(j)
        dq = divided_difference(q, j)
        if not dq.is_zero():
            head = head + self._word_times_poly(w[:-1], dq)
        return head

    def _mul_poly(self, q: Poly) -> "NilHeckeElt":
        """Right multiplication by a polynomial, restoring normal form."""
        result = NilHeckeElt.zero(self.n, self.field)
        for w, p in self.terms.items():
            result = result + self._word_times_poly(w, q)._lmul_poly(p)
        return result

    def __mul__(self, other) -> "NilHeckeElt":
        if isinstance(other, Poly):
            return self._mul_poly(other)
        if isinstance(other, (int,)):
            return self._mul_poly(Poly.const(self.field, other))
        if not isinstance(other, NilHeckeElt):
            return NotImplemented
        result = NilHeckeElt.zero(self.n, self.field)
        for w, q in other.terms.items():
            part = self._mul_poly(q)
            for i in w:
                part = part._mul_tau(i)
            result = result + part
        return result

    def __rmul__(self, other):
        if isinstance(other, (int,)):
            return self._lmul_poly(Poly.const(self.field, other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, NilHeckeElt):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            p = self.terms[w]
            tw = "*".join(f"t{i}" for i in w) if w else "1"
            parts.append(f"({p})*{tw}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# word-level API


def normalize(n: int, word, field=QQ) -> NilHeckeElt:
    """Normalize a product of generator tokens, folded left to right.

    Tokens: ``("tau", i)``, ``("x", i)``, ``("y",)``, ``("scalar", c)``,
    ``("y_", i)`` for the shorthand x_i - y.
    """
    factors = []
    for tok in word:
        kind = tok[0]
        if kind == "tau":
            factors.append(NilHeckeElt.tau(n, tok[1], field))
        elif kind == "x":
            factors.append(NilHeckeElt.x(n, tok[1], field))
        elif kind == "y":
            factors.append(NilHeckeElt.y(n, field))
        elif kind == "y_":
            factors.append(NilHeckeElt.x(n, tok[1], field) - NilHeckeElt.y(n, field))
        elif kind == "scalar":
            factors.append(NilHeckeElt.scalar(n, tok[1], field))
        else:
            raise ValueError(f"unknown token {tok!r}")
    if not factors:
        return NilHeckeElt.one(n, field)
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc


def act_on_poly(e: NilHeckeElt, f: Poly) -> Poly:
    """The polynomial representation: tau_i acts as the divided difference,
    x_i and y act by multiplication; the tau word acts first, rightmost
    letter innermost, then the left coefficient multiplies."""
    out = Poly.zero(f.field)
    for w, p in e.terms.items():
        g = f
        for i in reversed(w):
            g = divided_difference(g, i)
        out = out + p * g
    return out


def divided_power_idempotents(n: int = 2, field=QQ):
    """The orthogonal idempotents (tau*y1, -y2*tau) on two strands."""
    if n != 2:
        raise ValueError("divided power idempotents are implemented for n=2")
    t = NilHeckeElt.tau(2, 1, field)
    y1 = NilHeckeElt.x(2, 1, field) - NilHeckeElt.y(2, field)
    y2 = NilHeckeElt.x(2, 2, field) - NilHeckeElt.y(2, field)
    e_plus = t * y1
    e_minus = -(y2 * t)
    return e_plus, e_minus
