"""Elementwise calculus on word-module components.

An :class:`Elt` is an element of one weight component of a word module:
a coordinate column over the base ring at its weight.  The two primitives
are ``elem_tensor`` (concatenate two elements into the tensor word, applying
each left-factor coefficient to the right factor's column by Horner's rule,
``Bimodule.left_apply``, with no matrix formed; a coefficient in the
generators that act as themselves, y among them, takes no Horner step) and
``join`` (tensor then contract adjacent E/F pairs at the junction), from
which evaluation and composition of all morphism data are built.
``solve_op`` divides by an operator y_i = x_i - y exactly, by
back-substitution in y: no determinant is formed.

An element applies the positional generators of its own word, each the
memoized ``TwoRep`` map: ``v.x(i)``, ``v.y(i)`` and ``v.tau(i)`` (as
``x_at``, ``y_at`` and ``tau_at``), ``v.eta(pos)`` (insert FE at pos) and
``v.tau_mate()`` (the crossing on the leading FF).  A chain applies left
to right: ``v.y(1).tau(1)`` is tau_1 . y_1.  The zero column comes at once
from ``Matrix.apply``, the one matrix-column product, on a zero element.

Elements are immutable after construction: every operation returns a new
element, and nothing writes to ``vec`` once the element is built.  So the
memo can share an element, it compares and hashes by value, and a value
computed from it (such as a model element's datum) can be kept with it.
"""

from __future__ import annotations

from ..polyring import Poly, split_var, var_index
from ..matrixops import ShapeMismatchError


class NotInModelError(ValueError):
    """Element data does not satisfy the defining membership conditions."""


def word_shift(word: str) -> int:
    return 2 * (word.count("E") - word.count("F"))


class Elt:
    """An element of a word-module component at a single source weight."""
    __slots__ = ("rep", "word", "weight", "vec")

    def __init__(self, rep, word: str, weight: int, vec: list):
        self.rep = rep  # the underlying TwoRep; y acts on it by scalars
        self.word = word
        self.weight = weight
        self.vec = vec

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.vec)

    def __add__(self, other: "Elt") -> "Elt":
        if (self.word, self.weight, len(self.vec)) != (
                other.word, other.weight, len(other.vec)):
            raise ShapeMismatchError(
                f"add {self.word}@{self.weight} of length {len(self.vec)} "
                f"to {other.word}@{other.weight} of length {len(other.vec)}")
        return Elt(self.rep, self.word, self.weight,
                   [a + b for a, b in zip(self.vec, other.vec)])

    def __sub__(self, other: "Elt") -> "Elt":
        return self + (-other)

    def __neg__(self) -> "Elt":
        return Elt(self.rep, self.word, self.weight, [-p for p in self.vec])

    def __hash__(self):
        return hash((self.word, self.weight, *self.vec))

    def to_vec(self) -> list:
        """The coordinate column, as a model element's ``to_vec`` gives it."""
        return self.vec

    def scale(self, p) -> "Elt":
        """Right multiplication by a base-ring element (coordinatewise)."""
        return Elt(self.rep, self.word, self.weight, [q * p for q in self.vec])

    def x(self, i: int) -> "Elt":
        return apply_map(self.rep.x_at(self.word, i), self, self.word)

    def y(self, i: int) -> "Elt":
        return apply_map(self.rep.y_at(self.word, i), self, self.word)

    def tau(self, i: int) -> "Elt":
        return apply_map(self.rep.tau_at(self.word, i), self, self.word)

    def eta(self, pos: int) -> "Elt":
        w = self.word
        return apply_map(self.rep.eta_at(w, pos), self,
                         w[:pos] + "FE" + w[pos:])

    def tau_mate(self) -> "Elt":
        if not self.word.startswith("FF"):
            raise ShapeMismatchError(f"no leading FF in {self.word!r}")
        return apply_map(self.rep.tau_mate(self.word[2:]), self, self.word)

    def __eq__(self, other):
        if not isinstance(other, Elt):
            return NotImplemented
        return (self.word == other.word and self.weight == other.weight
                and self.vec == other.vec)

    def __repr__(self):
        return f"Elt({self.word!r}@{self.weight}: {[str(p) for p in self.vec]})"


def zero_elt(rep, word: str, weight: int) -> Elt:
    z = Poly.zero(rep.A.field)
    return Elt(rep, word, weight, [z] * rep.word(word).rank(weight))


def basis_elt(rep, word: str, weight: int, index: int) -> Elt:
    vec = zero_elt(rep, word, weight).vec
    vec[index] = Poly.one(rep.A.field)
    return Elt(rep, word, weight, vec)


def apply_map(f, elt: Elt, out_word: str) -> Elt:
    """Apply a BimoduleMap to an element (matrix at the element's weight)."""
    m = f.matrix(elt.weight)
    if m.ncols != len(elt.vec):
        raise ShapeMismatchError(
            f"map expects {m.ncols} coordinates, element has {len(elt.vec)}")
    return Elt(elt.rep, out_word, elt.weight, m.apply(elt.vec))


def elem_tensor(a: Elt, b: Elt) -> Elt:
    """The simple tensor a (x) b in the concatenated word module.

    Each coordinate p of a contributes the block (left action of p) @ b,
    applied to b's column by Horner's rule."""
    rep = a.rep
    if a.weight != b.weight + word_shift(b.word):
        raise ShapeMismatchError(
            f"tensor {a.word}@{a.weight} (x) {b.word}@{b.weight}: "
            f"left weight must be {b.weight + word_shift(b.word)}")
    N = rep.word(b.word)
    field = rep.A.field
    live = any(q.terms for q in b.vec)
    out = []
    for p in a.vec:
        if p.terms and live:
            out += N.left_apply(b.weight, p, b.vec)
        else:
            out += [Poly.zero(field)] * len(b.vec)
    return Elt(rep, a.word + b.word, b.weight, out)


def join(a: Elt, b: Elt, n: int) -> Elt:
    """Tensor a (x) b, then contract n adjacent E/F pairs at the junction.

    Requires a.word to end in n letters E and b.word to start with n
    letters F.  Contraction realizes evaluation and composition of
    morphism data held in dual-word form.
    """
    if n and (not a.word.endswith("E" * n) or not b.word.startswith("F" * n)):
        raise ShapeMismatchError(f"join {a.word!r} |{n}| {b.word!r}")
    out = elem_tensor(a, b)
    for step in range(n):
        pos = len(a.word) - 1 - step
        f = out.rep.eps_at(out.word, pos)
        out = apply_map(f, out, out.word[:pos] + out.word[pos + 2:])
    return out


def solve_op(elt: Elt, i: int) -> Elt:
    """The element v with ``v.y(i) == elt``: exact division by the operator
    y_i = x_i - y of the element's word module, or NotInModelError.

    The matrix X of x_i never involves y (the loader reserves y, and lifts
    add none), so with r_k and v_k the coefficients of y^k in ``elt`` and
    v, the coefficient of y^k in (X - y) v is X v_k - v_(k-1).  Setting
    v_(k-1) = X v_k - r_k from the top y-degree of ``elt`` down satisfies
    every coefficient equation but the last, so X v_0 = r_0 is the whole
    membership test."""
    rep = elt.rep
    field = rep.A.field
    X = rep.x_at(elt.word, i).matrix(elt.weight)
    y = Poly.var(field, "y")
    layers = [split_var(p.terms, var_index("y")) for p in elt.vec]
    top = max((k for g in layers for k in g), default=0)
    r = [[Poly(field, g.get(k, {})) for g in layers] for k in range(top + 1)]
    v = out = [Poly.zero(field)] * len(elt.vec)
    for rk in reversed(r[1:]):
        v = [p - c for p, c in zip(X.apply(v), rk)]
        out = [p * y + q for p, q in zip(out, v)]
    if X.apply(v) != r[0]:
        raise NotInModelError("membership division leaves a remainder")
    return Elt(rep, elt.word, elt.weight, out)
