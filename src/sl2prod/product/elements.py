"""Elementwise calculus on word-module components.

An :class:`Elt` is an element of one weight component of a word module:
a coordinate column over the base ring at its weight.  The two primitives
are ``elem_tensor`` (concatenate two elements into the tensor word, pushing
left-factor coefficients through the left action) and ``join`` (tensor then
contract adjacent E/F pairs at the junction), from which evaluation and
composition of all morphism data are built.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..polyring import NotDivisibleError, Poly, exact_divide
from ..matrixops import Matrix, ShapeMismatchError, bareiss_determinant, adjugate


class NotInModelError(ValueError):
    """Element data does not satisfy the defining membership conditions."""


def word_shift(word: str) -> int:
    return 2 * (word.count("E") - word.count("F"))


@dataclass
class Elt:
    """An element of a word-module component at a single source weight."""
    rep: object          # the underlying TwoRep (with y adjoined)
    word: str
    weight: int
    vec: list

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.vec)

    def __add__(self, other: "Elt") -> "Elt":
        if (self.word, self.weight) != (other.word, other.weight):
            raise ShapeMismatchError(
                f"add {self.word}@{self.weight} to {other.word}@{other.weight}")
        return Elt(self.rep, self.word, self.weight,
                   [a + b for a, b in zip(self.vec, other.vec)])

    def __sub__(self, other: "Elt") -> "Elt":
        return self + (-other)

    def __neg__(self) -> "Elt":
        return Elt(self.rep, self.word, self.weight, [-p for p in self.vec])

    def scale(self, p) -> "Elt":
        """Right multiplication by a base-ring element (coordinatewise)."""
        return Elt(self.rep, self.word, self.weight, [q * p for q in self.vec])

    def __eq__(self, other):
        if not isinstance(other, Elt):
            return NotImplemented
        return (self.word == other.word and self.weight == other.weight
                and all(a == b for a, b in zip(self.vec, other.vec)))

    def __repr__(self):
        return f"Elt({self.word!r}@{self.weight}: {[str(p) for p in self.vec]})"


def zero_elt(rep, word: str, weight: int) -> Elt:
    z = Poly.zero(rep.A.field)
    return Elt(rep, word, weight, [z] * rep.word(word).rank(weight))


def basis_elt(rep, word: str, weight: int, index: int) -> Elt:
    e = zero_elt(rep, word, weight)
    e.vec[index] = Poly.one(rep.A.field)
    return e


def _dot(pairs, field) -> Poly:
    """The sum of p * q over the pairs, skipping zero factors."""
    acc = None
    for p, q in pairs:
        if p.terms:
            t = p * q
            acc = t if acc is None else acc + t
    return Poly.zero(field) if acc is None else acc


def _in_ky(p: Poly) -> bool:
    """Whether p lies in k[y]: every monomial is 1 or a power of y."""
    return all(not e or (len(e) == 2 and not e[0]) for e in p.terms)


def apply_map(f, elt: Elt, out_word: str) -> Elt:
    """Apply a BimoduleMap to an element (matrix at the element's weight)."""
    m = f.matrix(elt.weight)
    if m.ncols != len(elt.vec):
        raise ShapeMismatchError(
            f"map expects {m.ncols} coordinates, element has {len(elt.vec)}")
    field = elt.rep.A.field
    support = [(j, q) for j, q in enumerate(elt.vec) if q.terms]
    out = [_dot(((row[j], q) for j, q in support), field)
           for row in m.entries]
    return Elt(elt.rep, out_word, elt.weight, out)


def elem_tensor(a: Elt, b: Elt) -> Elt:
    """The simple tensor a (x) b in the concatenated word module.

    Each coordinate p of a contributes the block (left action of p) @ b.  The
    central y acts by scalars, so for p in k[y] that block is p * b."""
    rep = a.rep
    if a.weight != b.weight + word_shift(b.word):
        raise ShapeMismatchError(
            f"tensor {a.word}@{a.weight} (x) {b.word}@{b.weight}: "
            f"left weight must be {b.weight + word_shift(b.word)}")
    N = rep.word(b.word)
    field = rep.A.field
    support = [(c, q) for c, q in enumerate(b.vec) if q.terms]
    out = []
    for p in a.vec:
        if not (p.terms and support):
            out += [Poly.zero(field)] * len(b.vec)
        elif _in_ky(p):
            out += [p * q if q.terms else q for q in b.vec]
        else:
            L = N.left_poly(b.weight, p)
            out += [_dot(((row[c], q) for c, q in support), field)
                    for row in L.entries]
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


def exact_solve(m: Matrix, vec: list, field) -> list:
    """Solve m @ x = vec exactly over the polynomial ring.

    Uses the adjugate: x = adj(m) @ vec / det(m), entrywise exact division.
    Raises NotInModelError when the system has no polynomial solution or the
    determinant vanishes.
    """
    if m.nrows != m.ncols:
        raise ShapeMismatchError(f"solve with non-square {m.nrows}x{m.ncols}")
    if m.nrows == 0:
        return []
    det = bareiss_determinant(m)
    if det.is_zero():
        raise NotInModelError("singular operator in membership division")
    adj = adjugate(m)
    out = []
    for i in range(m.nrows):
        num = sum((adj.entries[i][j] * vec[j] for j in range(m.ncols)),
                  Poly.zero(field))
        try:
            out.append(exact_divide(num, det))
        except NotDivisibleError as e:
            raise NotInModelError(
                "membership division leaves a remainder") from e
    # verify (adjugate route is exact, but guard against det sign slips)
    for i in range(m.nrows):
        chk = sum((m.entries[i][j] * out[j] for j in range(m.ncols)),
                  Poly.zero(field))
        if chk != vec[i]:
            raise NotInModelError("membership division verification failed")
    return out


def solve_op(op_map, elt: Elt) -> Elt:
    """Apply the exact inverse of an (injective) operator to an element."""
    m = op_map.matrix(elt.weight)
    return Elt(elt.rep, elt.word, elt.weight,
               exact_solve(m, elt.vec, elt.rep.A.field))

