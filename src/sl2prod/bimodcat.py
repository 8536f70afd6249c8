"""Weight-decomposed algebras, based bimodules, and matrices between them.

A :class:`WeightedAlgebra` is a finite family of commutative polynomial base
rings indexed by integer weights.  A :class:`Bimodule` with weight shift ``d``
has, for each source weight ``lam``, a free right module over the base ring at
``lam`` with an ordered basis; the right action is coordinatewise scalar
multiplication and the left action of each generator of the base ring at
``lam + d`` is a stored matrix.  Maps are matrices acting on coordinate
columns, composed as ``compose(g, f) = [g] @ [f]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Iterable, Optional

from .polyring import Poly, QQ, sort_vars
from .matrixops import (
    Matrix, ShapeMismatchError, block_matrix, bareiss_determinant, adjugate,
)


class AlgebraMismatchError(ValueError):
    """Bimodules over different algebras cannot be combined."""


# ---------------------------------------------------------------------------
# algebras


class WeightedAlgebra:
    """A finite product of polynomial base rings graded by integer weights."""

    def __init__(self, field, support: dict, has_y: bool = False):
        self.field = field
        self.support = {int(w): tuple(v) for w, v in support.items()}
        self.has_y = has_y

    def weights(self):
        return sorted(self.support)

    def ring_vars(self, lam: int) -> tuple:
        base = self.support[lam]
        return sort_vars(base + ("y",)) if self.has_y else sort_vars(base)

    def adjoin_y(self) -> "WeightedAlgebra":
        return WeightedAlgebra(self.field, self.support, has_y=True)

    def __contains__(self, lam: int) -> bool:
        return lam in self.support

    def __eq__(self, other):
        return (isinstance(other, WeightedAlgebra)
                and self.field == other.field
                and self.support == other.support
                and self.has_y == other.has_y)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.support.items())), self.has_y))

    def __repr__(self):
        return f"WeightedAlgebra({self.support}{'[y]' if self.has_y else ''})"


# ---------------------------------------------------------------------------
# bimodules


@dataclass
class Component:
    """One weight component: a based free module with left action matrices."""
    basis: tuple
    left: dict  # generator name -> Matrix over the source base ring

    @property
    def rank(self) -> int:
        return len(self.basis)


class Bimodule:
    """A weight-graded free bimodule with explicit ordered bases."""

    def __init__(self, algebra: WeightedAlgebra, shift: int, components: dict,
                 name: str = ""):
        self.algebra = algebra
        self.shift = shift
        self.name = name
        self.components = {}
        for lam in algebra.weights():
            if lam + shift not in algebra:
                continue
            comp = components.get(lam)
            if comp is None:
                comp = Component((), {v: Matrix.zero(algebra.field, 0, 0)
                                      for v in algebra.support[lam + shift]})
            self.components[lam] = comp

    def weights(self):
        return sorted(self.components)

    def rank(self, lam: int) -> int:
        comp = self.components.get(lam)
        return comp.rank if comp else 0

    def basis(self, lam: int):
        comp = self.components.get(lam)
        return comp.basis if comp else ()

    def left_matrix(self, lam: int, var: str) -> Matrix:
        """The left action of a generator of the base ring at lam + shift."""
        comp = self.components.get(lam)
        if comp is None:
            return Matrix.zero(self.algebra.field, 0, 0)
        if var == "y":
            y = Poly.var(self.algebra.field, "y")
            return Matrix.identity(self.algebra.field, comp.rank).scale(y)
        return comp.left[var]

    def left_poly(self, lam: int, p: Poly) -> Matrix:
        """The left action of an arbitrary element of the base ring at
        lam + shift, as a matrix over the base ring at lam."""
        field = self.algebra.field
        r = self.rank(lam)
        out = Matrix.zero(field, r, r)
        for exps, c in p.terms.items():
            term = Matrix.identity(field, r).scale(Poly.const(field, c))
            for vname, e in zip(p.names, exps):
                if e == 0:
                    continue
                mat = self.left_matrix(lam, vname)
                for _ in range(e):
                    term = mat @ term
            out = out + term
        return out

    def total_rank(self) -> int:
        return sum(self.rank(lam) for lam in self.weights())

    def __repr__(self):
        ranks = {lam: self.rank(lam) for lam in self.weights()}
        return f"Bimodule({self.name or '?'}, shift={self.shift}, ranks={ranks})"


def regular_bimodule(algebra: WeightedAlgebra, name: str = "A") -> Bimodule:
    """The algebra as a bimodule over itself (rank one per weight)."""
    comps = {}
    for lam in algebra.weights():
        left = {}
        for v in algebra.support[lam]:
            left[v] = Matrix.from_rows(algebra.field, [[Poly.var(algebra.field, v)]])
        comps[lam] = Component((name,), left)
    return Bimodule(algebra, 0, comps, name=name)


def tensor_over_A(M: Bimodule, N: Bimodule, name: str = "") -> Bimodule:
    """Componentwise tensor product over the algebra, basis row-major with the
    left factor outer."""
    if M.algebra != N.algebra:
        raise AlgebraMismatchError("tensor factors over different algebras")
    A = M.algebra
    field = A.field
    shift = M.shift + N.shift
    comps = {}
    for lam in A.weights():
        if lam + shift not in A:
            continue
        mid = lam + N.shift
        if mid not in A:
            comps[lam] = None  # rank zero placeholder
            continue
        r = M.rank(mid)
        s = N.rank(lam)
        basis = tuple((bm, bn) for bm in M.basis(mid) for bn in N.basis(lam))
        left = {}
        for v in A.support[lam + shift]:
            S = M.left_matrix(mid, v)  # r x r over ring(mid)
            blocks = [[N.left_poly(lam, S.entries[k][i]) for i in range(r)]
                      for k in range(r)]
            if r == 0:
                left[v] = Matrix.zero(field, 0, 0)
            else:
                left[v] = block_matrix(field, blocks)
        comps[lam] = Component(basis, left)
    comps = {lam: c for lam, c in comps.items() if c is not None}
    out_name = name or (f"{M.name}{N.name}" if M.name and N.name else "")
    return Bimodule(A, shift, comps, name=out_name)


class SumBimodule(Bimodule):
    """A direct sum with recorded summands and per-weight offsets."""

    def __init__(self, summands, name: str = ""):
        if not summands:
            raise ValueError("direct sum needs at least one summand")
        A = summands[0].algebra
        shift = summands[0].shift
        for s in summands[1:]:
            if s.algebra != A:
                raise AlgebraMismatchError("direct sum over different algebras")
            if s.shift != shift:
                raise ValueError("direct sum of bimodules with different shifts")
        comps = {}
        for lam in A.weights():
            if lam + shift not in A:
                continue
            basis = tuple((k, b) for k, s in enumerate(summands)
                          for b in s.basis(lam))
            left = {}
            for v in A.support[lam + shift]:
                blocks = [[s.left_matrix(lam, v) if k == j else
                           Matrix.zero(A.field, s.rank(lam), summands[j].rank(lam))
                           for j in range(len(summands))]
                          for k, s in enumerate(summands)]
                left[v] = block_matrix(A.field, blocks)
            comps[lam] = Component(basis, left)
        super().__init__(A, shift, comps, name=name or "(+)".join(s.name for s in summands))
        self.summands = list(summands)

    def offset(self, lam: int, k: int) -> int:
        return sum(s.rank(lam) for s in self.summands[:k])


# ---------------------------------------------------------------------------
# maps


class BimoduleMap:
    """A map of bimodules: one matrix per source weight, acting on columns."""

    def __init__(self, dom: Bimodule, cod: Bimodule, mats: dict, name: str = ""):
        if dom.algebra != cod.algebra:
            raise AlgebraMismatchError("map between bimodules over different algebras")
        if dom.shift != cod.shift:
            raise ValueError("map between bimodules of different weight shifts")
        self.dom = dom
        self.cod = cod
        self.name = name
        self.mats = {}
        field = dom.algebra.field
        for lam in dom.weights():
            m = mats.get(lam)
            if m is None:
                m = Matrix.zero(field, cod.rank(lam), dom.rank(lam))
            if (m.nrows, m.ncols) != (cod.rank(lam), dom.rank(lam)):
                raise ShapeMismatchError(
                    f"weight {lam}: matrix {m.nrows}x{m.ncols}, expected "
                    f"{cod.rank(lam)}x{dom.rank(lam)}")
            self.mats[lam] = m

    def matrix(self, lam: int) -> Matrix:
        field = self.dom.algebra.field
        return self.mats.get(lam, Matrix.zero(field, self.cod.rank(lam), self.dom.rank(lam)))

    def __add__(self, other: "BimoduleMap") -> "BimoduleMap":
        return BimoduleMap(self.dom, self.cod,
                           {lam: self.matrix(lam) + other.matrix(lam)
                            for lam in self.mats})

    def __sub__(self, other: "BimoduleMap") -> "BimoduleMap":
        return self + (-other)

    def __neg__(self) -> "BimoduleMap":
        return BimoduleMap(self.dom, self.cod, {lam: -m for lam, m in self.mats.items()})

    def scale(self, p) -> "BimoduleMap":
        return BimoduleMap(self.dom, self.cod,
                           {lam: m.scale(p) for lam, m in self.mats.items()})

    def __eq__(self, other):
        if not isinstance(other, BimoduleMap):
            return NotImplemented
        return all(self.matrix(lam) == other.matrix(lam)
                   for lam in set(self.mats) | set(other.mats))

    def __hash__(self):
        return hash((id(self.dom), id(self.cod)))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_welldefined(self):
        """Check commutation with the left action on every generator; returns
        None on success or a (weight, generator) witness."""
        A = self.dom.algebra
        for lam in self.mats:
            for v in A.support[lam + self.dom.shift]:
                left_c = self.cod.left_matrix(lam, v)
                left_d = self.dom.left_matrix(lam, v)
                if left_c @ self.matrix(lam) != self.matrix(lam) @ left_d:
                    return (lam, v)
        return None

    def __repr__(self):
        return f"BimoduleMap({self.name or '?'}: {self.dom.name} -> {self.cod.name})"


def identity_map(M: Bimodule) -> BimoduleMap:
    field = M.algebra.field
    return BimoduleMap(M, M, {lam: Matrix.identity(field, M.rank(lam))
                              for lam in M.weights()}, name="id")


def zero_map(dom: Bimodule, cod: Bimodule) -> BimoduleMap:
    return BimoduleMap(dom, cod, {}, name="0")


def compose(g: BimoduleMap, f: BimoduleMap) -> BimoduleMap:
    """g after f."""
    mats = {}
    for lam in f.mats:
        mats[lam] = g.matrix(lam) @ f.matrix(lam)
    return BimoduleMap(f.dom, g.cod, mats, name=f"{g.name}.{f.name}")


def compose_all(*maps: BimoduleMap) -> BimoduleMap:
    """Compose right-to-left: compose_all(g, f) = g after f."""
    out = maps[-1]
    for m in reversed(maps[:-1]):
        out = compose(m, out)
    return out


def tensor_id_left(M: Bimodule, f: BimoduleMap) -> BimoduleMap:
    """The map M (x) f."""
    dom = tensor_over_A(M, f.dom)
    cod = tensor_over_A(M, f.cod)
    mats = {}
    for lam in dom.weights():
        mid = lam + f.dom.shift
        r = M.rank(mid) if mid in M.algebra else 0
        T = f.matrix(lam)
        blocks = [[T if i == k else Matrix.zero(M.algebra.field, T.nrows, T.ncols)
                   for i in range(r)] for k in range(r)]
        if r == 0:
            mats[lam] = Matrix.zero(M.algebra.field, 0, 0)
        else:
            mats[lam] = block_matrix(M.algebra.field, blocks)
    return BimoduleMap(dom, cod, mats, name=f"{M.name}({f.name})")


def tensor_id_right(f: BimoduleMap, N: Bimodule) -> BimoduleMap:
    """The map f (x) N."""
    dom = tensor_over_A(f.dom, N)
    cod = tensor_over_A(f.cod, N)
    field = N.algebra.field
    mats = {}
    for lam in dom.weights():
        mid = lam + N.shift
        if mid not in N.algebra:
            mats[lam] = Matrix.zero(field, cod.rank(lam), dom.rank(lam))
            continue
        S = f.matrix(mid)  # over ring(mid)
        blocks = [[N.left_poly(lam, S.entries[k][i]) for i in range(S.ncols)]
                  for k in range(S.nrows)]
        if S.nrows == 0 or S.ncols == 0:
            mats[lam] = Matrix.zero(field, cod.rank(lam), dom.rank(lam))
        else:
            mats[lam] = block_matrix(field, blocks)
    return BimoduleMap(dom, cod, mats, name=f"({f.name}){N.name}")


def direct_sum_maps(dom: SumBimodule, cod: SumBimodule, entries: dict) -> BimoduleMap:
    """Assemble a block map; entries maps (row index in cod.summands, column
    index in dom.summands) to a BimoduleMap or None for a zero block."""
    field = dom.algebra.field
    mats = {}
    for lam in dom.weights():
        blocks = []
        for i, csum in enumerate(cod.summands):
            row = []
            for j, dsum in enumerate(dom.summands):
                f = entries.get((i, j))
                if f is None:
                    row.append(Matrix.zero(field, csum.rank(lam), dsum.rank(lam)))
                else:
                    row.append(f.matrix(lam))
            blocks.append(row)
        mats[lam] = block_matrix(field, blocks)
    return BimoduleMap(dom, cod, mats)


# ---------------------------------------------------------------------------
# isomorphism certification


@dataclass
class IsoCertificate:
    ok: bool
    dets: dict = dfield(default_factory=dict)  # weight -> determinant string
    witness: Optional[tuple] = None  # (weight, reason)

    def __bool__(self):
        return self.ok


def certify_iso(f: BimoduleMap) -> IsoCertificate:
    """Certify a map as an isomorphism by exact determinants.

    A map is certified iso when every weight matrix is square with a
    determinant that is a nonzero constant of the coefficient field; empty
    matrices are isomorphisms.
    """
    dets = {}
    for lam in sorted(f.mats):
        m = f.matrix(lam)
        if m.nrows != m.ncols:
            return IsoCertificate(False, dets, (lam, f"non-square {m.nrows}x{m.ncols}"))
        det = bareiss_determinant(m)
        dets[lam] = str(det)
        if det.is_zero() or not det.is_constant():
            return IsoCertificate(False, dets, (lam, f"determinant {det} is not a unit"))
    return IsoCertificate(True, dets)


def inverse_map(f: BimoduleMap) -> BimoduleMap:
    """The exact inverse of a certified isomorphism, via the adjugate."""
    cert = certify_iso(f)
    if not cert.ok:
        raise ValueError(f"not an isomorphism: {cert.witness}")
    field = f.dom.algebra.field
    mats = {}
    for lam in f.mats:
        m = f.matrix(lam)
        det = bareiss_determinant(m)
        adj = adjugate(m)
        c = det.constant_value()
        inv_c = field.div(field.one, c) if m.nrows else field.one
        mats[lam] = adj.scale(Poly.const(field, inv_c))
    return BimoduleMap(f.cod, f.dom, mats, name=f"{f.name}^-1")
