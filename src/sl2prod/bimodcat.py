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
    Matrix, ShapeMismatchError, block_diagonal, place_blocks,
    kron_identity_left, bareiss_determinant, adjugate,
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
        lam + shift, as a matrix over the base ring at lam.

        The central variable y acts by scalars, so each monomial in the other
        generators is applied once, scaled by its coefficient in y."""
        field = self.algebra.field
        r = self.rank(lam)
        iy = p.names.index("y") if "y" in p.names else len(p.names)
        names = p.names[:iy] + p.names[iy + 1:]
        groups = {}  # exponents of the other generators -> terms in y
        for exps, c in p.terms.items():
            key = exps[:iy] + exps[iy + 1:]
            groups.setdefault(key, {})[exps[iy:iy + 1] or (0,)] = c
        out = Matrix.zero(field, r, r)
        for exps, y_terms in groups.items():
            term = Matrix.identity(field, r).scale(Poly(field, ("y",), y_terms))
            for vname, e in zip(names, exps):
                for _ in range(e):
                    term = self.left_matrix(lam, vname) @ term
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
    shift = M.shift + N.shift
    comps = {}
    for lam in A.weights():
        mid = lam + N.shift
        if lam + shift not in A or mid not in A:
            continue  # no component, or a rank-zero one
        basis = tuple((bm, bn) for bm in M.basis(mid) for bn in N.basis(lam))
        left = {v: tensor_id_right(M.left_matrix(mid, v), N, lam)
                for v in A.support[lam + shift]}
        comps[lam] = Component(basis, left)
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
            left = {v: block_diagonal(A.field, [s.left_matrix(lam, v)
                                                for s in summands])
                    for v in A.support[lam + shift]}
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
        m = self.mats.get(lam)
        if m is None:
            m = Matrix.zero(self.dom.algebra.field, self.cod.rank(lam),
                            self.dom.rank(lam))
        return m

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


def tensor_id_left(M: Bimodule, T: Matrix, mid: int) -> Matrix:
    """The matrix of M (x) f at a weight where f has matrix T and M has
    source weight mid."""
    return kron_identity_left(M.rank(mid), T)


def tensor_id_right(S: Matrix, N: Bimodule, lam: int) -> Matrix:
    """The matrix of f (x) N at source weight lam, where S is the matrix of f
    at lam + N.shift; each nonzero entry of S acts on N from the left."""
    n = N.rank(lam)
    return place_blocks(N.algebra.field, [n] * S.nrows, [n] * S.ncols, {
        (k, i): N.left_poly(lam, e) for k, row in enumerate(S.entries)
        for i, e in enumerate(row) if not e.is_zero()})


def direct_sum_maps(dom: SumBimodule, cod: SumBimodule, entries: dict) -> BimoduleMap:
    """Assemble a block map; entries maps (row index in cod.summands, column
    index in dom.summands) to a BimoduleMap or None for a zero block."""
    field = dom.algebra.field
    mats = {}
    for lam in dom.weights():
        mats[lam] = place_blocks(
            field, [s.rank(lam) for s in cod.summands],
            [s.rank(lam) for s in dom.summands],
            {ij: f.matrix(lam) for ij, f in entries.items() if f is not None})
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
