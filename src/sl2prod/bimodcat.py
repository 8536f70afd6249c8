"""Weight-decomposed algebras, based bimodules, and matrices between them.

A :class:`WeightedAlgebra` is a finite family of commutative polynomial base
rings indexed by integer weights.  A :class:`Bimodule` with weight shift ``d``
has, for each source weight ``lam``, a free right module over the base ring at
``lam`` with an ordered basis; the right action is coordinatewise scalar
multiplication and the left action of each generator of the base ring at
``lam + d`` is a stored matrix.  Maps are matrices acting on coordinate
columns, composed as ``compose(g, f) = [g] @ [f]``.  Every check of the
package returns its verdict as a :func:`record`.
"""

from __future__ import annotations

from .polyring import Poly, split_var, var_index, var_name
from .matrixops import (
    Matrix, ShapeMismatchError, block_diagonal, place_blocks,
    kron_identity_left, bareiss_determinant, adjugate,
)


class AlgebraMismatchError(ValueError):
    """Bimodules over different algebras cannot be combined."""


# ---------------------------------------------------------------------------
# algebras


class WeightedAlgebra:
    """A finite product of polynomial base rings graded by integer weights.
    The reserved central variable y is in no ``support``; it acts on every
    module by scalars (:meth:`Bimodule.left_matrix`)."""

    def __init__(self, field, support: dict):
        self.field = field
        self.support = {int(w): tuple(v) for w, v in support.items()}

    def weights(self):
        return sorted(self.support)

    def __contains__(self, lam: int) -> bool:
        return lam in self.support

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, WeightedAlgebra)
                and self.field == other.field
                and self.support == other.support)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.support.items()))))

    def __repr__(self):
        return f"WeightedAlgebra({self.support})"


# ---------------------------------------------------------------------------
# bimodules


_Y = frozenset({var_index("y")})  # the position of the central y


class Component:
    """One weight component: a free module of rank ``rank`` with left action
    matrices.  ``scalars`` holds the positions of the generators that act
    as themselves (:meth:`Bimodule._scalars`), found on first use."""
    __slots__ = ("rank", "left", "scalars")

    def __init__(self, rank: int, left: dict):
        self.rank = rank
        self.left = left  # generator name -> Matrix over the source base ring
        self.scalars = None


class Bimodule:
    """A weight-graded free bimodule of finite rank at each weight."""

    def __init__(self, algebra: WeightedAlgebra, shift: int, components: dict):
        self.algebra = algebra
        self.shift = shift
        self.components = {}
        for lam in algebra.weights():
            if lam + shift not in algebra:
                continue
            comp = components.get(lam)
            if comp is None:
                comp = Component(0, {v: Matrix.zero(algebra.field, 0, 0)
                                      for v in algebra.support[lam + shift]})
            self.components[lam] = comp

    def weights(self):
        return sorted(self.components)

    def rank(self, lam: int) -> int:
        comp = self.components.get(lam)
        return comp.rank if comp else 0

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
        lam + shift, as a matrix over the base ring at lam: Horner's rule
        (:meth:`left_apply`) applied to the columns of the identity."""
        field = self.algebra.field
        r = self.rank(lam)
        one, zero = Poly.one(field), Poly.zero(field)
        cols = self._horner(lam, p.terms, [[one if i == j else zero
                                            for i in range(r)]
                                           for j in range(r)])
        return Matrix(field, r, r, [list(row) for row in zip(*cols)])

    def left_apply(self, lam: int, p: Poly, vec: list) -> list:
        """The left action of p on one coordinate column at lam, by
        Horner's rule, without forming the matrix of p."""
        return self._horner(lam, p.terms, [vec])[0]

    def _scalars(self, lam: int) -> frozenset:
        """The positions of the generators that act at lam as themselves:
        the central y, and each generator whose left matrix is that same
        variable times the identity.  Found once per component."""
        comp = self.components.get(lam)
        if comp is None:
            return _Y
        if comp.scalars is None:
            field = self.algebra.field
            zero = Poly.zero(field)
            comp.scalars = _Y | {
                var_index(v) for v, L in comp.left.items()
                if all(a == (Poly.var(field, v) if i == j else zero)
                       for i, row in enumerate(L.entries)
                       for j, a in enumerate(row))}
        return comp.scalars

    def _horner(self, lam: int, terms: dict, cols: list) -> list:
        """The left action of the polynomial with exponent map ``terms`` on
        each of ``cols``.  A polynomial in the generators that act as
        themselves (:meth:`_scalars`) multiplies each coordinate.  In the
        largest other generator g (renamed across the weights, say, or
        acting by a non-diagonal matrix), p = sum_j g^j p_j is evaluated
        as (.. (p_d g + p_(d-1)) g + ..) + p_0, one application of g's
        matrix per degree, with each p_j applied by the same rule."""
        scalars = self._scalars(lam)
        k = max((i for e in terms for i, n in enumerate(e)
                 if n and i not in scalars), default=-1)
        if k < 0:
            q = Poly(self.algebra.field, terms)
            return [[q * c if c.terms else c for c in col] for col in cols]
        groups = split_var(terms, k)
        L = self.left_matrix(lam, var_name(k))
        top = max(groups)
        acc = self._horner(lam, groups[top], cols)
        for j in range(top - 1, -1, -1):
            acc = _left_step(L, acc)
            if j in groups:
                acc = [[a + b for a, b in zip(c1, c2)] for c1, c2 in
                       zip(acc, self._horner(lam, groups[j], cols))]
        return acc

    def total_rank(self) -> int:
        return sum(self.rank(lam) for lam in self.weights())

    def __repr__(self):
        ranks = {lam: self.rank(lam) for lam in self.weights()}
        return f"Bimodule(shift={self.shift}, ranks={ranks})"


def _left_step(L: Matrix, cols: list) -> list:
    """One Horner step: the matrix L applied to each column."""
    return [L.apply(col) for col in cols]


def regular_bimodule(algebra: WeightedAlgebra) -> Bimodule:
    """The algebra as a bimodule over itself (rank one per weight)."""
    comps = {}
    for lam in algebra.weights():
        left = {}
        for v in algebra.support[lam]:
            left[v] = Matrix.from_rows(algebra.field, [[Poly.var(algebra.field, v)]])
        comps[lam] = Component(1, left)
    return Bimodule(algebra, 0, comps)


def tensor_over_A(M: Bimodule, N: Bimodule) -> Bimodule:
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
        left = {v: tensor_id_right(M.left_matrix(mid, v), N, lam)
                for v in A.support[lam + shift]}
        comps[lam] = Component(M.rank(mid) * N.rank(lam), left)
    return Bimodule(A, shift, comps)


class SumBimodule(Bimodule):
    """A direct sum with recorded summands and per-weight offsets."""

    def __init__(self, summands):
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
            left = {v: block_diagonal(A.field, [s.left_matrix(lam, v)
                                                for s in summands])
                    for v in A.support[lam + shift]}
            comps[lam] = Component(sum(s.rank(lam) for s in summands), left)
        super().__init__(A, shift, comps)
        self.summands = list(summands)


# ---------------------------------------------------------------------------
# maps


class BimoduleMap:
    """A map of bimodules: one matrix per source weight, acting on columns."""

    def __init__(self, dom: Bimodule, cod: Bimodule, mats: dict):
        if dom.algebra != cod.algebra:
            raise AlgebraMismatchError("map between bimodules over different algebras")
        if dom.shift != cod.shift:
            raise ValueError("map between bimodules of different weight shifts")
        self.dom = dom
        self.cod = cod
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
        shapes = {lam: (m.nrows, m.ncols) for lam, m in self.mats.items()}
        return f"BimoduleMap(shift={self.dom.shift}, shapes={shapes})"


def identity_map(M: Bimodule) -> BimoduleMap:
    field = M.algebra.field
    return BimoduleMap(M, M, {lam: Matrix.identity(field, M.rank(lam))
                              for lam in M.weights()})


def zero_map(dom: Bimodule, cod: Bimodule) -> BimoduleMap:
    return BimoduleMap(dom, cod, {})


def compose(g: BimoduleMap, f: BimoduleMap) -> BimoduleMap:
    """g after f."""
    mats = {}
    for lam in f.mats:
        mats[lam] = g.matrix(lam) @ f.matrix(lam)
    return BimoduleMap(f.dom, g.cod, mats)


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
# verdicts and isomorphism certification


def record(name, ok, witness=None, **evidence) -> dict:
    """One verdict: the check name, its status, an optional witness and the
    evidence the check gathered.  Reports copy only the first three."""
    out = {"check": name, "status": "pass" if ok else "fail"}
    if witness:
        out["witness"] = str(witness)
    out.update(evidence)
    return out


def check_equal(name, lhs: BimoduleMap, rhs: BimoduleMap) -> dict:
    """The record ``name`` of ``lhs == rhs``; a failure's witness lists the
    weights where the matrices differ, in entries or in shape."""
    if lhs == rhs:
        return record(name, True)
    bad = [lam for lam in lhs.dom.weights()
           if lhs.matrix(lam) != rhs.matrix(lam)]
    return record(name, False, f"weights {bad}")


def unit_det(m: Matrix):
    """``(det, reason)``: det(m), None if m is not square, and why m is no
    isomorphism, None if det is a nonzero constant (1 if m is empty)."""
    if m.nrows != m.ncols:
        return None, f"non-square {m.nrows}x{m.ncols}"
    det = bareiss_determinant(m)
    if det.is_zero() or not det.is_constant():
        return det, f"determinant {det} is not a unit"
    return det, None


def certify_iso(mats: dict, name: str) -> dict:
    """Certify matrices keyed by weight or by (corner, weight) as
    isomorphisms by exact determinants (:func:`unit_det`), in sorted key
    order.  Returns the record ``name``, whose ``dets`` maps each key
    checked to its determinant string; a failure's witness is the key and
    the reason."""
    dets = {}
    for key in sorted(mats):
        det, reason = unit_det(mats[key])
        if det is not None:
            dets[key] = str(det)
        if reason:
            return record(name, False, (key, reason), dets=dets)
    return record(name, True, dets=dets)


def inverse_map(f: BimoduleMap) -> BimoduleMap:
    """The exact inverse of an isomorphism, via the adjugate; raises
    ValueError with the first weight that is no isomorphism."""
    field = f.dom.algebra.field
    mats = {}
    for lam, m in f.mats.items():
        det, reason = unit_det(m)
        if reason:
            raise ValueError(f"not an isomorphism: {(lam, reason)}")
        inv_c = field.div(field.one, det.constant_value())
        mats[lam] = adjugate(m).scale(Poly.const(field, inv_c))
    return BimoduleMap(f.cod, f.dom, mats)
