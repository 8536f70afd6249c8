"""Assembly and certification of the commutator maps on the product.

The weight-``lam`` commutator map has four corners indexed by the product
idempotents.  Each corner stacks the closed-form commutator block with the
evaluation pairings (``lam >= 0``, extra rows) or the coevaluation pairings
(``lam <= 0``, extra columns).  Two independent certification routes are
provided:

* :func:`sl2prod.bimodcat.certify_iso` applied to the assembled map — a
  determinant computation;
* :func:`triangular_certificate` — a proof-shaped witness that permutes rows
  and columns (after explicit unit row operations) into a block-triangular
  matrix whose diagonal blocks are certified isomorphisms, and that checks
  the factorizations relating those blocks to the one-step commutator
  isomorphisms of the underlying representation.
"""

from ..bimodcat import (Bimodule, BimoduleMap, WeightedAlgebra,
                        certify_iso)
from ..matrixops import (Matrix, bareiss_determinant, block_diagonal,
                         block_matrix, offsets, place_blocks)
from ..polyring import Poly
from ..tworep import rho
from .core import (CORNERS, T_WORDS, ProductRep, tilde_sigma_closed,
                   eps_xi_F_closed, F_xi_eta_closed, word_sum)
from .models import CORNER_MODELS

__all__ = [
    "NotTriangularError", "DiagonalNotIsoError", "RhoMap",
    "tilde_rho", "triangular_certificate",
]


class NotTriangularError(ValueError):
    """A claimed-zero block of the permuted matrix is nonzero, or a claimed
    factorization of a block fails."""


class DiagonalNotIsoError(ValueError):
    """A diagonal block of the permuted matrix is not an isomorphism."""


_MU_SHIFT = {"11": +1, "21": +1, "12": -1, "22": -1}
_PAIR_WORD = {"11": "", "21": "F", "12": "E"}


class RhoMap:
    """The four corner maps of the weight component of the commutator map.

    Quacks like a map for :func:`certify_iso`: ``mats`` is keyed by
    ``(corner, weight)`` and ``matrix`` accepts those keys.
    """

    def __init__(self, lam: int, corners: dict):
        self.lam = lam
        self.corners = corners
        self.name = f"tilde_rho_{lam}"

    @property
    def mats(self):
        return {(c, w): m for c in CORNERS
                for w, m in self.corners[c].mats.items()}

    def matrix(self, key):
        corner, w = key
        return self.corners[corner].matrix(w)

    def is_welldefined(self):
        for f in self.corners.values():
            bad = f.is_welldefined()
            if bad is not None:
                return bad
        return None

    def __repr__(self):
        return f"RhoMap(lam={self.lam})"


def _row_slice(field, m, r0, r1):
    if r1 <= r0:
        return Matrix.zero(field, 0, m.ncols)
    return Matrix(field, r1 - r0, m.ncols, [list(r) for r in m.entries[r0:r1]])


def _col_slice(field, m, c0, c1):
    return Matrix(field, m.nrows, max(c1 - c0, 0),
                  [row[c0:c1] for row in m.entries])


def _restrict_at(r, M, mu):
    """Restrict a bimodule to the single source weight ``mu``, keeping the
    target weight ``mu + shift`` in the base algebra so the left action
    survives the restriction."""
    ws = {w for w in (mu, mu + M.shift) if w in r.A}
    algebra = WeightedAlgebra(r.A.field, {w: r.A.support[w] for w in ws},
                              r.A.has_y)
    comps = {mu: M.components[mu]} if mu in M.components else {}
    return Bimodule(algebra, M.shift, comps, name=M.name)


def _corner_rho(P: ProductRep, corner: str, lam: int) -> BimoduleMap:
    r = P.Vy
    field = r.A.field
    mu = lam + _MU_SHIFT[corner]
    n = abs(lam)
    dom_words = list(T_WORDS[corner])
    cod_words = CORNER_MODELS[corner].words()
    if lam >= 0:
        if corner == "22":
            cod_words += [""] * n + ["FE"] * n
        elif n:
            cod_words += [_PAIR_WORD[corner]] * n
    else:
        if corner == "22":
            dom_words += [""] * n + ["FE"] * n
        else:
            dom_words += [_PAIR_WORD[corner]] * n
    dom = _restrict_at(r, word_sum(r, dom_words, f"T{corner}"), mu)
    cod = _restrict_at(r, word_sum(r, cod_words, f"S{corner}"), mu)
    if mu not in r.A:
        return BimoduleMap(dom, cod, {}, name=f"rho{corner}_{lam}")

    smat = tilde_sigma_closed(P, corner).matrix(mu)
    if lam == 0:
        mat = smat
    elif lam > 0:
        pair = [eps_xi_F_closed(P, i, corner).matrix(mu) for i in range(n)]
        if corner == "22":
            ra = r.word("").rank(mu)
            rows = ([smat]
                    + [_row_slice(field, pm, 0, ra) for pm in pair]
                    + [_row_slice(field, pm, ra, pm.nrows) for pm in pair])
        else:
            rows = [smat] + pair
        mat = block_matrix(field, [[x] for x in rows])
    else:
        pair = [F_xi_eta_closed(P, i, corner).matrix(mu) for i in range(n)]
        if corner == "22":
            ra = r.word("").rank(mu)
            cols = ([smat]
                    + [_col_slice(field, pm, 0, ra) for pm in pair]
                    + [_col_slice(field, pm, ra, pm.ncols) for pm in pair])
        else:
            cols = [smat] + pair
        mat = block_matrix(field, [cols])
    return BimoduleMap(dom, cod, {mu: mat}, name=f"rho{corner}_{lam}")


def tilde_rho(P: ProductRep, lam: int) -> RhoMap:
    """The commutator map of the product at weight ``lam``, as four corners.

    Corners 11 and 21 live at internal weight ``lam + 1``; corners 12 and 22
    at ``lam - 1``.  At ``lam = 0`` the row and column assemblies coincide and
    every corner reduces to its closed commutator block.
    """
    return RhoMap(lam, {c: _corner_rho(P, c, lam) for c in CORNERS})


# --------------------------------------------------------------------------
# Triangular certificates
# --------------------------------------------------------------------------

def _indices(sizes, blocks):
    offs = offsets(sizes)
    idx = []
    for b in blocks:
        idx.extend(range(offs[b], offs[b + 1]))
    return idx


def _pick(field, m, rows, cols):
    if not rows or not cols:
        return Matrix.zero(field, len(rows), len(cols))
    return Matrix(field, len(rows), len(cols),
                  [[m.entries[r][c] for c in cols] for r in rows])


def _scalar_blocks(field, entries, n):
    """Matrix of scalar blocks: each polynomial entry times the identity of
    rank ``n``."""
    ident = Matrix.identity(field, n)
    sizes = [n] * len(entries)
    return place_blocks(field, sizes, sizes, {
        (i, j): ident.scale(e) for i, row in enumerate(entries)
        for j, e in enumerate(row) if not e.is_zero()})


def _poly_grid(field, k, fill):
    z = Poly.zero(field)
    return [[fill(i, j) if fill(i, j) is not None else z for j in range(k)]
            for i in range(k)]


def _m_neg(field, k):
    """Unit lower-bidiagonal: 1 on the diagonal, -y on the subdiagonal."""
    y = Poly.var(field, "y")
    one, z = Poly.one(field), Poly.zero(field)
    return [[one if i == j else (-y if i == j + 1 else z) for j in range(k)]
            for i in range(k)]


def _m_h(field, k):
    """Unit upper-triangular with entry y^(j-i) above the diagonal."""
    y = Poly.var(field, "y")
    z = Poly.zero(field)
    return [[y ** (j - i) if j >= i else z for j in range(k)] for i in range(k)]


def _m_h_low(field, k):
    """Unit lower-triangular with entry y^(i-j) below the diagonal."""
    y = Poly.var(field, "y")
    z = Poly.zero(field)
    return [[y ** (i - j) if i >= j else z for j in range(k)] for i in range(k)]


def _m_y_alt(field, k):
    """Column j+1 is y e_j - e_(j+1); column 0 is e_0.  Unit upper-bidiagonal
    up to the signs -1 on the diagonal past the first column."""
    y = Poly.var(field, "y")
    one, z = Poly.one(field), Poly.zero(field)
    out = [[z for _ in range(k)] for _ in range(k)]
    if k:
        out[0][0] = one
    for j in range(k - 1):
        out[j][j + 1] = y
        out[j + 1][j + 1] = -one
    return out


def _rowop(field, m, row_sizes, i, j, opmat):
    """Replace row block ``i`` by (row_i - opmat @ row_j); a unit operation."""
    offs = offsets(row_sizes)
    u = Matrix.identity(field, m.nrows)
    for a in range(opmat.nrows):
        for b in range(opmat.ncols):
            u.set(offs[i] + a, offs[j] + b, -opmat[(a, b)])
    return u @ m


def _unit_det(blk, corner, lam, label):
    if blk.nrows != blk.ncols:
        raise DiagonalNotIsoError(
            f"corner {corner}, weight {lam}: diagonal block {label} is "
            f"{blk.nrows}x{blk.ncols}")
    det = bareiss_determinant(blk)
    if det.is_zero() or not det.is_constant():
        raise DiagonalNotIsoError(
            f"corner {corner}, weight {lam}: diagonal block {label} has "
            f"determinant {det}")
    return str(det)


def _check_groups(field, m, row_sizes, col_sizes, groups, lower, corner, lam):
    """Verify the block-triangular shape given a grouping of row and column
    blocks, and certify each diagonal group; returns determinant strings."""
    rows = [_indices(row_sizes, g[0]) for g in groups]
    cols = [_indices(col_sizes, g[1]) for g in groups]
    for a in range(len(groups)):
        for b in range(len(groups)):
            off_side = b > a if lower else b < a
            if off_side and not _pick(field, m, rows[a], cols[b]).is_zero():
                raise NotTriangularError(
                    f"corner {corner}, weight {lam}: block (group {a}, "
                    f"group {b}) is nonzero")
    return [_unit_det(_pick(field, m, rows[a], cols[a]), corner, lam, a)
            for a in range(len(groups))]


def _base_iso(r, mu, corner, lam):
    """The one-step commutator map at internal weight ``mu``, certified."""
    base = rho(r, mu)
    cert = certify_iso(base)
    if not cert.ok:
        raise DiagonalNotIsoError(
            f"corner {corner}, weight {lam}: one-step commutator at internal "
            f"weight {mu} is not iso: {cert.witness}")
    return base.matrix(mu), dict(cert.dets)


def _cert_11(P, lam):
    r = P.Vy
    field = r.A.field
    mu = lam + 1
    if mu not in r.A:
        return {"status": "pass", "witness": "empty at internal weight"}
    m = _corner_rho(P, "11", lam).matrix(mu)
    ra, rfe, ref = (r.word(w).rank(mu) for w in ("", "FE", "EF"))
    bmat, dets = _base_iso(r, mu, "11", lam)
    if lam >= 0:
        row_sizes = [ra, rfe] + [ra] * lam
        perm_rows = _indices(row_sizes, [1, 0] + list(range(2, lam + 2)))
        pm = _pick(field, m, perm_rows, list(range(m.ncols)))
        factor = block_diagonal(field, [
            Matrix.identity(field, rfe),
            _scalar_blocks(field, _m_neg(field, lam + 1), ra)])
        if pm != factor @ bmat:
            raise NotTriangularError(
                f"corner 11, weight {lam}: bidiagonal factorization through "
                f"the internal commutator fails")
        return {"status": "pass", "diag": dets,
                "witness": "unit bidiagonal factor"}
    col_sizes = [ref] + [ra] * (-lam)
    offs = offsets(col_sizes)
    a_rows = list(range(ra))
    fe_rows = list(range(ra, ra + rfe))
    col0 = list(range(offs[1], offs[2]))
    rest = list(range(offs[0], offs[1])) + list(range(offs[2], offs[-1]))
    if not _pick(field, m, fe_rows, col0).is_zero():
        raise NotTriangularError(
            f"corner 11, weight {lam}: below-diagonal block is nonzero")
    d0 = _unit_det(_pick(field, m, a_rows, col0), "11", lam, 0)
    big = _pick(field, m, fe_rows, rest)
    factor = block_diagonal(field, [
        Matrix.identity(field, ref),
        _scalar_blocks(field, _m_h(field, -lam - 1), ra)])
    if big != bmat @ factor:
        raise NotTriangularError(
            f"corner 11, weight {lam}: triangular factorization through the "
            f"internal commutator fails")
    d1 = _unit_det(big, "11", lam, 1)
    return {"status": "pass", "diag": {**dets, "blocks": [d0, d1]},
            "witness": "unit triangular factor"}


def _cert_21(P, lam):
    r = P.Vy
    field = r.A.field
    mu = lam + 1
    if mu not in r.A:
        return {"status": "pass", "witness": "empty at internal weight"}
    m = _corner_rho(P, "21", lam).matrix(mu)
    rf, rfef, rffe = (r.word(w).rank(mu) for w in ("F", "FEF", "FFE"))
    if lam >= 0:
        row_sizes = [rf, rf, rffe] + [rf] * lam
        col_sizes = [rf, rfef]
        groups = [([0], [0]), (list(range(1, 3 + lam)), [1])]
        diags = _check_groups(field, m, row_sizes, col_sizes, groups,
                              True, "21", lam)
    else:
        row_sizes = [rf, rf, rffe]
        col_sizes = [rf, rfef] + [rf] * (-lam)
        groups = [([0], [0]), ([1], [2]),
                  ([2], [1] + list(range(3, 2 - lam)))]
        diags = _check_groups(field, m, row_sizes, col_sizes, groups,
                              False, "21", lam)
    return {"status": "pass", "diag": diags}


def _cert_12(P, lam):
    r = P.Vy
    field = r.A.field
    mu = lam - 1
    if mu not in r.A:
        return {"status": "pass", "witness": "empty at internal weight"}
    m = _corner_rho(P, "12", lam).matrix(mu)
    re_, refe, rfee = (r.word(w).rank(mu) for w in ("E", "EFE", "FEE"))
    if lam >= 0:
        row_sizes = [re_, re_, rfee] + [re_] * lam
        m = _rowop(field, m, row_sizes, 1, 0,
                   P.Vy.y_at("E", 1).matrix(mu))
        col_sizes = [re_, refe]
        groups = [([1], [0]),
                  ([0, 2] + list(range(3, 3 + lam)), [1])]
        diags = _check_groups(field, m, row_sizes, col_sizes, groups,
                              True, "12", lam)
    else:
        row_sizes = [re_, re_, rfee]
        col_sizes = [re_, refe] + [re_] * (-lam)
        groups = [([1], [0]), ([0], [2]),
                  ([2], [1] + list(range(3, 2 - lam)))]
        diags = _check_groups(field, m, row_sizes, col_sizes, groups,
                              False, "12", lam)
    return {"status": "pass", "diag": diags}


def _cert_22(P, lam):
    r = P.Vy
    field = r.A.field
    mu = lam - 1
    if mu not in r.A:
        return {"status": "pass", "witness": "empty at internal weight"}
    m = _corner_rho(P, "22", lam).matrix(mu)
    ra, rfe, rfefe, ref, rffee = (
        r.word(w).rank(mu) for w in ("", "FE", "FEFE", "EF", "FFEE"))
    y1m = P.Vy.y_at("FE", 1).matrix(mu)
    out = {"status": "pass"}
    if lam >= 0:
        n = lam
        row_sizes = [rfe] * 4 + [rffee] + [ra] * n + [rfe] * n
        col_sizes = [ra, rfe, rfe, rfefe, ref]
        m = _rowop(field, m, row_sizes, 0, 1, y1m)
        if lam == 0:
            groups = [([3], [1]), ([0], [2]), ([2], [0, 4]), ([1, 4], [3])]
        else:
            a_rows = list(range(5, 5 + n))
            fe_rows = list(range(5 + n, 5 + 2 * n))
            groups = [([3], [1]), ([0], [2]), ([a_rows[0]], [0]),
                      ([2] + a_rows[1:], [4]),
                      ([1, 4] + fe_rows, [3])]
        out["diag"] = _check_groups(field, m, row_sizes, col_sizes, groups,
                                    True, "22", lam)
        if lam > 0:
            # The middle diagonal block factors through the internal
            # commutator by a unit lower-triangular matrix and a sign flip.
            bmat, dets = _base_iso(r, mu, "22", lam)
            d1 = _pick(field, m, _indices(row_sizes, [2] + a_rows[1:]),
                       _indices(col_sizes, [4]))
            factor = (block_diagonal(field, [
                          Matrix.identity(field, rfe),
                          _scalar_blocks(field, _m_h_low(field, n - 1), ra)])
                      @ block_diagonal(field, [
                          Matrix.identity(field, rfe),
                          -Matrix.identity(field, (n - 1) * ra)]))
            if d1 != factor @ bmat:
                raise NotTriangularError(
                    f"corner 22, weight {lam}: lower-triangular "
                    f"factorization through the internal commutator fails")
            out["base"] = dets
    else:
        n = -lam
        row_sizes = [rfe] * 4 + [rffee]
        col_sizes = [ra, rfe, rfe, rfefe, ref] + [ra] * n + [rfe] * n
        m = _rowop(field, m, row_sizes, 2, 3, y1m)
        a_cols = list(range(5, 5 + n))
        fe_cols = list(range(5 + n, 5 + 2 * n))
        groups = [([2], [4, 0] + a_cols), ([3], [1]),
                  ([4], [3] + fe_cols[1:]), ([1], [fe_cols[0]]),
                  ([0], [2])]
        out["diag"] = _check_groups(field, m, row_sizes, col_sizes, groups,
                                    True, "22", lam)
        # First diagonal block factors through the internal commutator by a
        # unit bidiagonal (up to signs) column operation.
        bmat, dets = _base_iso(r, mu, "22", lam)
        d0 = _pick(field, m, _indices(row_sizes, [2]),
                   _indices(col_sizes, [4, 0] + a_cols))
        factor = block_diagonal(field, [
            Matrix.identity(field, ref),
            _scalar_blocks(field, _m_y_alt(field, n + 1), ra)])
        if d0 != bmat @ factor:
            raise NotTriangularError(
                f"corner 22, weight {lam}: bidiagonal factorization through "
                f"the internal commutator fails")
        out["base"] = dets
    return out


def triangular_certificate(P: ProductRep, lam: int) -> dict:
    """A proof-shaped invertibility certificate for the commutator map.

    For each corner: apply the recorded unit row operations, regroup rows and
    columns into the recorded block order, verify the result is
    block-triangular with every off-side block exactly zero, and certify each
    diagonal block by an exact determinant.  Where a diagonal block is a
    disguised copy of the one-step commutator isomorphism of the underlying
    representation, the disguise (a unit triangular or bidiagonal factor) is
    verified as an exact matrix identity.

    Raises :class:`NotTriangularError` or :class:`DiagonalNotIsoError`;
    returns a dictionary of per-corner determinant witnesses on success.
    """
    corners = {
        "11": _cert_11(P, lam),
        "21": _cert_21(P, lam),
        "12": _cert_12(P, lam),
        "22": _cert_22(P, lam),
    }
    return {"lam": lam, "status": "pass", "corners": corners}
