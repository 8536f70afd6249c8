"""Assembly and certification of the commutator maps on the product.

The weight-``lam`` commutator map has four corners indexed by the product
idempotents.  Each corner stacks the closed-form commutator block with the
evaluation pairings (``lam >= 0``, extra rows) or the coevaluation pairings
(``lam <= 0``, extra columns).  Two independent certification routes are
provided, and each returns a :func:`~sl2prod.bimodcat.record`:

* :func:`sl2prod.bimodcat.certify_iso` applied to the assembled map — a
  determinant computation;
* :func:`triangular_certificate` — a proof-shaped witness that permutes rows
  and columns (after explicit unit row operations) into a block-triangular
  matrix whose diagonal blocks are certified isomorphisms, and that checks
  the factorizations relating those blocks to the one-step commutator
  isomorphisms of the underlying representation.  A failure is raised
  inside this module as :class:`NotTriangularError` or
  :class:`DiagonalNotIsoError` and becomes the record's witness.
"""

from ..bimodcat import BimoduleMap, certify_iso, record
from ..matrixops import (Matrix, bareiss_determinant, block_diagonal,
                         offsets, pick, place_blocks)
from ..polyring import Poly
from ..tworep import _memoized, commutator_at, rho
from .core import (C_WORDS, CORNERS, MU_SHIFT, T_WORDS, ProductRep,
                   tilde_sigma_closed, eps_xi_F_closed, F_xi_eta_closed)
from .models import CORNER_MODELS

__all__ = ["RhoMap", "tilde_rho", "triangular_certificate"]


class NotTriangularError(ValueError):
    """A claimed-zero block of the permuted matrix is nonzero, or a claimed
    factorization of a block fails."""


class DiagonalNotIsoError(ValueError):
    """A diagonal block of the permuted matrix is not an isomorphism."""


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


@_memoized
def _corner_rho(P: ProductRep, corner: str, lam: int) -> BimoduleMap:
    """One corner of the commutator map at ``lam``, built by
    :func:`~sl2prod.tworep.commutator_at` at the corner's internal weight
    ``mu = lam + MU_SHIFT[corner]``.

    The closed commutator block is stacked with the closed evaluation
    pairings (``lam > 0``, extra rows) or coevaluation pairings
    (``lam < 0``, extra columns), each split along the end-algebra corner's
    words ``C_WORDS[corner]``.  When ``mu`` is outside the support the map
    has no matrix and no matrix is computed."""
    mu = lam + MU_SHIFT[corner]
    closed = eps_xi_F_closed if lam > 0 else F_xi_eta_closed
    return commutator_at(
        P.Vy, mu, lam, T_WORDS[corner], CORNER_MODELS[corner].words(),
        C_WORDS[corner],
        lambda: (tilde_sigma_closed(P, corner).matrix(mu),
                 [closed(P, i, corner).matrix(mu) for i in range(abs(lam))]),
        f"rho{corner}_{lam}")


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


def _scalar_blocks(field, entries, n):
    """Matrix of scalar blocks: each polynomial entry times the identity of
    rank ``n``."""
    ident = Matrix.identity(field, n)
    sizes = [n] * len(entries)
    return place_blocks(field, sizes, sizes, {
        (i, j): ident.scale(e) for i, row in enumerate(entries)
        for j, e in enumerate(row) if not e.is_zero()})


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


def _m_h_low_neg(field, k):
    """Minus the unit lower-triangular matrix with entry y^(i-j) below the
    diagonal."""
    y = Poly.var(field, "y")
    z = Poly.zero(field)
    return [[-y ** (i - j) if i >= j else z for j in range(k)]
            for i in range(k)]


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


def _check_groups(field, m, row_sizes, col_sizes, groups, lower, corner, lam,
                  hook=None):
    """Verify the block-triangular shape given a grouping of row and column
    blocks, and certify each diagonal group; returns determinant strings.

    ``hook = (a, check)`` runs ``check()`` before the determinant of group
    ``a``, or after the last one when ``a == len(groups)``."""
    rows = [_indices(row_sizes, g[0]) for g in groups]
    cols = [_indices(col_sizes, g[1]) for g in groups]
    for a in range(len(groups)):
        for b in range(len(groups)):
            off_side = b > a if lower else b < a
            if off_side and not pick(m, rows[a], cols[b]).is_zero():
                raise NotTriangularError(
                    f"corner {corner}, weight {lam}: block (group {a}, "
                    f"group {b}) is nonzero")
    dets = []
    for a in range(len(groups) + 1):
        if hook is not None and hook[0] == a:
            hook[1]()
        if a < len(groups):
            dets.append(_unit_det(pick(m, rows[a], cols[a]), corner, lam, a))
    return dets


def _layout(corner, lam):
    """The shape of a corner's certificate at weight ``lam``.

    Returns ``(rowop, groups, lower, factor)``, in row and column blocks of
    the corner map's codomain and domain summands at its internal weight:

    * ``rowop = (i, j, word)``, or None: row block ``i`` less y_1 on
      ``word`` times row block ``j``, a unit row operation;
    * ``groups``: the diagonal groups (row blocks, column blocks) of a
      block-triangular matrix, lower when ``lower`` and upper otherwise;
    * ``factor = (rows, cols, U, left, at)``, or None: the block on
      ``rows`` x ``cols`` equals F @ rho_mu (``left``) or rho_mu @ F, where
      F = I (+) U (x) I_A and rho_mu is the one-step commutator at the
      internal weight mu; U(field, |mu|) is a unit matrix of polynomials.
      The identity is checked before the determinant of group ``at``
      (after the last group when ``at == len(groups)``).
    """
    n = abs(lam)
    if corner == "11":
        if lam >= 0:
            return None, [], True, ([1, 0, *range(2, lam + 2)], [0],
                                    _m_neg, True, 0)
        rest = [0, *range(2, n + 1)]
        return (None, [([0], [1]), ([1], rest)], False,
                ([1], rest, _m_h, False, 1))
    if corner in ("21", "12"):
        top, mid = ([0], [1]) if corner == "21" else ([1], [0])
        if lam >= 0:
            rowop = (1, 0, "E") if corner == "12" else None
            return (rowop, [(top, [0]), ([*mid, 2, *range(3, 3 + n)], [1])],
                    True, None)
        return (None, [(top, [0]), (mid, [2]), ([2], [1, *range(3, 2 + n)])],
                False, None)
    a_blocks = list(range(5, 5 + n))
    fe_blocks = list(range(5 + n, 5 + 2 * n))
    if lam == 0:
        return ((0, 1, "FE"),
                [([3], [1]), ([0], [2]), ([2], [0, 4]), ([1, 4], [3])],
                True, None)
    if lam > 0:
        factored = ([2, *a_blocks[1:]], [4])
        return ((0, 1, "FE"),
                [([3], [1]), ([0], [2]), ([5], [0]), factored,
                 ([1, 4, *fe_blocks], [3])],
                True, (*factored, _m_h_low_neg, True, 5))
    factored = ([2], [4, 0, *a_blocks])
    return ((2, 3, "FE"),
            [factored, ([3], [1]), ([4], [3, *fe_blocks[1:]]),
             ([1], [fe_blocks[0]]), ([0], [2])],
            True, (*factored, _m_y_alt, False, 5))


def _corner_certificate(P, corner, lam, mu):
    """The triangular certificate of one corner at its internal weight
    ``mu``; see :func:`triangular_certificate`."""
    r = P.Vy
    field = r.A.field
    f = _corner_rho(P, corner, lam)
    row_sizes = [s.rank(mu) for s in f.cod.summands]
    col_sizes = [s.rank(mu) for s in f.dom.summands]
    rowop, groups, lower, factor = _layout(corner, lam)
    out = {"diag": [], "base": {}}
    bmat = None

    def certify_base():
        nonlocal bmat
        base = rho(r, mu)
        cert = certify_iso(base, f"rho_{mu} iso")
        if cert["status"] != "pass":
            raise DiagonalNotIsoError(
                f"corner {corner}, weight {lam}: one-step commutator at "
                f"internal weight {mu} is not iso: {cert['witness']}")
        bmat, out["base"] = base.matrix(mu), cert["dets"]

    def check_factor():
        if bmat is None:
            certify_base()
        rows, cols, unit, left, _ = factor
        ra, k = r.word("").rank(mu), abs(mu)
        F = block_diagonal(field, [
            Matrix.identity(field,
                            (bmat.nrows if left else bmat.ncols) - k * ra),
            _scalar_blocks(field, unit(field, k), ra)])
        block = pick(m, _indices(row_sizes, rows), _indices(col_sizes, cols))
        if block != (F @ bmat if left else bmat @ F):
            raise NotTriangularError(
                f"corner {corner}, weight {lam}: factorization through the "
                f"internal commutator fails")

    # corner 11 certifies rho_mu first, corner 22 after all its groups: a
    # failing input's first witness depends on this order
    if corner == "11":
        certify_base()
    m = f.matrix(mu)
    if rowop is not None:
        i, j, word = rowop
        m = _rowop(field, m, row_sizes, i, j, r.y_at(word, 1).matrix(mu))
    out["diag"] = _check_groups(
        field, m, row_sizes, col_sizes, groups, lower, corner, lam,
        None if factor is None else (factor[4], check_factor))
    return out


def triangular_certificate(P: ProductRep, lam: int) -> dict:
    """A proof-shaped invertibility certificate for the commutator map.

    For each corner: take the corner's matrix at its internal weight ``mu``,
    apply the recorded unit row operation, regroup rows and columns into the
    recorded block order, verify the result is block-triangular with every
    off-side block exactly zero, and certify each diagonal group by an exact
    determinant.  Where a block is a disguised copy of the one-step
    commutator isomorphism rho_mu of the underlying representation, rho_mu
    is certified and the disguise (a unit triangular or bidiagonal factor)
    is verified as an exact matrix identity.  The block sizes are read from
    the corner map's domain and codomain summands.

    Returns a record.  A failure's witness names the corner, the weight and
    the first block that is not zero, not a unit or not factored as claimed.
    A pass carries ``corners``, one ``{"diag", "base"}`` per corner:
    ``diag`` lists the diagonal groups' determinants in group order and
    ``base`` maps the internal weight to rho_mu's determinant when a
    factorization was checked.  Both are empty for a corner whose internal
    weight is outside the support.
    """
    name = f"commutator map triangular certificate, weight {lam}"
    corners = {}
    try:
        for c in CORNERS:
            mu = lam + MU_SHIFT[c]
            corners[c] = (_corner_certificate(P, c, lam, mu) if mu in P.Vy.A
                          else {"diag": [], "base": {}})
    except (NotTriangularError, DiagonalNotIsoError) as e:
        return record(name, False, e)
    return record(name, True, corners=corners)
