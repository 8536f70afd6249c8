"""Assembly and certification of the commutator maps on the product.

The weight-``lam`` commutator map has four corners indexed by the product
idempotents.  Each corner stacks the closed-form commutator block with the
evaluation pairings (``lam >= 0``, extra rows) or the coevaluation pairings
(``lam <= 0``, extra columns).  Two independent certification routes are
provided, and each returns a :func:`~sl2prod.bimodcat.record`:

* :func:`sl2prod.bimodcat.certify_iso` applied to the four corners'
  matrices, keyed by (corner, weight) — a determinant computation;
* :func:`triangular_certificate` — a proof-shaped witness that permutes rows
  and columns (after explicit unit row operations) into a block-triangular
  matrix whose diagonal blocks are certified isomorphisms, and that checks
  the factorizations relating those blocks to the one-step commutator
  isomorphisms of the underlying representation.  A corner's checks are
  the ``steps`` of :func:`_layout` (base, shape, group and factor), run in
  the listed order, so the order that picks a failing input's witness is
  stated once.  A failure is raised inside this module as
  :class:`CertificateError` and becomes the record's witness.
"""

from ..bimodcat import BimoduleMap, certify_iso, record, unit_det
from ..matrixops import Matrix, block_diagonal, offsets, pick
from ..polyring import Poly
from ..tworep import _memoized, commutator_at, rho
from .core import (C_WORDS, CORNERS, MU_SHIFT, T_WORDS, ProductRep,
                   tilde_sigma_closed, eps_xi_F_closed, F_xi_eta_closed)
from .models import CORNER_MODELS


class CertificateError(ValueError):
    """A step of a triangular certificate fails: a diagonal block is not an
    isomorphism, a claimed-zero block is nonzero, or a claimed factorization
    of a block fails."""


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
                 [closed(P, i, corner).matrix(mu) for i in range(abs(lam))]))


def tilde_rho(P: ProductRep, lam: int) -> dict:
    """The commutator map at weight ``lam`` as ``{corner: map}``, in CORNERS.

    Corners 11 and 21 live at internal weight ``lam + 1``; corners 12 and 22
    at ``lam - 1``.  At ``lam = 0`` the row and column assemblies coincide and
    every corner reduces to its closed commutator block.
    """
    return {c: _corner_rho(P, c, lam) for c in CORNERS}


# --------------------------------------------------------------------------
# Triangular certificates
# --------------------------------------------------------------------------

def _indices(sizes, blocks):
    offs = offsets(sizes)
    return [i for b in blocks for i in range(offs[b], offs[b + 1])]


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


def _layout(corner, lam):
    """The shape of a corner's certificate at weight ``lam``.

    Returns ``(rowop, lower, steps)``, in row and column blocks of the corner
    map's codomain and domain summands at its internal weight mu:

    * ``rowop = (i, j, word)``, or None: row block ``i`` less y_1 on
      ``word`` times row block ``j``, a unit row operation;
    * ``lower``: the groups form a lower (else upper) block-triangular
      matrix;
    * ``steps``, the checks in the order they run, which decides the
      witness of an input that fails more than one:

      - ``("base",)``: the one-step commutator rho_mu is an isomorphism;
      - ``("shape",)``: every off-side block between groups is zero;
      - ``("group", rows, cols)``: the next diagonal group has a unit
        determinant;
      - ``("factor", rows, cols, U, left)``: the block on ``rows`` x
        ``cols`` equals F @ rho_mu (``left``) or rho_mu @ F, where
        F = I (+) U (x) I_A and U(field, |mu|) is a unit matrix of
        polynomials.
    """
    n = abs(lam)
    shape = ("shape",)
    if corner == "11":
        if lam >= 0:
            return None, True, [("base",), shape, (
                "factor", [1, 0, *range(2, lam + 2)], [0], _m_neg, True)]
        rest = [0, *range(2, n + 1)]
        return None, False, [("base",), shape, ("group", [0], [1]),
                             ("factor", [1], rest, _m_h, False),
                             ("group", [1], rest)]
    if corner in ("21", "12"):
        top, mid = ([0], [1]) if corner == "21" else ([1], [0])
        if lam >= 0:
            rowop = (1, 0, "E") if corner == "12" else None
            return rowop, True, [shape, ("group", top, [0]),
                                 ("group", [*mid, 2, *range(3, 3 + n)], [1])]
        return None, False, [shape, ("group", top, [0]), ("group", mid, [2]),
                             ("group", [2], [1, *range(3, 2 + n)])]
    a_blocks = list(range(5, 5 + n))
    fe_blocks = list(range(5 + n, 5 + 2 * n))
    if lam == 0:
        return (0, 1, "FE"), True, [
            shape, ("group", [3], [1]), ("group", [0], [2]),
            ("group", [2], [0, 4]), ("group", [1, 4], [3])]
    if lam > 0:
        factored = ([2, *a_blocks[1:]], [4])
        return (0, 1, "FE"), True, [
            shape, ("group", [3], [1]), ("group", [0], [2]),
            ("group", [5], [0]), ("group", *factored),
            ("group", [1, 4, *fe_blocks], [3]),
            ("base",), ("factor", *factored, _m_h_low_neg, True)]
    factored = ([2], [4, 0, *a_blocks])
    return (2, 3, "FE"), True, [
        shape, ("group", *factored), ("group", [3], [1]),
        ("group", [4], [3, *fe_blocks[1:]]), ("group", [1], [fe_blocks[0]]),
        ("group", [0], [2]), ("base",),
        ("factor", *factored, _m_y_alt, False)]


def _corner_certificate(P, corner, lam, mu):
    """The triangular certificate of one corner at its internal weight
    ``mu``: the steps of :func:`_layout`, run in order; see
    :func:`triangular_certificate`."""
    r = P.Vy
    field = r.A.field
    f = _corner_rho(P, corner, lam)
    row_sizes = [s.rank(mu) for s in f.cod.summands]
    col_sizes = [s.rank(mu) for s in f.dom.summands]
    rowop, lower, steps = _layout(corner, lam)
    where = f"corner {corner}, weight {lam}"
    m = f.matrix(mu)
    if rowop is not None:
        i, j, word = rowop
        m = _rowop(field, m, row_sizes, i, j, r.y_at(word, 1).matrix(mu))
    groups = [(_indices(row_sizes, s[1]), _indices(col_sizes, s[2]))
              for s in steps if s[0] == "group"]
    out = {"diag": [], "base": {}}
    for kind, *args in steps:
        if kind == "base":
            cert = certify_iso(rho(r, mu).mats, f"rho_{mu} iso")
            if cert["status"] != "pass":
                raise CertificateError(
                    f"{where}: one-step commutator at internal weight {mu} "
                    f"is not iso: {cert['witness']}")
            out["base"] = cert["dets"]
        elif kind == "shape":
            for a, (rows, _) in enumerate(groups):
                for b, (_, cols) in enumerate(groups):
                    if ((b > a if lower else b < a)
                            and not pick(m, rows, cols).is_zero()):
                        raise CertificateError(
                            f"{where}: block (group {a}, group {b}) is "
                            f"nonzero")
        elif kind == "group":
            a = len(out["diag"])
            blk = pick(m, *groups[a])
            det, reason = unit_det(blk)
            if det is None:
                raise CertificateError(
                    f"{where}: diagonal block {a} is {blk.nrows}x{blk.ncols}")
            if reason:
                raise CertificateError(
                    f"{where}: diagonal block {a} has determinant {det}")
            out["diag"].append(str(det))
        else:
            rows, cols, unit, left = args
            bmat, k = rho(r, mu).matrix(mu), abs(mu)
            F = block_diagonal(field, [
                Matrix.identity(field, (bmat.nrows if left else bmat.ncols)
                                - k),
                Matrix.from_rows(field, unit(field, k))])
            block = pick(m, _indices(row_sizes, rows),
                         _indices(col_sizes, cols))
            if block != (F @ bmat if left else bmat @ F):
                raise CertificateError(
                    f"{where}: factorization through the internal "
                    f"commutator fails")
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
    except CertificateError as e:
        return record(name, False, e)
    return record(name, True, corners=corners)
