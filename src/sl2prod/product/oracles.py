"""Independent elementwise constructions of the closed-form corner maps.

Every map that the closed forms present as an explicit matrix is rebuilt
here column by column from the defining pairings and one-step operations,
so the two constructions can be compared entry for entry.  The evaluation
and crossing oracles multiply in the end algebra C through
:func:`~sl2prod.product.core.c_mult`, C's one product.  The oracles never
consult the closed forms, not even for their domains and codomains.
"""

from __future__ import annotations

from ..bimodcat import BimoduleMap, check_equal, record
from ..matrixops import Matrix, ShapeMismatchError
from ..tworep import _memoized, _sequence, hecke_relations
from .core import (C_WORDS, T_FACTORS, ProductRep, c_bases, c_mult, tau21,
                   tilde_tau, tilde_x_pow, tilde_x_step_21, tilde_x_step_22)
from .elements import NotInModelError, basis_elt, elem_tensor, word_shift
from .gammas import omega3_apply
from .models import (CORNER_MODELS, G, GElt, L2Elt, UElt, act_G1_on_G2,
                     act_G1_on_U, act_L2_on_L2_left, act_phi1_on_G2,
                     compose_G1_after_L2, compose_L2_after_G2,
                     compose_L2_after_U, compose_U, decompose_first,
                     gamma21_EE_G1E, gamma22_EE_G1EE, gamma22_EE_G2G2, one_at,
                     one_G1, tau22)


class OracleClaimError(AssertionError):
    """An intermediate identity used by an oracle chain failed to hold."""


# ---------------------------------------------------------------------------
# basis pairs of the EF-ordered corner sums
# ---------------------------------------------------------------------------

@_memoized
def pair_basis(P: ProductRep, corner: str, w: int):
    """Decomposable pairs realizing the standard basis of the EF corner sum
    T[corner] at w, the tensor of the C corners ``T_FACTORS[corner]``.

    The right factor runs over C's basis :func:`c_bases` at w, and the left
    over C's basis at w plus the right word's shift.  The pairs go summand
    pair by summand pair, left summand outer as in ``T_WORDS``, then
    row-major with the left factor outer (the order of ``tensor_over_A``).
    Corner 22 then appends its mixed summand EF: pairs of a degree +1
    element G(2) with d0 = e and a degree -1 element L2 with fp = f, for e
    and f in the bases of C_12 and C_21."""
    r = P.Vy
    ca, cb = T_FACTORS[corner]
    lefts = c_bases(P, ca, w + word_shift(C_WORDS[cb][0]))
    rights = c_bases(P, cb, w)
    out = [(a, b) for ls in lefts for rs in rights for a in ls for b in rs]
    if corner == "22":
        (es,), (fs,) = c_bases(P, "12", w - 2), c_bases(P, "21", w)
        out += [(G(2)(r, w - 2, d0=e), L2Elt(r, w, fp=f)) for e in es
                for f in fs]
    return tuple(out)


@_memoized
def _eta_pairs(P: ProductRep, w: int):
    """Both coordinate flavors of the coevaluation split at weight w.

    Returns (l_eta at w + 2, g_eta at w, flavor) triples, flavor the
    coordinate "q1" or "d0" of g_eta, built once per weight.
    """
    r = P.Vy
    out = []
    for fL, v in decompose_first(one_at(r, w).eta(0)):
        out.append((L2Elt(r, w + 2, fL), G(2)(r, w, v), "q1"))
        out.append((L2Elt(r, w + 2, f=fL), G(2)(r, w, d0=v), "d0"))
    return tuple(out)


def _columnwise(P: ProductRep, dom, cod, colfn) -> BimoduleMap:
    """Assemble a map from a per-basis-column elementwise construction
    ``colfn(w, j)``.  A column of the wrong length, an element outside its
    model and a false claim are raised with the column's weight and index."""
    field = P.Vy.A.field
    mats = {}
    for w in dom.weights():
        n, m = cod.rank(w), dom.rank(w)
        mat = Matrix.zero(field, n, m)
        for j in range(m):
            try:
                col = colfn(w, j)
            except (NotInModelError, OracleClaimError) as e:
                raise type(e)(f"weight {w}, column {j}: {e}") from e
            if len(col) != n:
                raise ShapeMismatchError(f"weight {w}, column {j}: length "
                                         f"{len(col)}, not {n}")
            for i, v in enumerate(col):
                mat.set(i, j, v)
        mats[w] = mat
    return BimoduleMap(dom, cod, mats)


# ---------------------------------------------------------------------------
# the commutator map, built elementwise
# ---------------------------------------------------------------------------

def _sigma22_EF_column(P: ProductRep, g2in: GElt, lprime: L2Elt) -> UElt:
    """Elementwise image of a mixed column of the constrained corner."""
    r = P.Vy
    w = lprime.weight
    e = g2in.d0
    total = UElt(r, w)
    for l_eta, g_eta, flavor in _eta_pairs(P, w):
        ht = tau22(gamma22_EE_G2G2(g_eta, g2in))
        v = getattr(g_eta, flavor)
        tens = elem_tensor(v, e)
        claim = []
        for u, rr in decompose_first(tens.tau(1)):
            q = (gamma21_EE_G1E(one_G1(r, w), rr) if flavor == "q1"
                 else G(2)(r, w - 2, d0=rr))
            claim.append((G(2)(r, w, d0=u), q, 1))
        if flavor == "q1":
            for u, rr in decompose_first(tens.y(1).tau(1)):
                claim.append((G(2)(r, w, d0=u), G(2)(r, w - 2, d0=rr), -1))
        acc = None
        for p, q, s in claim:
            t = gamma22_EE_G2G2(p, q)
            t = t if s > 0 else -t
            acc = t if acc is None else acc + t
        if acc is None:
            if not ht.is_zero():
                raise OracleClaimError("empty decomposition of a nonzero "
                                       "crossed image")
        elif not (acc - ht).is_zero():
            raise OracleClaimError("decomposable presentation of the "
                                   "crossed image does not match")
        for p, q, s in claim:
            ghat = compose_L2_after_G2(lprime, q)
            u = compose_U(p, l_eta)
            u = act_G1_on_U(u, ghat)
            total = total + (u if s > 0 else -u)
    return total


def tilde_sigma_oracle(P: ProductRep, corner: str) -> BimoduleMap:
    """The commutator corner map, built column by column from pairings.

    The map is right C-linear, sigma(a (x) b) = sigma(a) . b, so a column
    crosses its left factor a and lets the right factor b act on the
    result.  Crossing a in C_12 gives one G(2) term; crossing a in C_22
    gives one U term per coevaluation split.  Corner 22's mixed pairs,
    whose left factor is not in C, have their own column."""
    r = P.Vy
    pairs = {w: pair_basis(P, corner, w) for w in P.T[corner].weights()}
    ca, cb = T_FACTORS[corner]

    def col(w, j):
        a, b = pairs[w][j]
        if isinstance(a, G(2)):
            return _sigma22_EF_column(P, a, b).to_vec()
        if ca == "12":
            terms = [tau21(P, gamma21_EE_G1E(one_G1(r, a.weight + 2), a))]
        else:
            terms = [compose_U(tau21(P, act_G1_on_G2(g_eta, a)), l_eta)
                     for l_eta, g_eta, _ in _eta_pairs(P, a.weight)]
        if cb == "22":
            act = act_G1_on_G2 if ca == "12" else act_G1_on_U
            images = [act(t, b) for t in terms]
        else:
            _, f = c_mult(P, "22", one_G1(r, w - 2), "21", b)
            l = L2Elt(r, w, f=f)
            after = compose_L2_after_G2 if ca == "12" else compose_L2_after_U
            images = [after(l, t) for t in terms]
        return sum(images, CORNER_MODELS[corner](r, w)).to_vec()

    return _columnwise(P, P.T[corner], P.S[corner], col)


# ---------------------------------------------------------------------------
# the pairing maps, built elementwise
# ---------------------------------------------------------------------------

@_memoized
def _iterates(P: ProductRep, step, start) -> list:
    """The dot orbit [start, step(start), ...], grown by :func:`_iterate`:
    one list per step and start value, so every reader of an equal start
    (the unit at w, a left factor shared by several ``pair_basis``
    corners) reads one orbit.

    ``step`` must be a module-level function: orbits are keyed by its
    identity, and a lambda or closure made per call would start a new
    orbit for every i."""
    return [start]


def _iterate(P: ProductRep, reader: tuple, start, step, i: int):
    """The i-th iterate of ``step`` from the start element ``start()`` of
    ``reader`` = (oracle, corner, weight, column, ...).

    The start is built once per reader, and the reader's orbit is kept as
    the one item of the :func:`~sl2prod.tworep._sequence` under
    ``("_starts", *reader)``, so a later power hashes no element."""
    orbit = _sequence(P, ("_starts", *reader), 0,
                      lambda _: _iterates(P, step, start()))
    while len(orbit) <= i:
        orbit.append(step(P, orbit[-1]))
    return orbit[i]


def _x_step_E(P: ProductRep, e):
    return e.x(1)


def eps_xi_F_oracle(P: ProductRep, i: int, corner: str) -> BimoduleMap:
    """The i-th evaluation pairing on a corner, built column by column: the
    C-product of x^i times the left factor with the right factor.  Only the
    mixed (degree +1, degree -1) pairs of corner 22 leave C."""
    pairs = {w: pair_basis(P, corner, w) for w in P.T[corner].weights()}
    ca, cb = T_FACTORS[corner]
    step = _x_step_E if ca == "12" else tilde_x_step_21

    def col(w, j):
        a, b = pairs[w][j]
        if isinstance(a, G(2)):
            g2i = _iterate(P, ("eps", "22", w, j), lambda: a,
                           tilde_x_step_22, i)
            return compose_L2_after_G2(b, g2i).to_vec()
        ai = _iterate(P, ("eps", corner, w, j), lambda: a, step, i)
        _, res = c_mult(P, ca, ai, cb, b)
        return res.to_vec()

    return _columnwise(P, P.T[corner], P.C[corner], col)


def F_xi_eta_oracle(P: ProductRep, i: int, corner: str) -> BimoduleMap:
    """The i-th coevaluation pairing on a corner, built column by column.

    The column of a basis element c of C (:func:`c_bases`) takes x^i of a
    start element, built once per column.  Corners 11 and 21 step the G(1)
    unit, and corner 21 then composes it after the degree -1 element with
    f = c.  Corner 12 steps gamma_21(1, c).  Corner 22 steps g . c for each
    coevaluation split (l, g) and pairs each result with l."""
    r = P.Vy
    bases = {w: [c for cs in c_bases(P, corner, w) for c in cs]
             for w in P.C[corner].weights()}

    def col(w, j):
        c = bases[w][j]
        if corner in ("11", "21"):
            ci = _iterate(P, ("F", corner, w, j), lambda: one_G1(r, w),
                          tilde_x_step_21, i)
            if corner == "21":
                ci = compose_G1_after_L2(ci, L2Elt(r, w, f=c))
            return ci.to_vec()
        if corner == "12":
            return _iterate(P, ("F", "12", w, j),
                            lambda: gamma21_EE_G1E(one_G1(r, w + 2), c),
                            tilde_x_step_22, i).to_vec()
        total = UElt(r, w)
        for k, (l_eta, g_eta, _) in enumerate(_eta_pairs(P, w)):
            gi = _iterate(P, ("F", "22", w, j, k),
                          lambda: act_G1_on_G2(g_eta, c), tilde_x_step_22, i)
            total = total + compose_U(gi, l_eta)
        return total.to_vec()

    return _columnwise(P, P.C[corner], P.S[corner], col)


# ---------------------------------------------------------------------------
# product-level checks
# ---------------------------------------------------------------------------

def closed_vs_oracle(name, closed, oracle, P: ProductRep, *args) -> dict:
    """The record ``name`` of ``closed(P, *args) == oracle(P, *args)``; an
    element outside its corner model or a false oracle claim fails it, with
    the exception's message as its witness."""
    try:
        return check_equal(name, closed(P, *args), oracle(P, *args))
    except (NotInModelError, OracleClaimError) as e:
        return record(name, False, e)


def check_product_hecke(P: ProductRep):
    """Dot and crossing relations on every corner of the product square.

    The product works on V itself, so corners 11 and 12 are V's own
    memoized maps: hecke[11] rechecks check-rep's relations on EE, and
    hecke[12] checks them on strands 2 and 3 of EEE.  The dot relations of
    the constrained corner 22 need a spanning calculus that is not
    implemented: their record passes only when the corner's spanning set
    is zero, and fails otherwise.  A spanning element whose crossed image
    leaves G(3) fails the record tau^2 = 0."""
    r = P.Vy

    def col_xin(w, j):
        step = _iterate(P, ("xin21", w), lambda: one_G1(r, w),
                        tilde_x_step_21, 1)
        return act_G1_on_G2(P.sum_basis("12", w)[j], step).to_vec()

    xin21 = _columnwise(P, P.S["12"], P.S["12"], col_xin)
    out = []
    for c, xin, xout in (("11", r.x_at("EE", 1), r.x_at("EE", 2)),
                         ("12", r.x_at("EEE", 2), r.x_at("EEE", 3)),
                         ("21", xin21, tilde_x_pow(P, 1))):
        out += hecke_relations(tilde_tau(P, c), xin, xout, (
            f"hecke[{c}]: tau^2 = 0", f"hecke[{c}]: tau xin = xout tau + 1",
            f"hecke[{c}]: xin tau = tau xout + 1"))

    spanning_all_zero, tau_sq_bad = True, None
    for w in P.weights():
        span = []
        for i in range(r.word("EE").rank(w)):
            ee = basis_elt(r, "EE", w, i)
            for cs in c_bases(P, "22", w + 4):
                span += [gamma22_EE_G1EE(c1, ee) for c1 in cs]
        for q in P.sum_basis("12", w):
            for p in P.sum_basis("12", w + 2):
                span.append(gamma22_EE_G2G2(p, q))
        for v in span:
            if not v.is_zero():
                spanning_all_zero = False
            try:
                if tau_sq_bad is None and not tau22(tau22(v)).is_zero():
                    tau_sq_bad = f"weight {w}"
            except NotInModelError as e:
                tau_sq_bad = f"weight {w}: crossed image not in G(3): {e}"
    out.append(record("hecke[22]: tau^2 = 0", tau_sq_bad is None, tau_sq_bad))
    out.append(record("hecke[22]: dot relations", spanning_all_zero,
                      "corner trivial" if spanning_all_zero else
                      "nonzero corner: dot relations not implemented"))
    return out


def check_eta22_identity(P: ProductRep):
    """The coevaluation split reassembles to the identity pairing."""
    r = P.Vy
    out = []
    for w in P.weights():
        eta1 = one_at(r, w).eta(0)
        total = UElt(r, w)
        try:
            for l_eta, g_eta, _ in _eta_pairs(P, w):
                total = total + compose_U(g_eta, l_eta)
            ok, why = (total - UElt(r, w, p11=eta1, p22=eta1)).is_zero(), None
        except NotInModelError as e:
            ok, why = False, e
        out.append(record(f"eta22 identity at {w}", ok, why))
    return out


def check_omega3_linearity(P: ProductRep):
    """Middle linearity of the constrained mixed component over the
    off-diagonal end data, on every basis triple at every weight.

    The defect d(g, phi, l) = omega3(g.phi (x) l) - omega3(g (x) phi.l) is
    k[y]-linear in each of g, phi and l, because every step computing it
    is: the element operators ``x``, ``y``, ``tau``, ``eta`` and
    ``tau_mate``, ``join``, the omega3 block matrix and
    ``elem_tensor`` (a k[y] coefficient acts by scalars, so
    left_poly(pq) = q left_poly(p) for q in k[y]).  So d vanishes on all
    k[y]-combinations of basis vectors exactly when it vanishes on every
    basis triple (g at w - 2, phi in FE at w - 2, l at w).  The record
    fails on the first nonzero defect, with its weight and triple indices;
    a pass counts the triples checked, so an empty check shows."""
    r = P.Vy
    name = "omega3 middle linearity on every basis triple"
    triples = 0
    for w in P.weights():
        ls = P.sum_basis("21", w)
        phis = [basis_elt(r, "FE", w - 2, j)
                for j in range(r.word("FE").rank(w - 2))]
        for i, g in enumerate(P.sum_basis("12", w - 2)):
            for j, phi in enumerate(phis):
                g_phi = act_phi1_on_G2(g, phi)
                for k, l in enumerate(ls):
                    triples += 1
                    lhs = omega3_apply(P, g_phi, l)
                    rhs = omega3_apply(P, g, act_L2_on_L2_left(phi, l))
                    if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
                        return [record(name, False,
                                       f"weight {w}, triple ({i}, {j}, {k})")]
    return [record(name, True, f"{triples} basis triples")]
