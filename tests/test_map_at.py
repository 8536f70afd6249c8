"""Single-weight assembly of the commutator maps against sum-then-restrict.

``tworep.commutator_at`` restricts each word module to the one weight a
commutator map lives at and sums the restricted summands.  The references below are the
earlier assembly: sum the full word modules, then restrict the sum.  Both
must give the same matrices and, at that weight, the same ranks and left
actions on the domain and the codomain.
"""

import pytest

from sl2prod.bimodcat import BimoduleMap, SumBimodule
from sl2prod.matrixops import Matrix, block_matrix
from sl2prod.polyring import make_field
from sl2prod.product.core import (CORNERS, T_WORDS, build_product,
                                  eps_xi_F_closed,
                                  F_xi_eta_closed, tilde_sigma_closed,
                                  word_sum)
from sl2prod.product.models import CORNER_MODELS
from sl2prod.product.rho import _corner_rho
from sl2prod.tworep import (eps_xi, make_L1, restrict_algebra, restrict_at,
                            rho, sigma, xi_eta)

from test_tworep import corrupted_rep

WEIGHTS = range(-6, 7)
PAIR_WORD = {"11": "", "21": "F", "12": "E"}


def restricted(M, mu):
    """M restricted to the source weight mu over its own restricted
    algebra."""
    return restrict_at(M, mu, restrict_algebra(M.algebra, mu, M.shift))


def ref_rho(rep, lam):
    field = rep.A.field
    EF, FE = SumBimodule([rep.word("EF")]), SumBimodule([rep.word("FE")])
    if lam not in rep.A:
        return BimoduleMap(restricted(EF, lam), restricted(FE, lam), {})
    sig = sigma(rep)
    if lam >= 0:
        rows = [sig.matrix(lam)] + [eps_xi(rep, i).matrix(lam)
                                    for i in range(lam)]
        cod = SumBimodule([rep.word("FE")] + [rep.word("")] * lam)
        return BimoduleMap(restricted(EF, lam), restricted(cod, lam),
                           {lam: block_matrix(field, [[r] for r in rows])})
    cols = [sig.matrix(lam)] + [xi_eta(rep, i).matrix(lam)
                                for i in range(-lam)]
    dom = SumBimodule([rep.word("EF")] + [rep.word("")] * (-lam))
    return BimoduleMap(restricted(dom, lam), restricted(FE, lam),
                       {lam: block_matrix(field, [cols])})


def rows_of(m, r0, r1):
    return Matrix(m.field, max(r1 - r0, 0), m.ncols,
                  [list(r) for r in m.entries[r0:r1]])


def cols_of(m, c0, c1):
    return Matrix(m.field, m.nrows, max(c1 - c0, 0),
                  [row[c0:c1] for row in m.entries])


def ref_corner_rho(P, corner, lam):
    r = P.Vy
    field = r.A.field
    mu = lam + (1 if corner in ("11", "21") else -1)
    n = abs(lam)
    dom_words = list(T_WORDS[corner])
    cod_words = CORNER_MODELS[corner].words()
    extra = ([""] * n + ["FE"] * n if corner == "22"
             else [PAIR_WORD[corner]] * n)
    if lam >= 0:
        cod_words += extra
    else:
        dom_words += extra
    dom = restricted(word_sum(r, dom_words), mu)
    cod = restricted(word_sum(r, cod_words), mu)
    if mu not in r.A:
        return BimoduleMap(dom, cod, {})
    smat = tilde_sigma_closed(P, corner).matrix(mu)
    if lam == 0:
        return BimoduleMap(dom, cod, {mu: smat})
    ra = r.word("").rank(mu)
    if lam > 0:
        pair = [eps_xi_F_closed(P, i, corner).matrix(mu) for i in range(n)]
        if corner == "22":
            pair = ([rows_of(m, 0, ra) for m in pair]
                    + [rows_of(m, ra, m.nrows) for m in pair])
        mat = block_matrix(field, [[x] for x in [smat] + pair])
    else:
        pair = [F_xi_eta_closed(P, i, corner).matrix(mu) for i in range(n)]
        if corner == "22":
            pair = ([cols_of(m, 0, ra) for m in pair]
                    + [cols_of(m, ra, m.ncols) for m in pair])
        mat = block_matrix(field, [[smat] + pair])
    return BimoduleMap(dom, cod, {mu: mat})


def assert_same(got, want):
    assert set(got.mats) == set(want.mats)
    for lam in want.mats:
        assert got.matrix(lam) == want.matrix(lam), lam
    for g, w in ((got.dom, want.dom), (got.cod, want.cod)):
        assert g.algebra == w.algebra
        assert g.shift == w.shift
        assert g.weights() == w.weights()
        for lam in w.weights():
            assert g.rank(lam) == w.rank(lam)
            assert g.components[lam].left == w.components[lam].left


REPS = {
    "L1": lambda: make_L1(),
    "L1-GF7": lambda: make_L1(make_field("7")),
    "corrupted": corrupted_rep,
}


@pytest.fixture(scope="module", params=sorted(REPS))
def product(request):
    return build_product(REPS[request.param]())


@pytest.mark.parametrize("lam", WEIGHTS)
def test_rho_matches_sum_then_restrict(product, lam):
    assert_same(rho(product.Vy, lam), ref_rho(product.Vy, lam))


@pytest.mark.parametrize("lam", WEIGHTS)
def test_corner_rho_matches_sum_then_restrict(product, lam):
    for corner in CORNERS:
        assert_same(_corner_rho(product, corner, lam),
                    ref_corner_rho(product, corner, lam))


def test_references_see_nonempty_sums(product):
    # the comparison is not vacuous: some weight has a domain sum of more
    # than one summand with a nonzero matrix
    assert any(isinstance(f.dom, SumBimodule) and f.dom.total_rank()
               and not f.is_zero()
               for lam in WEIGHTS for corner in CORNERS
               for f in [_corner_rho(product, corner, lam)])
