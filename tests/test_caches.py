"""The memoized word calculus: cached maps stay correct after use, and each
structure map is built once.

The call counts are exact and deterministic; no timing is involved.
"""

from sl2prod import bimodcat, matrixops, polyring, tworep
from sl2prod.bimodcat import Bimodule, SumBimodule
from sl2prod.cli import suite_check_rho, suite_identities
from sl2prod.matrixops import Matrix
from sl2prod.polyring import QQ, Poly
from sl2prod.product import (build_product, check_omega3_linearity,
                             eps_xi_F_closed, eps_xi_F_oracle,
                             F_xi_eta_closed, F_xi_eta_oracle, omega3_map,
                             tilde_rho, tilde_sigma_closed,
                             tilde_sigma_oracle)
from sl2prod.product import elements, gammas
from sl2prod.product.core import CORNERS
from sl2prod.product.elements import Elt, basis_elt, elem_tensor
from sl2prod.tworep import make_L1, sigma


def counting(monkeypatch, owner, attr):
    """Replace owner.attr by a wrapper that counts its calls."""
    real = getattr(owner, attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def h_xy_entries(r):
    return {key: f for key, f in r._cache.items() if key[0] == "_h_xy"}


def test_cached_maps_survive_use():
    P = build_product(make_L1(), check=False)
    assert omega3_map(P) is omega3_map(P)
    assert P.Vy.h_xy("FE", 2, [1]) is P.Vy.h_xy("FE", 2, (1,))
    check_omega3_linearity(P, n=40, seed=3)
    for corner in CORNERS:
        assert tilde_sigma_closed(P, corner) == tilde_sigma_oracle(P, corner)
        for i in range(4):
            assert eps_xi_F_closed(P, i, corner) == eps_xi_F_oracle(P, i,
                                                                    corner)
            assert F_xi_eta_closed(P, i, corner) == F_xi_eta_oracle(P, i,
                                                                    corner)
    assert all(r["status"] == "pass" for r in suite_check_rho(P, (-3, 3)))

    fresh = build_product(make_L1(), check=False)
    assert omega3_map(P) == omega3_map(fresh)
    cached = h_xy_entries(P.Vy)
    assert len(cached) > 10
    for (_, word, i, xs, extra_y), f in cached.items():
        assert f == fresh.Vy.h_xy(word, i, xs, extra_y), (word, i, xs)


def test_lift_on_cached_words_builds_no_tensor(monkeypatch):
    r = make_L1().adjoin_y()
    sig = sigma(r)
    lifts = [(sig, "EF", "FE", "F", "E"), (r.x, "E", "E", "FE", "F"),
             (r.eps, "EF", "", "EF", "EF"), (r.eta, "", "FE", "F", "")]
    for args in lifts:
        r.lift(*args)  # builds the word modules
    calls = [counting(monkeypatch, mod, "tensor_over_A")
             for mod in (bimodcat, tworep)]
    for args in lifts:
        r.lift(*args)
    assert calls == [[], []]


def test_omega3_map_built_once_per_product(monkeypatch):
    # sigma is called exactly once in the body of omega3_map and nowhere
    # else in gammas, so its calls count the bodies run.
    built = counting(monkeypatch, gammas, "sigma")
    P = build_product(make_L1(), check=False)
    check_omega3_linearity(P, n=200, seed=0)
    assert len(built) == 1
    check_omega3_linearity(build_product(make_L1(), check=False), n=5)
    assert len(built) == 2


def test_tilde_rho_allocations_linear_in_summands(monkeypatch):
    P = build_product(make_L1(), check=False)
    allocs, summands = {}, {}
    for lam in (20, 40):
        tilde_rho(P, lam)  # builds the word modules
        with monkeypatch.context() as m:
            made = counting(m, Matrix, "__init__")
            sums = counting(m, SumBimodule, "__init__")
            tilde_rho(P, lam)
        allocs[lam] = len(made)
        summands[lam] = sum(len(args[1]) for args in sums)
    # Zero blocks for every pair of summands would make this quadratic.
    assert summands[40] > summands[20] > 50
    assert allocs[40] <= summands[40]
    assert allocs[40] - allocs[20] <= summands[40] - summands[20]


def test_ky_left_factor_makes_no_left_poly_call(monkeypatch):
    # y acts by scalars, so a k[y] coefficient multiplies coordinatewise
    r = make_L1().adjoin_y()
    y, u = Poly.var(QQ, "y"), Poly.var(QQ, "u")
    b = basis_elt(r, "E", -1, 0)
    calls = counting(monkeypatch, Bimodule, "left_poly")
    out = elem_tensor(Elt(r, "F", 1, [y ** 2 - 3]), b)
    assert calls == []
    assert out.vec == [y ** 2 - 3]
    elem_tensor(Elt(r, "F", 1, [u * y]), b)
    assert len(calls) == 1


def test_identities_make_no_long_division(monkeypatch):
    # the divided differences apply their closed form term by term
    calls = [counting(monkeypatch, mod, "exact_divide")
             for mod in (polyring, matrixops, elements)]
    records = suite_identities(QQ)
    assert all(r["status"] == "pass" for r in records)
    assert calls == [[], [], []]
