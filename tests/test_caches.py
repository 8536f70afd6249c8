"""The memoized word calculus: cached maps stay correct after use, and each
structure map is built once.

The call counts are exact and deterministic; no timing is involved.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from sl2prod import bimodcat, cli, matrixops, nilhecke, polyring, tworep
from sl2prod.bimodcat import Bimodule, SumBimodule
from sl2prod.cli import suite_build_product, suite_check_rho, suite_identities
from sl2prod.matrixops import Matrix
from sl2prod.polyring import QQ, Poly
from sl2prod.product import core, elements, gammas, models, oracles
from sl2prod.product import rho as rho_mod
from sl2prod.product.core import (C_WORDS, CORNERS, T_WORDS, build_product,
                                  eps_xi_F_closed, F_xi_eta_closed,
                                  tilde_sigma_closed)
from sl2prod.product.gammas import omega3_map
from sl2prod.product.oracles import (check_omega3_linearity,
                                     check_product_hecke, eps_xi_F_oracle,
                                     F_xi_eta_oracle, tilde_sigma_oracle)
from sl2prod.product.rho import tilde_rho
from sl2prod.product.models import CORNER_MODELS, G
from sl2prod.product.elements import Elt, basis_elt, elem_tensor
from sl2prod.tworep import make_L1, sigma

GOLDEN = Path(__file__).parent / "golden"


def counting(monkeypatch, owner, attr):
    """Replace owner.attr by a wrapper that counts its calls."""
    real = getattr(owner, attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def counting_everywhere(monkeypatch, module, attr):
    """Count the calls of module.attr through every sl2prod module that
    holds a binding to it."""
    real = getattr(module, attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("sl2prod") and getattr(mod, attr, None) is real:
            monkeypatch.setattr(mod, attr, wrapper)
    return calls


def h_xy_entries(r):
    """The memoized h_xy powers, keyed ("h_xy", word, i, xs, extra_y)."""
    seqs = {key[1:]: fs for key, fs in r._cache.items() if key[0] == "h_xy"}
    return {("h_xy", word, i, xs, extra_y): f
            for (word, xs, extra_y), fs in seqs.items()
            for i, f in enumerate(fs)}


def test_cached_maps_survive_use():
    P = build_product(make_L1())
    assert omega3_map(P) is omega3_map(P)
    assert P.Vy.h_xy("FE", 2, [1]) is P.Vy.h_xy("FE", 2, (1,))
    check_omega3_linearity(P)
    for corner in CORNERS:
        assert tilde_sigma_closed(P, corner) == tilde_sigma_oracle(P, corner)
        for i in range(4):
            assert eps_xi_F_closed(P, i, corner) == eps_xi_F_oracle(P, i,
                                                                    corner)
            assert F_xi_eta_closed(P, i, corner) == F_xi_eta_oracle(P, i,
                                                                    corner)
    assert all(r["status"] == "pass" for r in suite_check_rho(P, (-3, 3)))

    fresh = build_product(make_L1())
    assert omega3_map(P) == omega3_map(fresh)
    cached = h_xy_entries(P.Vy)
    assert len(cached) > 10
    for (_, word, i, xs, extra_y), f in cached.items():
        assert f == fresh.Vy.h_xy(word, i, xs, extra_y), (word, i, xs)


def test_lift_on_cached_words_builds_no_tensor(monkeypatch):
    r = make_L1()
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
    P = build_product(make_L1())
    check_omega3_linearity(P)
    assert len(built) == 1
    check_omega3_linearity(build_product(make_L1()))
    assert len(built) == 2


def test_omega3_linearity_applies_omega3_per_basis_triple(monkeypatch):
    # on L(1) four basis triples (g, phi, l) exist over all weights, and
    # each defect takes two applications
    calls = counting(monkeypatch, oracles, "omega3_apply")
    P = build_product(make_L1())
    assert check_omega3_linearity(P)[0]["witness"] == "4 basis triples"
    assert len(calls) == 8


def warm_words(P):
    """Build every word module a corner of the commutator maps sums."""
    for c in CORNERS:
        for w in (*T_WORDS[c], *CORNER_MODELS[c].words(), *C_WORDS[c]):
            P.Vy.word(w)


def test_tilde_rho_allocations_linear_in_summands(monkeypatch):
    # L(1) copied to weights 19/21 and 39/41, so every corner's internal
    # weight at lam = 20 and 40 is in the support.  First builds, on warm
    # word modules and memoized closed maps: the count covers the stacking
    lows = (19, 39)
    P = build_product(tworep.rep_from_json({
        "weights": {str(w): ["u"] for a in lows for w in (a, a + 2)},
        "E": {str(a): {"basis": ["e0"], "left": {"u": [["u"]]}}
              for a in lows},
        "x": {str(a): [["u"]] for a in lows}, "tau": {}}))
    warm_words(P)
    for c in CORNERS:
        tilde_sigma_closed(P, c)
        for i in range(40):
            eps_xi_F_closed(P, i, c)
    allocs, summands = {}, {}
    for lam in (20, 40):
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


def test_tilde_rho_outside_support_allocates_no_matrix(monkeypatch):
    # every corner is restricted to its internal weight before any sum is
    # formed, so a weight outside the support needs no left action matrix
    P = build_product(make_L1())
    warm_words(P)
    made = counting(monkeypatch, Matrix, "__init__")
    restricted = counting(monkeypatch, tworep, "restrict_at")
    f = tilde_rho(P, 40)
    assert made == []
    assert all(g.mats == {} for g in f.values())
    assert len(restricted) == sum(  # a first build, not a cache hit
        len({*T_WORDS[c], *CORNER_MODELS[c].words(), *C_WORDS[c]})
        for c in CORNERS)


def test_restricted_summands_share_one_algebra():
    # restrict_at builds one restricted algebra per commutator map, so a
    # sum compares its summands' algebras by identity
    P = build_product(make_L1())
    sums = []
    for lam in range(-3, 4):
        f = tilde_rho(P, lam)
        for g in (*f.values(), tworep.rho(P.Vy, lam)):
            sums += [g.dom, g.cod]
    assert len(sums) == 2 * 7 * 5
    for s in sums:
        assert all(m.algebra is s.summands[0].algebra for m in s.summands)
        assert s.algebra is s.summands[0].algebra


def test_ky_left_factor_makes_no_matrix_product(monkeypatch):
    # y acts by scalars, so a k[y] coefficient multiplies coordinatewise;
    # on L(1) u acts on E as u, so u*y takes no Horner step either.  On the
    # renamed L(1) the generator x1 of the ring at 1 acts on E as u, so
    # x1*y is one Horner step: u's matrix on the y-scaled column
    r = make_L1()
    renamed = tworep.rep_from_json(
        json.loads((GOLDEN / "l1_renamed.json").read_text()))
    y, u, x1 = (Poly.var(QQ, v) for v in ("y", "u", "x1"))
    b = basis_elt(r, "E", -1, 0)
    b_renamed = basis_elt(renamed, "E", -1, 0)  # builds the word module
    products = counting(monkeypatch, Matrix, "__matmul__")
    steps = counting(monkeypatch, bimodcat, "_left_step")
    matrices = counting(monkeypatch, Bimodule, "left_poly")
    out = elem_tensor(Elt(r, "F", 1, [y ** 2 - 3]), b)
    assert (products, steps, matrices) == ([], [], [])
    assert out.vec == [y ** 2 - 3]
    out = elem_tensor(Elt(r, "F", 1, [u * y]), b)
    assert (products, steps, matrices) == ([], [], [])
    assert out.vec == [u * y]
    out = elem_tensor(Elt(renamed, "F", 1, [x1 * y]), b_renamed)
    assert (products, len(steps), matrices) == ([], 1, [])
    assert out.vec == [u * y]


def test_membership_division_forms_no_adjugate(monkeypatch):
    # division by y_i back-substitutes in y; only inverse_map, which no
    # run calls, forms an adjugate
    adjugates = counting_everywhere(monkeypatch, matrixops, "adjugate")
    solves = counting_everywhere(monkeypatch, elements, "solve_op")
    _, records = suite_build_product(make_L1(), 4)
    assert all(r["status"] == "pass" for r in records)
    assert solves and adjugates == []


def test_product_run_builds_each_corner_basis_once(monkeypatch):
    # the Hecke relations, the action and middle-linearity checks and the
    # corner-22 coevaluation oracle read one memoized basis per corner and
    # weight, and corner 21's x_in forms its dot step once per weight
    builds = counting(monkeypatch, core.ProductRep, "vec_to_model")
    steps = counting(monkeypatch, oracles, "tilde_x_step_21")
    P = build_product(make_L1())
    check_product_hecke(P)
    assert len(steps) == len(P.S["12"].weights()) == 1
    builds.clear()
    _, records = suite_build_product(P.Vy, 4)
    assert all(r["status"] == "pass" for r in records)
    built = Counter(args[1:3] for args in builds)
    assert built == {(c, w): P.S[c].rank(w) for c, w in built}
    assert {c for c, _ in built} == {"11", "12", "21"}


def test_identities_make_no_long_division(monkeypatch):
    # the divided differences apply their closed form term by term
    calls = [counting(monkeypatch, mod, "exact_divide")
             for mod in (polyring, matrixops)]
    records = suite_identities(QQ, 8)
    assert all(r["status"] == "pass" for r in records)
    assert calls == [[], []]


def test_identities_fact_one_powers_and_differences_once(monkeypatch):
    # Fact 1 forms x1^i and x2^i once per i and d1(f) once per monomial;
    # the i x f loop made 383 powers and 308 divided differences.  The
    # Artin bases are kept per process, so clear them to count their powers
    monkeypatch.setattr(nilhecke, "_BASES", {})
    powers = counting(monkeypatch, Poly, "__pow__")
    differences = counting(monkeypatch, cli, "divided_difference")
    records = suite_identities(QQ, 4)
    assert all(r["status"] == "pass" for r in records)
    assert (len(powers), len(differences)) == (113, 196)


def gf7_product():
    return build_product(make_L1(polyring.make_field("7")))


def test_oracles_never_call_closed_forms(monkeypatch):
    P = build_product(make_L1())
    calls = [counting_everywhere(monkeypatch, core, name)
             for name in ("eps_xi_F_closed", "F_xi_eta_closed")]
    for corner in CORNERS:
        for i in range(3):
            eps_xi_F_oracle(P, i, corner)
            F_xi_eta_oracle(P, i, corner)
    assert calls == [[], []]


def test_pairing_sweep_steps_linear_in_i(monkeypatch):
    n = 12
    P = gf7_product()
    steps = [counting(monkeypatch, oracles, name)
             for name in ("tilde_x_step_21", "tilde_x_step_22")]
    for corner in CORNERS:
        for i in range(n + 1):
            eps_xi_F_oracle(P, i, corner)
            F_xi_eta_oracle(P, i, corner)
    # each column of an oracle domain (on the constrained corner, each
    # coevaluation split of it) steps its iterate at i - 1 once; rebuilding
    # every i from scratch would take about columns * n^2 / 2 steps
    splits = max(len(oracles._eta_pairs(P, w)) for w in P.weights())
    columns = sum(P.T[c].total_rank()
                  + P.C[c].total_rank() * (splits if c == "22" else 1)
                  for c in CORNERS)
    total = len(steps[0]) + len(steps[1])
    assert 0 < total <= columns * n
    iterates = [v for k, v in P._cache.items() if k[0] == "_iterates"]
    assert iterates and all(len(its) == n + 1 for its in iterates)


def test_closed_pairings_lift_nothing_per_i(monkeypatch):
    # each lifted factor of a closed-form pairing is a memoized map on the
    # longer word (lifting is functorial), so sweeping further in i lifts
    # nothing new
    lifts = counting(monkeypatch, tworep.TwoRep, "lift")
    counts = []
    for n in (2, 8):
        P = gf7_product()
        for corner in CORNERS:
            for i in range(n + 1):
                eps_xi_F_closed(P, i, corner)
                F_xi_eta_closed(P, i, corner)
        counts.append(len(lifts))
        lifts.clear()
    assert counts[0] == counts[1] > 0


def test_h_xy_makes_no_h_complete_call(monkeypatch):
    calls = counting_everywhere(monkeypatch, polyring, "h_complete")
    r = make_L1()
    for i in range(-1, 9):
        for word, xs in (("FE", [1]), ("FEEF", [1, 2]), ("FFEE", [2])):
            r.h_xy(word, i, xs)
            r.h_xy(word, i, xs, extra_y=False)
    assert calls == []


def test_oracles_on_fresh_and_swept_products_agree():
    n = 10
    swept = gf7_product()
    for corner in CORNERS:
        for i in range(n + 1):
            eps_xi_F_oracle(swept, i, corner)
            F_xi_eta_oracle(swept, i, corner)
    assert any(key[0] == "_iterates" for key in swept._cache)
    for corner in CORNERS:
        for i in (0, 3, n):
            fresh = gf7_product()
            for oracle in (eps_xi_F_oracle, F_xi_eta_oracle):
                got, want = oracle(swept, i, corner), oracle(fresh, i, corner)
                assert set(got.mats) == set(want.mats)
                assert got == want, (oracle.__name__, corner, i)


def test_first_call_at_high_i_stays_shallow():
    # both recurrences are built from i = 0 upward, so a first call far
    # above the interpreter's recursion limit does not nest that deep
    r = make_L1()
    n = sys.getrecursionlimit() + 100
    u = Poly.var(QQ, "u")
    assert tworep.self_pow(r, n).matrix(-1).entries == [[u ** n]]
    assert r.h_xy("E", n, [1], extra_y=False).matrix(-1).entries == [[u ** n]]


def test_far_support_gate_is_linear_in_lam():
    # L(1) plus one isolated weight ring at lam: rho_lam stacks lam
    # pairings, each a dot power; building every power from 0 on each call
    # would make the memo lookups grow quadratically in lam
    lookups = []

    class LookupCounter(dict):
        def __contains__(self, key):
            lookups.append(key)
            return super().__contains__(key)

        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

        def setdefault(self, key, default=None):
            lookups.append(key)
            return super().setdefault(key, default)

    counts = []
    for lam in (201, 401):
        data = tworep.rep_to_json(make_L1())
        data["weights"][str(lam)] = ["u"]
        r = tworep.rep_from_json(data)
        r._cache = LookupCounter()
        lookups.clear()
        tworep.check_hypotheses(r, (-1, lam))
        counts.append(len(lookups))
    assert counts[1] <= 2.2 * counts[0]


def test_oracle_start_elements_built_once_per_column(monkeypatch):
    # a sweep over i builds each column's start element once, not once per i
    n = 16
    P = gf7_product()
    C22 = P.C["22"]
    splits = sum(C22.rank(w) * len(oracles._eta_pairs(P, w))
                 for w in C22.weights())
    acts = counting(monkeypatch, oracles, "act_G1_on_G2")
    applies = counting(monkeypatch, Elt, "y")
    for i in range(n + 1):
        F_xi_eta_oracle(P, i, "12")
    assert len(applies) == P.Vy.word("E").total_rank()
    for i in range(n + 1):
        F_xi_eta_oracle(P, i, "22")
    assert len(acts) == splits == 4


def test_tilde_sigma_oracle_pair_basis_once_per_weight(monkeypatch):
    P = build_product(make_L1())
    calls = counting(monkeypatch, oracles, "pair_basis")
    for corner in CORNERS:
        tilde_sigma_oracle(P, corner)
    assert len(calls) == sum(len(P.T[c].weights()) for c in CORNERS) == 6


def test_eta_pairs_built_once_per_weight(monkeypatch):
    # one_at starts each coevaluation split; the parent rebuilt the split
    # per column and per i (51 times in this sweep, 8 times in the
    # commutator oracles)
    P = gf7_product()
    builds = counting(monkeypatch, oracles, "one_at")
    for i in range(17):
        F_xi_eta_oracle(P, i, "22")
    assert len(builds) == len({args[1] for args in builds}) == 2
    P = build_product(make_L1())
    builds.clear()
    for corner in CORNERS:
        tilde_sigma_oracle(P, corner)
    assert len(builds) == len({args[1] for args in builds}) == 2


def returning(monkeypatch, owner, attr):
    """Replace owner.attr by a wrapper that keeps its return values."""
    real = getattr(owner, attr)
    out = []

    def wrapper(*args, **kwargs):
        out.append(real(*args, **kwargs))
        return out[-1]

    monkeypatch.setattr(owner, attr, wrapper)
    return out


def test_verify_all_builds_each_structure_map_once(monkeypatch, tmp_path):
    # each counted callee runs once per body of the map it stands for:
    # tworep.commutator_at for rho, product.rho's commutator_at for
    # _corner_rho, a T_c -> S_c direct sum for tilde_sigma_closed, and the
    # three-factor composite for sigma
    reps = returning(monkeypatch, cli, "_load_rep")
    products = returning(monkeypatch, cli, "build_product")
    made = counting(monkeypatch, tworep.TwoRep, "__init__")
    rhos = counting(monkeypatch, tworep, "commutator_at")
    corners = counting(monkeypatch, rho_mod, "commutator_at")
    sums = counting(monkeypatch, core, "direct_sum_maps")
    composites = counting(monkeypatch, tworep, "compose_all")
    assert cli.main(["verify-all", "--out", str(tmp_path / "r.json")]) == 0
    # one representation: the product works on the loaded one
    assert len(reps) == len(products) == len(made) == 1
    P = products[0]
    r = P.Vy
    assert r is reps[0]

    factors = (r.eps_at("FEEF", 2), r.tau_at("FEEF", 1), r.eta_at("EF", 0))
    assert sum(all(a is b for a, b in zip(args, factors))
               for args in composites if len(args) == 3) == 1
    # rho at -4..4, built by check-rep; the construction gate's hypotheses
    # and the internal weights the corner certificates factor through hit
    # the memo
    assert all(args[0] is r for args in rhos)
    assert Counter(args[2] for args in rhos) == {
        lam: 1 for lam in range(-4, 5)}
    assert Counter((args[3], args[2]) for args in corners) == {
        (T_WORDS[c], lam): 1 for c in CORNERS for lam in range(-4, 5)}
    assert Counter(c for c in CORNERS for args in sums
                   if args[0] is P.T[c] and args[1] is P.S[c]) == {
        c: 1 for c in CORNERS}


@pytest.mark.parametrize("argv", [
    ["verify-all"], ["build-product", "--field", "7", "--i-max", "16"]])
def test_run_tensors_each_word_module_once(monkeypatch, tmp_path, argv):
    # one tensor product per nonempty word module of the one memo: tau is
    # read on the memoized EE
    products = returning(monkeypatch, cli, "build_product")
    tensors = counting_everywhere(monkeypatch, bimodcat, "tensor_over_A")
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    words = [key for key in products[0].Vy._cache
             if key[0] == "word" and key[1]]
    assert len(tensors) == len(words) == 33


def test_run_loads_the_rep_once(monkeypatch, tmp_path):
    # the rep is loaded once, and never for identities; the product is
    # built once, and a standalone check-rho skips its construction gate
    calls = [counting(monkeypatch, cli, name) for name in (
        "make_L1", "build_product", "check_construction")]
    expected = {"identities": [0, 0, 0], "check-rep": [1, 0, 0],
                "build-product": [1, 1, 1], "check-rho": [1, 1, 0]}
    for command, counts in expected.items():
        assert cli.main([command, "--out", str(tmp_path / "r.json")]) == 0
        assert [len(c) for c in calls] == counts, command
        for c in calls:
            c.clear()


def test_memoized_bases_are_read_only():
    # every reader of a memoized basis gets the same object, so a reader
    # that extends it raises instead of changing the basis of the others
    P = build_product(make_L1())
    for read in (lambda: P.sum_basis("22", -1),
                 lambda: oracles.pair_basis(P, "22", -1),
                 lambda: oracles._eta_pairs(P, -1)):
        basis = read()
        n = len(basis)
        with pytest.raises(TypeError):
            basis += [basis[0]]
        assert read() is basis and len(basis) == n


def test_verify_all_builds_each_closed_pairing_once(monkeypatch, tmp_path):
    # build-product checks 40 distinct closed pairings against their
    # oracles, and the rho-tilde certificates stack 8 of them again: the
    # memo returns the same maps (48 built when check-rho rebuilt them)
    outs = [returning(monkeypatch, mod, name) for mod in (cli, rho_mod)
            for name in ("eps_xi_F_closed", "F_xi_eta_closed")]
    assert cli.main(["verify-all", "--out", str(tmp_path / "r.json")]) == 0
    maps = [f for out in outs for f in out]
    assert len(maps) == 48 and len({id(f) for f in maps}) == 40


def test_pairing_sweep_builds_each_pair_basis_once():
    # the memo stores each entry once, after the body ran: the stores
    # count the body runs
    class CountingDict(dict):
        def __setitem__(self, key, value):
            stores[key] += 1
            super().__setitem__(key, value)

    stores = Counter()
    P = gf7_product()
    P._cache = CountingDict()
    for corner in CORNERS:
        for i in range(17):
            eps_xi_F_oracle(P, i, corner)
            F_xi_eta_oracle(P, i, corner)
        tilde_sigma_oracle(P, corner)
    built = {key: n for key, n in stores.items() if key[0] == "pair_basis"}
    assert built == {("pair_basis", c, w): 1
                     for c in CORNERS for w in P.T[c].weights()}
    assert len(built) == 6


MODEL_CLASSES = (*CORNER_MODELS.values(), G(3))


def gf7_sweep(monkeypatch, tmp_path):
    """Run ``build-product --field 7 --i-max 16`` in process; return the
    product it built and the call lists of ``apply_map``, ``head()`` (self
    first), ``ModelElt.datum`` and ``_left_step``, counted from the
    start of the run."""
    products = returning(monkeypatch, cli, "build_product")
    applies = counting_everywhere(monkeypatch, elements, "apply_map")
    heads = [counting(monkeypatch, cls, "head") for cls in MODEL_CLASSES]
    datums = counting(monkeypatch, models.ModelElt, "datum")
    steps = counting(monkeypatch, bimodcat, "_left_step")
    argv = ["build-product", "--field", "7", "--i-max", "16"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    return (products[0], applies, [a for h in heads for a in h], datums,
            steps)


def test_pairing_sweep_steps_each_start_once(monkeypatch, tmp_path):
    # readers of equal start elements share one dot orbit: the unit at -1
    # is read by four oracle columns and by the Hecke check's corner-21
    # x_in, the E basis element at -1 by corners 11 and 12.  Keyed by
    # reader, 19 sequences held 323 iterates before the orbits were shared
    P, *_ = gf7_sweep(monkeypatch, tmp_path)
    orbits = {key[1:]: its for key, its in P._cache.items()
              if key[0] == "_iterates"}
    assert len(orbits) == 8
    assert sum(len(its) for its in orbits.values()) == 8 * 17 == 136
    assert all(its[0] == start for (_, start), its in orbits.items())
    readers = [key for key in P._cache if key[0] == "_starts"]
    assert len(readers) == 20


def test_pairing_partners_datum_computed_once(monkeypatch, tmp_path):
    # each fixed partner of a pairing column keeps its datum: across the
    # 17 powers its head() runs once (134 times for the 12 model partners
    # of pair_basis when datum() kept nothing)
    P, _, heads, _, _ = gf7_sweep(monkeypatch, tmp_path)
    partners = [m for key, pairs in P._cache.items()
                if key[0] == "pair_basis" for pair in pairs for m in pair]
    partners += [m for key, triples in P._cache.items()
                 if key[0] == "_eta_pairs" for t in triples for m in t[:2]]
    partners = [m for m in partners if isinstance(m, models.ModelElt)]
    runs = [sum(1 for args in heads if args[0] is m) for m in partners]
    assert runs == [1] * 20


def fresh_datum(m):
    """head() + y_Y . last, computed without the kept datum."""
    t = m.coords[-1]
    for i in m.Y:
        t = t.y(i)
    return m.head() + t


def test_kept_datums_match_fresh_computation(monkeypatch, tmp_path):
    # every datum read in the sweep, whether computed by datum() or kept by
    # from_data, equals head() + y_Y . last computed afresh
    _, _, _, datums, _ = gf7_sweep(monkeypatch, tmp_path)
    read = list({id(args[0]): args[0] for args in datums}.values())
    assert len(read) > 100
    assert {type(m) for m in read} == {G(1), G(2), models.L2Elt,
                                       models.UElt}
    for m in read:
        assert m.datum() == fresh_datum(m), m


def test_pairing_sweep_operation_counts(monkeypatch, tmp_path):
    # ratchet on the element work of the GF(7) sweep: 1,892 apply_map
    # calls on a nonzero element, 845 head() runs and 1,379 Horner steps
    # before each datum was kept, each start stepped once and the
    # generators that act as themselves multiplied coordinatewise; 1,064
    # and 426 before the pairs read the memoized C_22 basis, whose elements
    # keep their datums across corners and from the construction gate.  A
    # call on a zero element returns at once, so only the others are
    # counted
    _, applies, heads, _, steps = gf7_sweep(monkeypatch, tmp_path)
    assert sum(1 for _, elt, _ in applies if not elt.is_zero()) <= 1054
    assert len(heads) <= 416
    assert steps == []
