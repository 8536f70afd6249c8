"""Weight-graded bimodules, matrices, and isomorphism certification."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sl2prod.bimodcat import (Bimodule, BimoduleMap, Component, SumBimodule,
                              WeightedAlgebra, certify_iso, check_equal,
                              compose,
                              direct_sum_maps, identity_map, inverse_map,
                              tensor_over_A, zero_map)
from sl2prod.matrixops import (Matrix, ShapeMismatchError, adjugate,
                               bareiss_determinant, block_matrix,
                               kron_identity_left)
from sl2prod.polyring import Poly, PrimeField, QQ, h_complete, var_name
from sl2prod.product.elements import (Elt, apply_map, elem_tensor, join,
                                      word_shift, zero_elt)
from sl2prod.tworep import (LeftDualError, make_L1, rep_from_json, rho,
                            self_pow, sigma)


def rand_matrix(rng, n, m):
    y = Poly.var(QQ, "y")
    out = Matrix.zero(QQ, n, m)
    for i in range(n):
        for j in range(m):
            p = Poly.const(QQ, rng.randint(-3, 3))
            if rng.random() < 0.5:
                p = p + y * rng.randint(-2, 2)
            out.set(i, j, p)
    return out


class TestMatrix:
    def test_matmul_shapes(self):
        a = Matrix.identity(QQ, 2)
        b = Matrix.zero(QQ, 3, 2)
        with pytest.raises(ShapeMismatchError):
            a @ b

    def test_block_assembly(self):
        a = Matrix.identity(QQ, 2)
        b = Matrix.zero(QQ, 2, 1)
        m = block_matrix(QQ, [[a, b]])
        assert (m.nrows, m.ncols) == (2, 3)
        assert m[(1, 1)] == Poly.one(QQ)

    def test_kron_identity(self):
        m = Matrix.from_rows(QQ, [[Poly.var(QQ, "y")]])
        k = kron_identity_left(3, m)
        assert (k.nrows, k.ncols) == (3, 3)
        assert k[(2, 2)] == Poly.var(QQ, "y")
        assert k[(0, 1)].is_zero()

    def test_determinant_of_triangular(self):
        y = Poly.var(QQ, "y")
        m = Matrix.from_rows(QQ, [
            [Poly.one(QQ), Poly.zero(QQ)],
            [y, -Poly.one(QQ)]])
        assert bareiss_determinant(m) == -Poly.one(QQ)

    def test_determinant_empty(self):
        assert bareiss_determinant(Matrix.zero(QQ, 0, 0)) == Poly.one(QQ)

    def test_determinant_multiplicative(self):
        rng = random.Random(7)
        for _ in range(20):
            a = rand_matrix(rng, 3, 3)
            b = rand_matrix(rng, 3, 3)
            assert (bareiss_determinant(a @ b)
                    == bareiss_determinant(a) * bareiss_determinant(b))

    def test_adjugate_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rand_matrix(rng, 3, 3)
            det = bareiss_determinant(m)
            adj = adjugate(m)
            assert adj @ m == Matrix.identity(QQ, 3).scale(det)
            assert m @ adj == Matrix.identity(QQ, 3).scale(det)


class TestBimodules:
    def test_word_ranks(self):
        rep = make_L1()
        assert rep.word("E").rank(-1) == 1
        assert rep.word("E").rank(1) == 0
        assert rep.word("EF").rank(1) == 1
        assert rep.word("EE").total_rank() == 0

    def test_tensor_matches_word(self):
        rep = make_L1()
        t = tensor_over_A(rep.F, rep.E)
        for lam in (-1, 1):
            assert t.rank(lam) == rep.word("FE").rank(lam)

    def test_sum_offsets(self):
        rep = make_L1()
        s = SumBimodule([rep.word("EF"), rep.word("")])
        assert s.rank(1) == rep.word("EF").rank(1) + rep.word("").rank(1)


class TestMaps:
    def test_identity_compose(self):
        rep = make_L1()
        f = sigma(rep)
        assert compose(identity_map(f.cod), f) == f
        assert compose(f, identity_map(f.dom)) == f

    def test_zero_map(self):
        rep = make_L1()
        z = zero_map(rep.word("EF"), rep.word("FE"))
        assert z.is_zero()

    def test_direct_sum_entries(self):
        rep = make_L1()
        s = SumBimodule([rep.word("EF"), rep.word("EF")])
        t = SumBimodule([rep.word("FE"), rep.word("")])
        f = direct_sum_maps(s, t, {(0, 0): sigma(rep), (1, 1): rep.eps})
        lam = 1
        assert f.matrix(lam).nrows == t.rank(lam)
        assert f.matrix(lam).ncols == s.rank(lam)

    def test_welldefined(self):
        rep = make_L1()
        assert sigma(rep).is_welldefined() is None

    def test_maps_are_unhashable(self):
        # equal maps on distinct but equal modules compare equal, so a hash
        # of the module identities would break the hash/eq contract
        rep = make_L1()
        f = identity_map(rep.E)
        g = identity_map(tensor_over_A(rep.word(""), rep.E))
        assert f == g
        with pytest.raises(TypeError):
            hash(f)


class TestCertification:
    def test_rho_plus_one(self):
        rep = make_L1()
        f = rho(rep, 1)
        cert = certify_iso(f.mats, "rho_1 iso")
        assert cert == {"check": "rho_1 iso", "status": "pass",
                        "dets": {1: "1"}}
        assert f.matrix(1).nrows == 1  # evaluation component only

    def test_rho_minus_one(self):
        rep = make_L1()
        cert = certify_iso(rho(rep, -1).mats, "rho_-1 iso")
        assert cert["status"] == "pass"

    def test_empty_map_is_iso(self):
        rep = make_L1()
        cert = certify_iso(rho(rep, 3).mats, "rho_3 iso")
        assert cert["status"] == "pass" and cert["dets"] == {}

    def test_zero_square_map_fails(self):
        rep = make_L1()
        zero = zero_map(rep.word(""), rep.word(""))
        cert = certify_iso(zero.mats, "zero iso")
        assert cert["status"] == "fail"
        assert cert["witness"] == "(-1, 'determinant 0 is not a unit')"
        assert cert["dets"] == {-1: "0"}
        # the inverse decides by the same test and names the same witness
        with pytest.raises(ValueError, match="determinant 0 is not a unit"):
            inverse_map(zero)

    def test_inverse_round_trip(self):
        rep = make_L1()
        f = rho(rep, 1)
        g = inverse_map(f)
        assert compose(g, f) == identity_map(f.dom)
        assert compose(f, g) == identity_map(f.cod)

    def test_determinant_unit_not_just_nonzero(self):
        rep = make_L1()
        y = Poly.var(QQ, "y")
        f = rho(rep, 1)
        scaled = f.scale(y)
        assert certify_iso(scaled.mats, "y rho_1 iso")["status"] == "fail"

    def test_failing_comparison_names_its_weights(self):
        rep = make_L1()
        f = identity_map(rep.word(""))
        assert check_equal("id = id", f, f) == {"check": "id = id",
                                               "status": "pass"}
        out = check_equal("id = 0", f, zero_map(f.dom, f.cod))
        assert out == {"check": "id = 0", "status": "fail",
                       "witness": "weights [-1, 1]"}

    def test_comparison_of_different_shapes_fails(self):
        # maps whose matrices differ in shape compare unequal, and the
        # record fails with their weights instead of raising on lhs - rhs
        E = make_L1().E
        f, g = identity_map(E), zero_map(E, SumBimodule([E, E]))
        assert f != g
        assert check_equal("id = 0", f, g) == {"check": "id = 0",
                                               "status": "fail",
                                               "witness": "weights [-1]"}


# ---------------------------------------------------------------------------
# Reference constructions: every block written out, zero blocks included, and
# every module built by tensor_over_A.  The library places only the nonzero
# blocks into one zero matrix and lifts onto the cached word modules; these
# tests require the two to agree entry for entry.


def ref_left_poly(N, lam, p):
    """The left action of p by expanding every term of p separately."""
    F = N.algebra.field
    r = N.rank(lam)
    out = Matrix.zero(F, r, r)
    for exps, c in p.terms.items():
        term = Matrix.identity(F, r).scale(Poly.const(F, c))
        for k, e in enumerate(exps):
            for _ in range(e):
                term = N.left_matrix(lam, var_name(k)) @ term
        out = out + term
    return out


def ref_blocks(S, N, lam):
    """The block matrix [N.left_poly(S[k][i])], zero blocks included."""
    F = N.algebra.field
    if S.nrows == 0 or S.ncols == 0:
        n = N.rank(lam)
        return Matrix.zero(F, S.nrows * n, S.ncols * n)
    return block_matrix(F, [[ref_left_poly(N, lam, e) for e in row]
                            for row in S.entries])


def ref_sum_left(summands, lam, v):
    blocks = [[s.left_matrix(lam, v) if k == j else
               Matrix.zero(QQ, s.rank(lam), t.rank(lam))
               for j, t in enumerate(summands)]
              for k, s in enumerate(summands)]
    return block_matrix(QQ, blocks)


def ref_direct_sum(dom, cod, entries, lam):
    return block_matrix(QQ, [
        [entries[(i, j)].matrix(lam) if (i, j) in entries else
         Matrix.zero(QQ, c.rank(lam), d.rank(lam))
         for j, d in enumerate(dom.summands)]
        for i, c in enumerate(cod.summands)])


def ref_tensor_id_left(M, f):
    dom, cod = tensor_over_A(M, f.dom), tensor_over_A(M, f.cod)
    mats = {}
    for lam in dom.weights():
        r = M.rank(lam + f.dom.shift)
        T = f.matrix(lam)
        mats[lam] = (block_matrix(QQ, [
            [T if i == k else Matrix.zero(QQ, T.nrows, T.ncols)
             for i in range(r)] for k in range(r)])
            if r else Matrix.zero(QQ, 0, 0))
    return BimoduleMap(dom, cod, mats)


def ref_tensor_id_right(f, N):
    dom, cod = tensor_over_A(f.dom, N), tensor_over_A(f.cod, N)
    mats = {lam: ref_blocks(f.matrix(lam + N.shift), N, lam)
            for lam in dom.weights() if lam + N.shift in N.algebra}
    return BimoduleMap(dom, cod, mats)


def ref_lift(rep, f, dom_mid, cod_mid, lw, rw):
    g = rep.rebase(f, dom_mid, cod_mid)
    if rw:
        g = ref_tensor_id_right(g, rep.word(rw))
    if lw:
        g = ref_tensor_id_left(rep.word(lw), g)
    return rep.rebase(g, lw + dom_mid + rw, lw + cod_mid + rw)


# random data over the L(1) algebra, and over an algebra with a second
# generator x1, over QQ and GF(7); every ring also carries the central y

ALG = WeightedAlgebra(QQ, {-1: ("u",), 1: ("u",)})
FIELDS = [QQ, PrimeField(7)]


def two_generator_algebra(field):
    return WeightedAlgebra(field, {-1: ("u", "x1"), 1: ("u", "x1")})


def polys_in(*names, max_exp=2, field=QQ):
    def build(t):
        p = Poly.zero(field)
        for exps, c in t.items():
            m = Poly.const(field, c)
            for name, e in zip(names, exps):
                m = m * Poly.var(field, name) ** e
            p = p + m
        return p

    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * len(names)),
        st.integers(-2, 2), max_size=3).map(build)


polys = polys_in("u", "y")


def matrices(nrows, ncols, entries=polys, field=QQ):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda rows: Matrix(field, nrows, ncols, rows))


def poly_of_matrix(U, coeffs):
    """sum_k coeffs[k] U^k, a matrix that commutes with U."""
    F = U.field
    out = Matrix.zero(F, U.nrows, U.ncols)
    power = Matrix.identity(F, U.nrows)
    for c in coeffs:
        out = out + power.scale(c)
        power = U @ power
    return out


@st.composite
def bimodules(draw, alg=ALG):
    """A shift-0 bimodule with ranks 0..2 and arbitrary left matrices for
    u.  Over an algebra with a second generator x1, x1 acts by a polynomial
    in u's matrix with coefficients in k[y], so the two actions commute."""
    F = alg.field
    entries = polys_in("u", "y", field=F)
    comps = {}
    for lam in alg.weights():
        r = draw(st.integers(0, 2))
        U = draw(matrices(r, r, entries, F))
        left = {"u": U}
        if "x1" in alg.support[lam]:
            left["x1"] = poly_of_matrix(U, draw(st.lists(
                polys_in("y", field=F), min_size=3, max_size=3)))
        comps[lam] = Component(r, left)
    return Bimodule(alg, 0, comps)


@st.composite
def block_maps(draw):
    """Summand lists and a sparse block map between their sums."""
    dom = draw(st.lists(bimodules(), min_size=1, max_size=3))
    cod = draw(st.lists(bimodules(), min_size=1, max_size=3))
    entries = {}
    for (i, c), (j, d) in itertools.product(enumerate(cod), enumerate(dom)):
        if draw(st.booleans()):
            entries[(i, j)] = BimoduleMap(d, c, {
                lam: draw(matrices(c.rank(lam), d.rank(lam)))
                for lam in d.weights()})
    return dom, cod, entries


def assert_same_map(got, want):
    for lam in set(got.mats) | set(want.mats):
        assert got.matrix(lam) == want.matrix(lam), lam


def placements(word):
    """Every (name, call, reference lift arguments) on a word."""
    es = [k for k, a in enumerate(word) if a == "E"]
    for i, pos in enumerate(reversed(es), 1):
        yield ("x_at", i), ("x", "E", "E", word[:pos], word[pos + 1:])
    for i in range(1, len(es)):
        hi = es[-(i + 1)]
        if es[-i] == hi + 1:
            yield (("tau_at", i),
                   ("tau", "EE", "EE", word[:hi], word[hi + 2:]))
    for pos in range(len(word) - 1):
        if word[pos:pos + 2] == "EF":
            yield ("eps_at", pos), ("eps", "EF", "", word[:pos],
                                    word[pos + 2:])
    for pos in range(len(word) + 1):
        yield ("eta_at", pos), ("eta", "", "FE", word[:pos], word[pos:])


def check_every_placement(rep, max_len, with_y=False):
    """Every positional map on words up to ``max_len`` against the
    reference lift; ``with_y`` also checks y_i = x_i - y at each x."""
    y = Poly.var(rep.A.field, "y")
    for n in range(max_len + 1):
        for word in map("".join, itertools.product("EF", repeat=n)):
            for (meth, k), (f, dm, cm, lw, rw) in placements(word):
                got = getattr(rep, meth)(word, k)
                assert got.dom is rep.word(lw + dm + rw)
                assert got.cod is rep.word(lw + cm + rw)
                want = ref_lift(rep, getattr(rep, f), dm, cm, lw, rw)
                assert_same_map(got, want)
                if with_y and meth == "x_at":
                    assert_same_map(rep.y_at(word, k), want - identity_map(
                        want.dom).scale(y))


def rank_two_rep(x_rows, field=QQ, gens=("u",)):
    """A rank-two E at weight -1 on which each generator acts as itself
    times the identity, with the given dot matrix; E^2 vanishes, so tau is
    zero, and F, eta and eps are the left dual's."""
    return rep_from_json({
        "weights": {"-1": list(gens), "1": list(gens)},
        "E": {"-1": {"basis": ["e", "f"],
                     "left": {v: [[v, "0"], ["0", v]] for v in gens}}},
        "x": {"-1": [[str(p) for p in row] for row in x_rows]}}, field)


class TestZeroBlockFreeAssembly:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(bimodules(), min_size=1, max_size=4))
    def test_sum_left_matrices(self, summands):
        s = SumBimodule(summands)
        for lam in s.weights():
            assert s.left_matrix(lam, "u") == ref_sum_left(summands, lam, "u")

    @settings(max_examples=40, deadline=None)
    @given(block_maps())
    def test_direct_sum_maps(self, data):
        dom, cod, entries = data
        sd, sc = SumBimodule(dom), SumBimodule(cod)
        f = direct_sum_maps(sd, sc, entries)
        for lam in sd.weights():
            assert f.matrix(lam) == ref_direct_sum(sd, sc, entries, lam)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FIELDS).map(two_generator_algebra).flatmap(
        lambda alg: st.tuples(bimodules(alg), bimodules(alg), polys_in(
            "u", "x1", "y", max_exp=3, field=alg.field))))
    def test_tensor_and_left_poly(self, data):
        M, N, p = data
        t = tensor_over_A(M, N)
        for lam in t.weights():
            for v in ("u", "x1"):
                assert t.left_matrix(lam, v) == ref_blocks(
                    M.left_matrix(lam, v), N, lam)
            assert N.left_poly(lam, p) == ref_left_poly(N, lam, p)

    @pytest.mark.parametrize("with_y", [False, True])
    def test_lift_every_placement(self, with_y):
        check_every_placement(make_L1(), 4, with_y)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.lists(polys_in("u"), min_size=2, max_size=2),
                    min_size=2, max_size=2))
    def test_lift_every_placement_rank_two(self, x_rows):
        check_every_placement(rank_two_rep(x_rows), 2, with_y=True)


# ---------------------------------------------------------------------------
# Reference element calculus: every output coordinate a dense sum from a
# fresh zero over all matrix entries, and every nonzero left coefficient
# pushed through left_poly.  The library skips zero coordinates and zero
# entries and applies each left coefficient to the column by Horner's rule;
# these tests require the two to agree coordinate for coordinate.


def ref_apply_map(f, elt, out_word):
    m = f.matrix(elt.weight)
    zero = Poly.zero(elt.rep.A.field)
    out = [sum((m.entries[i][j] * elt.vec[j] for j in range(m.ncols)),
               zero) for i in range(m.nrows)]
    return Elt(elt.rep, out_word, elt.weight, out)


def ref_elem_tensor(a, b):
    rep = a.rep
    zero = Poly.zero(rep.A.field)
    N = rep.word(b.word)
    out = zero_elt(rep, a.word + b.word, b.weight)
    rb = N.rank(b.weight)
    for i, p in enumerate(a.vec):
        if p.is_zero():
            continue
        L = N.left_poly(b.weight, p)
        col = [sum((L.entries[r][c] * b.vec[c] for c in range(rb)), zero)
               for r in range(rb)]
        for r in range(rb):
            out.vec[i * rb + r] = out.vec[i * rb + r] + col[r]
    return out


def ref_join(a, b, n):
    out = ref_elem_tensor(a, b)
    for step in range(n):
        pos = len(a.word) - 1 - step
        out = ref_apply_map(out.rep.eps_at(out.word, pos), out,
                            out.word[:pos] + out.word[pos + 2:])
    return out


def assert_same_elt(got, want):
    assert (got.word, got.weight) == (want.word, want.weight)
    assert len(got.vec) == len(want.vec)
    for g, w in zip(got.vec, want.vec):
        assert g == w


WORDS = ["", "E", "F", "EE", "EF", "FE", "FF"]


def two_generator_reps(field):
    """The rank-two E with a random dot over ``field``, with u and a second
    generator x1 acting as scalars."""
    return st.lists(st.lists(polys_in("u", "x1", field=field), min_size=2,
                             max_size=2), min_size=2, max_size=2).map(
        lambda rows: rank_two_rep(rows, field, ("u", "x1")))


# L(1), the rank-two E with a random dot, and the two-generator rank-two E
# over QQ and GF(7)
element_reps = st.one_of(
    st.builds(make_L1),
    st.lists(st.lists(polys_in("u"), min_size=2, max_size=2),
             min_size=2, max_size=2).map(rank_two_rep),
    st.sampled_from(FIELDS).flatmap(two_generator_reps))


# A rank-two E at weight -1 on which u acts by the non-scalar matrix
# U = [[u, 1], [0, u]] and a second generator x1 by U^2 - 2U, which
# commutes with it, with x = u.  It has no left dual, so the data give F
# (each generator acting as itself), eta and eps; they are no adjunction
# for this E, which the E-only words do not read
SKEW = {
    "weights": {"-1": ["u", "x1"], "1": ["u", "x1"]},
    "E": {"-1": {"basis": ["e", "f"],
                 "left": {"u": [["u", "1"], ["0", "u"]],
                          "x1": [["u^2 - 2*u", "2*u - 2"],
                                 ["0", "u^2 - 2*u"]]}}},
    "F": {"1": {"basis": ["e", "f"],
                "left": {"u": [["u", "0"], ["0", "u"]],
                         "x1": [["x1", "0"], ["0", "x1"]]}}},
    "x": {"-1": [["u", "0"], ["0", "u"]]},
    "eta": {"-1": [["1"], ["0"], ["0"], ["1"]]},
    "eps": {"1": [["1", "0", "0", "1"]]}}


def skew_rep(field=QQ):
    return rep_from_json(SKEW, field)


@pytest.mark.parametrize("has_y", [False, True])
def test_E_words_need_no_left_dual(has_y):
    rep = skew_rep()
    U = Matrix.from_rows(QQ, [[Poly.var(QQ, "u"), Poly.one(QQ)],
                              [Poly.zero(QQ), Poly.var(QQ, "u")]])
    assert rep.E.left_matrix(-1, "x1") == poly_of_matrix(
        U, [Poly.zero(QQ), Poly.const(QQ, -2), Poly.one(QQ)])
    assert rep.word("E").rank(-1) == 2
    assert rep.word("EE").total_rank() == 0
    u, y = Poly.var(QQ, "u"), Poly.var(QQ, "y")
    p = u * y + 3 if has_y else u
    assert rep.word("E").left_poly(-1, p) == rep.E.left_poly(-1, p)
    without = {k: v for k, v in SKEW.items() if k not in ("F", "eta", "eps")}
    with pytest.raises(LeftDualError):
        rep_from_json(without, QQ)


def rep_polys(rep, ys, max_exp=2):
    """Polynomials in the generators of rep's algebra and the names ys."""
    names = rep.A.support[rep.A.weights()[0]] + ys
    return polys_in(*names, max_exp=max_exp, field=rep.A.field)


def coordinates(rep, with_y=True):
    """Zero, k[y] (constants without y) and generator-involving
    coordinates."""
    F = rep.A.field
    ys = ("y",) if with_y else ()
    return st.one_of(st.just(Poly.zero(F)), polys_in(*ys, field=F),
                     rep_polys(rep, ys))


def draw_elt(data, rep, word, weight, with_y=True):
    n = rep.word(word).rank(weight)
    return Elt(rep, word, weight, data.draw(st.lists(
        coordinates(rep, with_y), min_size=n, max_size=n)))


def draw_pair(data, rep, a_words, b_words):
    """Elements a, b with a (x) b defined; half the time both have rank > 0."""
    combos = [(aw, bw, lam) for aw in a_words for bw in b_words
              for lam in rep.A.weights()]
    live = [(aw, bw, lam) for aw, bw, lam in combos
            if rep.word(aw).rank(lam + word_shift(bw))
            and rep.word(bw).rank(lam)]
    pick = st.sampled_from(combos)
    aw, bw, lam = data.draw(st.sampled_from(live) | pick if live else pick)
    return (draw_elt(data, rep, aw, lam + word_shift(bw)),
            draw_elt(data, rep, bw, lam))


class TestSparseElementCalculus:
    @settings(max_examples=60, deadline=None)
    @given(element_reps, st.data())
    def test_elem_tensor(self, rep, data):
        a, b = draw_pair(data, rep, WORDS, WORDS)
        assert_same_elt(elem_tensor(a, b), ref_elem_tensor(a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.builds(skew_rep, st.sampled_from(FIELDS)), st.booleans(),
           st.data())
    def test_elem_tensor_non_scalar_left_action(self, rep, with_y, data):
        # A at weight 1 (x) E at weight -1, where u acts on E non-scalarly
        # and x1 by a polynomial in u's matrix
        a = draw_elt(data, rep, "", 1, with_y)
        b = draw_elt(data, rep, "E", -1, with_y)
        assert_same_elt(elem_tensor(a, b), ref_elem_tensor(a, b))

    @settings(max_examples=40, deadline=None)
    @given(element_reps, st.integers(1, 2), st.data())
    def test_join(self, rep, n, data):
        a, b = draw_pair(data, rep, [h + "E" * n for h in ("", "E", "F")],
                         ["F" * n + t for t in ("", "E", "F")])
        assert_same_elt(join(a, b, n), ref_join(a, b, n))

    @settings(max_examples=40, deadline=None)
    @given(element_reps,
           st.sampled_from(WORDS + ["EFE", "FEF", "EEF", "FFE", "FFEE"]),
           st.data())
    def test_apply_map_every_placement(self, rep, word, data):
        # apply_map and the element's own operators (x, y, tau, eta at each
        # placement, tau_mate on FF + rw) against the dense reference
        lam = data.draw(st.sampled_from(rep.A.weights()))
        elt = draw_elt(data, rep, word, lam)
        for (meth, k), (_, _, cod_mid, lw, rw) in placements(word):
            f = getattr(rep, meth)(word, k)
            out_word = lw + cod_mid + rw
            want = ref_apply_map(f, elt, out_word)
            assert_same_elt(apply_map(f, elt, out_word), want)
            if meth != "eps_at":
                assert_same_elt(getattr(elt, meth[:-3])(k), want)
            if meth == "x_at":
                assert_same_elt(elt.y(k), ref_apply_map(rep.y_at(word, k),
                                                        elt, word))
        if word.startswith("FF"):
            assert_same_elt(elt.tau_mate(),
                            ref_apply_map(rep.tau_mate(word[2:]), elt, word))
        else:
            with pytest.raises(ShapeMismatchError):
                elt.tau_mate()


# ---------------------------------------------------------------------------
# Reference pairing ingredients: h_i expanded symbolically and substituted
# monomial by monomial, x^i as i composites from the identity, and the left
# action term by term (ref_left_poly above).  The library builds h_i and x^i
# from step i - 1 and each left-matrix power once per call; these tests
# require the two to agree entry for entry.


def ref_h_xy(rep, word, i, xs, extra_y):
    W = rep.word(word)
    names = [f"x{k + 1}" for k in range(len(xs))] + (["y"] if extra_y else [])
    if i < 0 or not names:
        return identity_map(W) if i == 0 else zero_map(W, W)
    h = h_complete(i, names, QQ)
    iden = identity_map(W)
    powers = {}  # placeholder name -> [x^0, x^1, ..., x^i] at its factor
    for k, xi in enumerate(xs):
        pw = [iden]
        for _ in range(i):
            pw.append(compose(rep.x_at(word, xi), pw[-1]))
        powers[f"x{k + 1}"] = pw
    y = Poly.var(QQ, "y")
    out = zero_map(W, W)
    for exps, c in h.terms.items():
        term, scalar = iden, Poly.const(QQ, c)
        for k, e in enumerate(exps):
            name = var_name(k)
            if name == "y":
                scalar = scalar * y ** e
            elif e:
                term = compose(powers[name][e], term)
        out = out + term.scale(scalar)
    return out


def ref_self_pow(rep, i):
    out = identity_map(rep.E)
    for _ in range(i):
        out = compose(rep.x, out)
    return out


def short_words(max_len):
    return ["".join(w) for n in range(max_len + 1)
            for w in itertools.product("EF", repeat=n)]


def check_h_xy_and_self_pow(rep, max_len, i_max):
    for word in short_words(max_len):
        factors = range(1, word.count("E") + 1)
        every_xs = [xs for n in range(len(factors) + 1)
                    for xs in itertools.combinations(factors, n)]
        for i, xs, extra_y in itertools.product(range(-1, i_max + 1),
                                                every_xs, (False, True)):
            assert_same_map(rep.h_xy(word, i, xs, extra_y),
                            ref_h_xy(rep, word, i, xs, extra_y))
    for i in range(i_max + 1):
        assert_same_map(self_pow(rep, i), ref_self_pow(rep, i))


class TestIncrementalPairingIngredients:
    def test_h_xy_and_self_pow_L1(self):
        check_h_xy_and_self_pow(make_L1(), 4, 8)

    @settings(max_examples=2, deadline=None)
    @given(st.lists(st.lists(polys_in("u"), min_size=2, max_size=2),
                    min_size=2, max_size=2))
    def test_h_xy_and_self_pow_rank_two(self, x_rows):
        # E^2 = 0 here, so words of length 4 add no new E-factor pattern to
        # those of length 3, only 16 x 16 matrices for the slow reference
        check_h_xy_and_self_pow(rank_two_rep(x_rows), 3, 8)

    @settings(max_examples=20, deadline=None)
    @given(element_reps, st.sampled_from(short_words(4)), st.data())
    def test_left_poly_every_word(self, rep, word, data):
        N = rep.word(word)
        for lam in N.weights():
            p = data.draw(rep_polys(rep, ("y",), max_exp=6))
            assert N.left_poly(lam, p) == ref_left_poly(N, lam, p)

    @settings(max_examples=40, deadline=None)
    @given(st.builds(skew_rep, st.sampled_from(FIELDS)), st.data())
    def test_left_poly_non_scalar_left_action(self, rep, data):
        N = rep.word("E")
        p = data.draw(polys_in("u", "x1", "y", max_exp=6, field=rep.A.field))
        assert N.left_poly(-1, p) == ref_left_poly(N, -1, p)
