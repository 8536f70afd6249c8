"""Weight-graded bimodules, matrices, and isomorphism certification."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sl2prod.bimodcat import (Bimodule, BimoduleMap, Component, SumBimodule,
                              WeightedAlgebra, certify_iso, compose,
                              direct_sum_maps, identity_map, inverse_map,
                              regular_bimodule, tensor_over_A, zero_map)
from sl2prod.matrixops import (Matrix, ShapeMismatchError, adjugate,
                               bareiss_determinant, block_matrix,
                               kron_identity_left)
from sl2prod.polyring import Poly, QQ, var_name
from sl2prod.product.elements import (Elt, apply_map, elem_tensor, join,
                                      word_shift, zero_elt)
from sl2prod.tworep import TwoRep, make_L1, rho, sigma


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
        assert s.offset(1, 1) == rep.word("EF").rank(1)


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


class TestCertification:
    def test_rho_plus_one(self):
        rep = make_L1()
        f = rho(rep, 1)
        cert = certify_iso(f)
        assert cert.ok
        assert f.matrix(1).nrows == 1  # evaluation component only

    def test_rho_minus_one(self):
        rep = make_L1()
        cert = certify_iso(rho(rep, -1))
        assert cert.ok

    def test_empty_map_is_iso(self):
        rep = make_L1()
        cert = certify_iso(rho(rep, 3))
        assert cert.ok and cert.dets == {}

    def test_zero_square_map_fails(self):
        rep = make_L1()
        cert = certify_iso(zero_map(rep.word(""), rep.word("")))
        assert not cert.ok

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
        assert not certify_iso(scaled).ok


# ---------------------------------------------------------------------------
# Reference constructions: every block written out, zero blocks included, and
# every module built by tensor_over_A.  The library places only the nonzero
# blocks into one zero matrix and lifts onto the cached word modules; these
# tests require the two to agree entry for entry.


def ref_left_poly(N, lam, p):
    """The left action of p by expanding every term of p separately."""
    r = N.rank(lam)
    out = Matrix.zero(QQ, r, r)
    for exps, c in p.terms.items():
        term = Matrix.identity(QQ, r).scale(Poly.const(QQ, c))
        for k, e in enumerate(exps):
            for _ in range(e):
                term = N.left_matrix(lam, var_name(k)) @ term
        out = out + term
    return out


def ref_blocks(S, N, lam):
    """The block matrix [N.left_poly(S[k][i])], zero blocks included."""
    if S.nrows == 0 or S.ncols == 0:
        n = N.rank(lam)
        return Matrix.zero(QQ, S.nrows * n, S.ncols * n)
    return block_matrix(QQ, [[ref_left_poly(N, lam, e) for e in row]
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


# random data over the L(1) algebra with y adjoined

ALG = WeightedAlgebra(QQ, {-1: ("u",), 1: ("u",)}, has_y=True)


def polys_in(*names):
    def build(t):
        p = Poly.zero(QQ)
        for exps, c in t.items():
            m = Poly.const(QQ, c)
            for name, e in zip(names, exps):
                m = m * Poly.var(QQ, name) ** e
            p = p + m
        return p

    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(names)), st.integers(-2, 2),
        max_size=3).map(build)


polys = polys_in("u", "y")


def matrices(nrows, ncols):
    return st.lists(st.lists(polys, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda rows: Matrix(QQ, nrows, ncols, rows))


@st.composite
def bimodules(draw):
    """A shift-0 bimodule with ranks 0..2 and arbitrary left matrices."""
    comps = {}
    for lam in ALG.weights():
        r = draw(st.integers(0, 2))
        comps[lam] = Component(tuple(range(r)),
                               {"u": draw(matrices(r, r))})
    return Bimodule(ALG, 0, comps, name="M")


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


def check_every_placement(rep, max_len):
    for n in range(max_len + 1):
        for word in map("".join, itertools.product("EF", repeat=n)):
            for (meth, k), (f, dm, cm, lw, rw) in placements(word):
                got = getattr(rep, meth)(word, k)
                assert got.dom is rep.word(lw + dm + rw)
                assert got.cod is rep.word(lw + cm + rw)
                assert_same_map(got, ref_lift(rep, getattr(rep, f),
                                              dm, cm, lw, rw))


def rank_two_rep(x_rows):
    """A rank-two E at weight -1 with u acting as a scalar and the given
    dot matrix; E^2 vanishes, so tau is zero."""
    A = WeightedAlgebra(QQ, {-1: ("u",), 1: ("u",)})
    u = Poly.var(QQ, "u")
    E = Bimodule(A, 2, {-1: Component(("e1", "e2"), {
        "u": Matrix.identity(QQ, 2).scale(u)})}, name="E")
    x = BimoduleMap(E, E, {-1: Matrix(QQ, 2, 2, x_rows)}, name="x")
    EE = tensor_over_A(E, E)
    return TwoRep(A, E, x, BimoduleMap(EE, EE, {}, name="tau"))


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
    @given(bimodules(), bimodules(), polys)
    def test_tensor_and_left_poly(self, M, N, p):
        t = tensor_over_A(M, N)
        for lam in t.weights():
            assert t.left_matrix(lam, "u") == ref_blocks(
                M.left_matrix(lam, "u"), N, lam)
            assert N.left_poly(lam, p) == ref_left_poly(N, lam, p)

    @pytest.mark.parametrize("with_y", [False, True])
    def test_lift_every_placement(self, with_y):
        rep = make_L1()
        check_every_placement(rep.adjoin_y() if with_y else rep, 4)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.lists(polys_in("u"), min_size=2, max_size=2),
                    min_size=2, max_size=2))
    def test_lift_every_placement_rank_two(self, x_rows):
        check_every_placement(rank_two_rep(x_rows).adjoin_y(), 2)


# ---------------------------------------------------------------------------
# Reference element calculus: every output coordinate a dense sum from a
# fresh zero over all matrix entries, and every nonzero left coefficient
# pushed through left_poly.  The library skips zero coordinates and zero
# entries and multiplies k[y] coefficients coordinatewise; these tests
# require the two to agree coordinate for coordinate.


def ref_apply_map(f, elt, out_word):
    m = f.matrix(elt.weight)
    out = [sum((m.entries[i][j] * elt.vec[j] for j in range(m.ncols)),
               Poly.zero(QQ)) for i in range(m.nrows)]
    return Elt(elt.rep, out_word, elt.weight, out)


def ref_elem_tensor(a, b):
    rep = a.rep
    N = rep.word(b.word)
    out = zero_elt(rep, a.word + b.word, b.weight)
    rb = N.rank(b.weight)
    for i, p in enumerate(a.vec):
        if p.is_zero():
            continue
        L = N.left_poly(b.weight, p)
        col = [sum((L.entries[r][c] * b.vec[c] for c in range(rb)),
                   Poly.zero(QQ)) for r in range(rb)]
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

# L(1), L(1)[y], and the rank-two E with a random dot, y adjoined
element_reps = st.one_of(
    st.builds(make_L1), st.builds(lambda: make_L1().adjoin_y()),
    st.lists(st.lists(polys_in("u"), min_size=2, max_size=2),
             min_size=2, max_size=2).map(
        lambda rows: rank_two_rep(rows).adjoin_y()))


class SkewRep:
    """The algebra and the E-words of a rank-two E at weight -1 on which u
    acts by the non-scalar matrix [[u, 1], [0, u]]: all that elem_tensor
    reads of a representation.  A TwoRep would derive F, which needs a
    scalar left action."""

    def __init__(self, has_y):
        self.A = WeightedAlgebra(QQ, {-1: ("u",), 1: ("u",)}, has_y=has_y)
        u, one, z = Poly.var(QQ, "u"), Poly.one(QQ), Poly.zero(QQ)
        self.E = Bimodule(self.A, 2, {-1: Component(("e1", "e2"), {
            "u": Matrix(QQ, 2, 2, [[u, one], [z, u]])})}, name="E")
        self.words = {"": regular_bimodule(self.A)}

    def word(self, w):
        if w not in self.words:
            self.words[w] = tensor_over_A(self.E, self.word(w[1:]))
        return self.words[w]


def coordinates(has_y):
    """Zero, k[y] (constants without y) and u-involving coordinates."""
    ky = polys_in("y") if has_y else polys_in()
    full = polys_in("u", "y") if has_y else polys_in("u")
    return st.one_of(st.just(Poly.zero(QQ)), ky, full)


def draw_elt(data, rep, word, weight):
    n = rep.word(word).rank(weight)
    return Elt(rep, word, weight, data.draw(st.lists(
        coordinates(rep.A.has_y), min_size=n, max_size=n)))


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
    @given(st.builds(SkewRep, st.booleans()), st.data())
    def test_elem_tensor_non_scalar_left_action(self, rep, data):
        # A at weight 1 (x) E at weight -1, where u acts on E non-scalarly
        a = draw_elt(data, rep, "", 1)
        b = draw_elt(data, rep, "E", -1)
        assert_same_elt(elem_tensor(a, b), ref_elem_tensor(a, b))

    @settings(max_examples=40, deadline=None)
    @given(element_reps, st.integers(1, 2), st.data())
    def test_join(self, rep, n, data):
        a, b = draw_pair(data, rep, [h + "E" * n for h in ("", "E", "F")],
                         ["F" * n + t for t in ("", "E", "F")])
        assert_same_elt(join(a, b, n), ref_join(a, b, n))

    @settings(max_examples=40, deadline=None)
    @given(element_reps, st.sampled_from(WORDS + ["EFE", "FEF", "EEF"]),
           st.data())
    def test_apply_map_every_placement(self, rep, word, data):
        lam = data.draw(st.sampled_from(rep.A.weights()))
        elt = draw_elt(data, rep, word, lam)
        for (meth, k), (_, _, cod_mid, lw, rw) in placements(word):
            f = getattr(rep, meth)(word, k)
            out_word = lw + cod_mid + rw
            assert_same_elt(apply_map(f, elt, out_word),
                            ref_apply_map(f, elt, out_word))
