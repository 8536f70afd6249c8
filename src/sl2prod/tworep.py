"""Two-representations: the data (A, E, F, x, tau, eta, eps) by weight.

E has weight shift +2 and F shift -2, with the unit eta: A -> FE and the
counit eps: EF -> A.  :func:`rep_from_json` reads F, eta and eps, or takes
E's left dual when the input gives none.  A word calculus over {E, F}
provides the word modules and the positional maps (x or tau at a factor,
eps or eta at a position) out of which every composite map is assembled.
They, and the commutator maps sigma and rho, are memoized on the
representation.  The product's central variable y is reserved: no weight
ring lists it, and it acts on every word module by scalars, so the product
works on the input representation and its memo.
"""

from __future__ import annotations

import functools

from .polyring import Poly, QQ, parse_poly, var_index, var_name
from .matrixops import Matrix, block_matrix, offsets, pick
from .bimodcat import (
    WeightedAlgebra, Bimodule, Component, BimoduleMap, SumBimodule, record,
    regular_bimodule, tensor_over_A, identity_map, zero_map, compose,
    compose_all, tensor_id_left, tensor_id_right, certify_iso, check_equal,
)


class InputError(ValueError):
    """Data that :func:`rep_from_json` cannot read as a representation."""


class LeftDualError(InputError):
    """An input without F whose E has no left dual (:func:`left_dual`)."""


# ---------------------------------------------------------------------------
# restriction to a single weight


def restrict_algebra(A: WeightedAlgebra, mu: int,
                     shift: int) -> WeightedAlgebra:
    """The weights ``mu`` and ``mu + shift`` of ``A``."""
    ws = {w for w in (mu, mu + shift) if w in A}
    return WeightedAlgebra(A.field, {w: A.support[w] for w in ws})


def restrict_at(M: Bimodule, mu: int, algebra: WeightedAlgebra) -> Bimodule:
    """Restrict a bimodule to the single source weight ``mu`` over
    ``algebra = restrict_algebra(M.algebra, mu, M.shift)``, which keeps the
    target weight ``mu + shift`` so the left action survives the
    restriction.  Summands of one sum share one such algebra."""
    comps = {mu: M.components[mu]} if mu in M.components else {}
    return Bimodule(algebra, M.shift, comps)


# ---------------------------------------------------------------------------
# the 2-representation data


def _memoized(fn):
    """Cache ``fn`` per (name, arguments) on the ``_cache`` dict of its first
    argument: the one memo of the package.  A run keeps its entries on its
    one :class:`TwoRep` and the one product over it:

    * on the :class:`TwoRep`, read by its checks and by the product:
      ``word``, ``x_at``, ``y_at``, ``tau_at``, ``eps_at``, ``eta_at``,
      ``tau_mate`` and ``xF_pow`` (methods), ``sigma`` and ``rho``
      (functions), and the :func:`_sequence` lists of ``h_xy``;
    * on the :class:`~sl2prod.product.core.ProductRep`: ``sum_basis``
      (method), ``tilde_sigma_closed``, ``eps_xi_F_closed`` and
      ``F_xi_eta_closed`` (``product.core``), ``_corner_rho`` (``rho``),
      ``pair_basis`` and ``_eta_pairs`` (``oracles``) and ``omega3_map``
      (``gammas``), and the oracles' dot orbits, one list of iterates per
      step and start element under ``("_iterates", step, start)``, each
      also kept as the one item of the :func:`_sequence` under
      ``("_starts", oracle, corner, weight, column, ...)`` of every reader
      of that start.

    Cached modules, maps and elements are shared between callers, which
    only read them; a cached basis is a tuple."""
    @functools.wraps(fn)
    def cached(owner, *args):
        key = (fn.__name__, *args)
        if key not in owner._cache:
            owner._cache[key] = fn(owner, *args)
        return owner._cache[key]
    return cached


def _sequence(owner, key, i, step):
    """Item ``i`` of the sequence kept as a list under ``key`` in the memo
    of ``owner``: ``step(items)`` builds the next item from the list of
    those before it.  A sweep over i costs one step per new i, and no call
    nests deeper than one step."""
    items = owner._cache.setdefault(key, [])
    while len(items) <= i:
        items.append(step(items))
    return items[i]


class TwoRep:
    """The data (A, E, F, x, tau, eta, eps), as given.  The constructor
    takes the algebra and the modules; :func:`rep_from_json` then sets the
    maps ``x``, ``tau``, ``eta`` and ``eps`` on the memoized word modules
    E, EE, A -> FE and EF -> A.  The same object, and its memo, serves its
    own checks and its product."""

    def __init__(self, A: WeightedAlgebra, E: Bimodule, F: Bimodule):
        self.A, self.E, self.F = A, E, F
        self._cache: dict = {}

    # -- word calculus

    @_memoized
    def word(self, w: str) -> Bimodule:
        """The tensor word module for a word over {E, F} ('' is the algebra)."""
        if w == "":
            return regular_bimodule(self.A)
        head = self.F if w[0] == "F" else self.E
        return tensor_over_A(head, self.word(w[1:]))

    def rebase(self, f: BimoduleMap, dom_word: str, cod_word: str) -> BimoduleMap:
        """Re-attach a map to the cached word modules (coordinates agree)."""
        return BimoduleMap(self.word(dom_word), self.word(cod_word),
                           {lam: f.matrix(lam) for lam in f.mats})

    def lift(self, f: BimoduleMap, dom_mid: str, cod_mid: str, lw: str, rw: str,
             ) -> BimoduleMap:
        """The induced map on word modules lw + dom_mid + rw -> lw + cod_mid + rw,
        computed weight by weight on the cached word modules."""
        L, R = self.word(lw), self.word(rw)
        dom = self.word(lw + dom_mid + rw)
        mats = {}
        for lam in dom.weights():
            m = f.matrix(lam + R.shift)
            if rw:
                m = tensor_id_right(m, R, lam)
            if lw:
                m = tensor_id_left(L, m, lam + R.shift + f.dom.shift)
            mats[lam] = m
        return BimoduleMap(dom, self.word(lw + cod_mid + rw), mats)

    @_memoized
    def x_at(self, word: str, i: int) -> BimoduleMap:
        """x on the i-th E factor counted from the right (1-based)."""
        positions = [k for k in range(len(word)) if word[k] == "E"]
        if i < 1 or i > len(positions):
            raise IndexError(f"no E factor {i} in word {word!r}")
        pos = positions[-i]
        return self.lift(self.x, "E", "E", word[:pos], word[pos + 1:])

    @_memoized
    def y_at(self, word: str, i: int) -> BimoduleMap:
        """The operator y_i = x_i - y on a word module."""
        W = self.word(word)
        y = Poly.var(self.A.field, "y")
        return self.x_at(word, i) - identity_map(W).scale(y)

    @_memoized
    def tau_at(self, word: str, i: int) -> BimoduleMap:
        """tau on the (i, i+1) adjacent E factors counted from the right."""
        positions = [k for k in range(len(word)) if word[k] == "E"]
        pos_hi = positions[-(i + 1)]
        pos_lo = positions[-i]
        if pos_lo != pos_hi + 1:
            raise IndexError(f"E factors {i},{i+1} not adjacent in {word!r}")
        return self.lift(self.tau, "EE", "EE", word[:pos_hi], word[pos_hi + 2:])

    @_memoized
    def eps_at(self, word: str, pos: int) -> BimoduleMap:
        """Contract the adjacent pair word[pos:pos+2] == 'EF' via eps."""
        if word[pos:pos + 2] != "EF":
            raise IndexError(f"no EF pair at position {pos} of {word!r}")
        return self.lift(self.eps, "EF", "", word[:pos], word[pos + 2:])

    @_memoized
    def eta_at(self, word: str, pos: int) -> BimoduleMap:
        """Insert an FE pair at position pos via eta."""
        return self.lift(self.eta, "", "FE", word[:pos], word[pos:])

    def _mate_F(self, k: int, rw: str, op_at) -> BimoduleMap:
        """Transport an operator on E^k to the leading F^k of F^k + rw.

        ``op_at(w, i)`` is the operator on the word w = F^k E^k F^k rw
        whose lowest E factor is the i-th from the right.  The resulting
        map sends the dual-word representative of a morphism h on E^k to
        the representative of h . op.
        """
        steps = []
        w = "F" * k + rw
        for j in range(k):
            steps.append(self.eta_at(w, j))
            w = w[:j] + "FE" + w[j:]
        steps.append(op_at(w, rw.count("E") + 1))
        for s in range(k):
            pos = 2 * k - s - 1
            steps.append(self.eps_at(w, pos))
            w = w[:pos] + w[pos + 2:]
        return compose_all(*reversed(steps))

    @_memoized
    def tau_mate(self, rw: str) -> BimoduleMap:
        """The crossing transported to the leading FF of FF + rw."""
        return self._mate_F(2, rw, self.tau_at)

    @_memoized
    def xF_pow(self, i: int, rw: str) -> BimoduleMap:
        """x^i transported to the leading F of F + rw: x^i at its E factor
        of the longer word is h_i of that one variable."""
        return self._mate_F(1, rw, lambda w, k: self.h_xy(w, i, [k], False))

    def scalar(self, word: str, p) -> BimoduleMap:
        """Multiplication by a central scalar polynomial on a word module."""
        return identity_map(self.word(word)).scale(p)

    def h_xy(self, word: str, i: int, xs, extra_y: bool = True) -> BimoduleMap:
        """The operator h_i evaluated at the listed x positions and y.

        xs is a list of E-factor indices (from the right); the variable y is
        included when extra_y is True.  One :func:`_sequence` per (word, xs,
        extra_y) follows the recurrence h_i(z_1..z_m) = h_i(z_1..z_(m-1)) +
        z_m h_(i-1)(z_1..z_m), y last: one composite or y-scaling per item,
        and one addition unless z_1..z_(m-1) is empty (then that term is 0)."""
        W = self.word(word)
        if i < 0 or (i > 0 and not (xs or extra_y)):
            return zero_map(W, W)
        xs = tuple(xs)
        head = xs if extra_y else xs[:-1]

        def step(hs):
            if not hs:
                return identity_map(W)
            last = (hs[-1].scale(Poly.var(self.A.field, "y")) if extra_y
                    else compose(self.x_at(word, xs[-1]), hs[-1]))
            return self.h_xy(word, len(hs), head, False) + last if head else last
        return _sequence(self, ("h_xy", word, xs, extra_y), i, step)

    def adjoin_y(self) -> "TwoRep":
        """The same representation with the central variable y adjoined:
        itself, since y acts by scalars on every word module."""
        return self


# ---------------------------------------------------------------------------
# left dual


def scalar_variable(m: Matrix, n: int, A: WeightedAlgebra, lam: int):
    """The generator v of the base ring at ``lam`` with ``m = v * I_n``, or
    None when ``m`` is no such scalar matrix."""
    for v in A.support[lam]:
        if m == Matrix.identity(A.field, n).scale(Poly.var(A.field, v)):
            return v
    return None


def left_dual(E: Bimodule) -> Bimodule:
    """The left dual F of E: at lam it has the rank r of E at lam - 2, and
    each generator acts by the one that acts on E as it, times I_r; its unit
    and counit are vec(I_r) (:func:`dual_basis`).  Read only for an input
    without F; raises :class:`LeftDualError` unless every left action of E
    is a variable times I_r, one for one between the base rings."""
    A = E.algebra
    comps = {}
    for src in E.weights():
        r = E.rank(src)
        if not r:
            continue
        lam = src + E.shift
        inv = {}  # generator at src -> the generator at lam acting as it
        for w in A.support[lam]:
            v = scalar_variable(E.left_matrix(src, w), r, A, src)
            if v is None:
                raise LeftDualError(
                    f"left action of {w} at weight {src} is not scalar")
            inv[v] = w
        left = {}
        for v in A.support[src]:
            if v not in inv:
                raise LeftDualError(
                    f"no variable of the base ring at {lam} acts as {v}")
            left[v] = Matrix.identity(A.field, r).scale(
                Poly.var(A.field, inv[v]))
        comps[lam] = Component(r, left)
    return Bimodule(A, -E.shift, comps)


def dual_basis(field, r: int, column: bool = False) -> Matrix:
    """vec(I_r), as a row or a column: the pairing of a rank-r basis with
    its dual basis, in the row-major, left-factor-outer basis of
    :func:`~sl2prod.bimodcat.tensor_over_A`."""
    v = [e for row in Matrix.identity(field, r).entries for e in row]
    shape = (r * r, 1, [[e] for e in v]) if column else (1, r * r, [v])
    return Matrix(field, *shape)


# ---------------------------------------------------------------------------
# the built-in simple representation


def make_L1(field=QQ) -> TwoRep:
    """The rank-one representation on weights {-1, +1}, read by
    :func:`rep_from_json`.  Both weight rings are k[u]; E is the rank-one
    bimodule at source weight -1, u acts by multiplication on both sides,
    x is multiplication by u, and tau is the zero map on the zero E^2."""
    return rep_from_json({
        "weights": {"-1": ["u"], "1": ["u"]},
        "E": {"-1": {"basis": ["e0"], "left": {"u": [["u"]]}}},
        "x": {"-1": [["u"]]}, "tau": {}}, field)


# ---------------------------------------------------------------------------
# verification of the defining relations and hypotheses


def hecke_relations(t: BimoduleMap, x_in, x_out, names) -> list:
    """The records ``names`` of tau^2 = 0 and of both dot slides for a
    crossing ``t`` with dots ``x_in`` and ``x_out`` on its domain."""
    one = identity_map(t.dom)
    return [record(names[0], compose(t, t).is_zero()),
            check_equal(names[1], compose(t, x_in), compose(x_out, t) + one),
            check_equal(names[2], compose(x_in, t), compose(t, x_out) + one)]


def check_hecke(rep: TwoRep):
    """Verify the divided-difference relations on E^2 and the braid relation
    on E^3 as exact matrix identities; returns a list of report entries."""
    t1, t2 = rep.tau_at("EEE", 1), rep.tau_at("EEE", 2)
    x_in, x_out = rep.x_at("EE", 1), rep.x_at("EE", 2)  # right, left factor
    return [*hecke_relations(rep.tau_at("EE", 1), x_in, x_out, (
        "tau^2 = 0", "tau.(Ex) = (xE).tau + 1", "(Ex).tau = tau.(xE) + 1")),
        check_equal("braid relation",
                    compose_all(t1, t2, t1), compose_all(t2, t1, t2))]


@_memoized
def sigma(rep: TwoRep) -> BimoduleMap:
    """The commutator map EF -> FE: (FE eps) . (F tau F) . (eta EF)."""
    return compose_all(rep.eps_at("FEEF", 2), rep.tau_at("FEEF", 1),
                       rep.eta_at("EF", 0))


def eps_xi(rep: TwoRep, i: int) -> BimoduleMap:
    """The pairing eps . x^i F : EF -> A, with x^i F the i-th power of
    x on EF (the lift of x^i, since lifting is functorial)."""
    return compose(rep.eps, rep.h_xy("EF", i, [1], extra_y=False))


def self_pow(rep: TwoRep, i: int) -> BimoduleMap:
    """x^i as an endomorphism of E: h_i of the single variable x."""
    return rep.h_xy("E", i, [1], extra_y=False)


def xi_eta(rep: TwoRep, i: int) -> BimoduleMap:
    """The pairing F x^i . eta : A -> FE, with F x^i the i-th power of x
    on FE."""
    return compose(rep.h_xy("FE", i, [1], extra_y=False), rep.eta)


def commutator_at(rep: TwoRep, mu: int, lam: int, dom_words, cod_words,
                  pair_words, blocks) -> BimoduleMap:
    """A commutator map of weight ``lam``, restricted to the single source
    weight ``mu``: a commutator block stacked with ``|lam|`` pairings.

    The block maps the sum of ``dom_words`` to the sum of ``cod_words``; the
    pairings map it to the sum of ``pair_words`` (``lam > 0``, extra rows)
    or map that sum to the sum of ``cod_words`` (``lam < 0``, extra columns).
    Each pairing is split along ``pair_words`` and the pieces are grouped by
    word: every pairing's piece on the first word, then on the next.

    ``blocks()`` returns the block's matrix and the list of the pairings'
    matrices at ``mu``; it is called only when ``mu`` is in the support
    (outside it the map has no matrix and no pairing summands), and at
    ``lam = 0`` the block's matrix is the map's, uncopied.  Each distinct
    word module is restricted to ``mu`` once, over one restricted algebra
    per shift; the domain and codomain sum the restricted modules."""
    extra = [w for w in pair_words for _ in range(abs(lam)) if mu in rep.A]
    dom_words = [*dom_words, *(extra if lam < 0 else [])]
    cod_words = [*cod_words, *(extra if lam > 0 else [])]
    modules = {w: rep.word(w) for w in {*dom_words, *cod_words}}
    algebras = {s: restrict_algebra(rep.A, mu, s)
                for s in {M.shift for M in modules.values()}}
    restricted = {w: restrict_at(M, mu, algebras[M.shift])
                  for w, M in modules.items()}
    dom = SumBimodule([restricted[w] for w in dom_words])
    cod = SumBimodule([restricted[w] for w in cod_words])
    if mu not in rep.A:
        return BimoduleMap(dom, cod, {})
    mat, pairs = blocks()
    cuts = offsets([rep.word(w).rank(mu) for w in pair_words])
    spans = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    if lam > 0:
        mat = block_matrix(rep.A.field, [[mat]] + [
            [pick(p, span, range(p.ncols))] for span in spans for p in pairs])
    elif lam < 0:
        mat = block_matrix(rep.A.field, [[mat] + [
            pick(p, range(p.nrows), span) for span in spans for p in pairs]])
    return BimoduleMap(dom, cod, {mu: mat})


@_memoized
def rho(rep: TwoRep, lam: int) -> BimoduleMap:
    """The commutator map at a single weight, built by
    :func:`commutator_at`.

    For lam >= 0: sigma (+) eps.x^i F (0 <= i < lam) : EF -> FE (+) A^lam.
    For lam <= 0: (sigma, F x^i . eta (0 <= i < -lam)) : EF (+) A^(-lam) -> FE.
    At lam = 0 there are no summation terms; outside the support the map
    has no matrix.
    """
    pairing = eps_xi if lam > 0 else xi_eta
    return commutator_at(
        rep, lam, lam, ["EF"], ["FE"], [""],
        lambda: (sigma(rep).matrix(lam),
                 [pairing(rep, i).matrix(lam) for i in range(abs(lam))]))


def check_hypotheses(rep: TwoRep, window):
    """Check the structural hypotheses of the construction on the finite
    window ``(lo, hi)``, both ends included.

    (a) every component is finite free (structural in this representation);
    (b) E^n carries a free module structure over k[x1..xn] for n <= 2,
        certified when each x_i acts by a scalar variable or E^n vanishes;
    (c) E, F locally nilpotent on the window: cannot fail on a finite support;
    (d) rho is an isomorphism at every weight of the window.
    """
    lo, hi = window
    # (a) finite free components
    results = [record("components finite free", True)]

    # (b) freeness of E^n over the polynomial action
    for n in (1, 2):
        word = "E" * n
        W = rep.word(word)
        if W.total_rank() == 0:
            results.append(record(f"E^{n} free over P_{n}", True,
                                  witness=f"E^{n} = 0"))
            continue
        bad = [f"x_{i} at weight {lam} not a scalar variable"
               for i in range(1, n + 1)
               for lam, m in rep.x_at(word, i).mats.items()
               if m.nrows and not scalar_variable(m, m.nrows, W.algebra, lam)]
        results.append(record(f"E^{n} free over P_{n}", not bad,
                              bad[-1] if bad else None))

    # (c) local nilpotence: E^k and F^k move a weight by 2k
    ws = rep.A.weights() or [0]
    bound = 1 + (ws[-1] - ws[0]) // 2
    for lam in range(lo, hi + 1):
        for letter in "EF":
            nil = any(rep.word(letter * k).rank(lam) == 0
                      for k in range(1, bound + 1))
            results.append(record(
                f"{letter}^k e_{lam} = 0 for some k <= {bound}", nil,
                None if nil else f"{letter}^{bound} e_{lam} != 0"))

    # (d) rho is an isomorphism across the window
    results += [certify_iso(rho(rep, lam).mats, f"rho_{lam} iso")
                for lam in range(lo, hi + 1)]
    return results


# ---------------------------------------------------------------------------
# JSON schema


def rep_to_json(rep: TwoRep) -> dict:
    def mat(m: Matrix):
        return [[str(e) for e in row] for row in m.entries]

    def module(M: Bimodule, letter: str):
        return {str(lam): {
            "basis": [f"{letter}{k}" for k in range(M.rank(lam))],
            "left": {v: mat(M.left_matrix(lam, v))
                     for v in rep.A.support[lam + M.shift]}}
            for lam in M.weights()}

    def maps(f: BimoduleMap):
        return {str(lam): mat(m) for lam, m in f.mats.items()
                if m.nrows and m.ncols}

    return {"weights": {str(w): list(v) for w, v in rep.A.support.items()},
            "E": module(rep.E, "e"), "F": module(rep.F, "f"),
            "x": maps(rep.x), "tau": maps(rep.tau),
            "eta": maps(rep.eta), "eps": maps(rep.eps)}


def rep_from_json(data, field=QQ) -> TwoRep:
    """Read the schema of :func:`rep_to_json`, the one place that decides
    where F, eta and eps come from.

    ``data`` has ``"weights"``, may have ``"E"``, ``"x"`` and ``"tau"``,
    and has ``"F"``, ``"eta"`` and ``"eps"`` all or none, each keyed by
    integer weights, each weight once.  The ring at lam is a list of
    distinct variable names other than the reserved y.  E (F) at lam needs
    the rings at lam and lam + 2 (lam - 2): a ``"basis"`` list read only for
    its length r and an r x r ``"left"`` matrix per generator of the other
    ring.  A map M -> N at lam (x on E, tau on EE, eta: A -> FE, eps: EF ->
    A) is a list of N(lam) rows of M(lam) strings, the ranks at lam, each a
    polynomial in the generators of the ring at lam.  Without F, E must
    have a left dual (:func:`left_dual`); other data raise InputError."""

    def need(ok, message):
        if not ok:
            raise InputError(message)

    def weighted(obj, name):
        need(isinstance(obj, dict), f"{name} is not an object keyed by weight")
        out = {}
        for key, value in obj.items():
            try:
                lam = int(key)
            except ValueError:
                raise InputError(f"{name} has the weight key {key!r}, not an "
                                 "integer") from None
            need(lam not in out, f"{name} names weight {lam} twice")
            out[lam] = value
        return out

    def entry(text, lam, name):
        need(isinstance(text, str),
             f"{name} at weight {lam} has an entry that is not a string")
        try:
            p = parse_poly(text, field)
        except (ValueError, ZeroDivisionError, RecursionError) as e:
            raise InputError(f"{name} at weight {lam}: {e}") from None
        names = {var_name(k) for e in p.terms for k, n in enumerate(e) if n}
        need("y" not in names, f"entry {text!r} involves the reserved y")
        foreign = sorted(names - set(support[lam]))
        if foreign:
            raise InputError(f"entry {text!r} at weight {lam} names "
                             f"{foreign[0]!r}, not a generator of the weight "
                             f"ring at {lam}")
        return p

    def matrix(rows, n, m, lam, name):
        need(isinstance(rows, list) and all(isinstance(r, list) for r in rows),
             f"{name} at weight {lam} is not a list of rows")
        widths = [len(row) for row in rows]
        need(len(set(widths)) < 2, f"{name} at weight {lam} is ragged, with "
             f"rows of lengths {', '.join(map(str, widths))}")
        need(widths == [m] * n, f"{name} at weight {lam} is {len(rows)}x"
             f"{max(widths, default=0)}, expected {n}x{m}")
        return Matrix(field, n, m, [[entry(s, lam, name) for s in row]
                                    for row in rows])

    def module(section, shift):
        comps = weighted(data.get(section, {}), section)
        for lam, c in comps.items():
            need(isinstance(c, dict) and set(c) == {"basis", "left"}
                 and isinstance(c["basis"], list)
                 and isinstance(c["left"], dict),
                 f'{section} at weight {lam} is not an object with a "basis" '
                 'list and a "left" object')
            need(lam in support and lam + shift in support,
                 f"{section} entry at weight {lam} needs the weight rings at "
                 f"{lam} and {lam + shift}")
            gens, left, r = support[lam + shift], c["left"], len(c["basis"])
            for v in left:
                need(v in gens, f"left action at weight {lam} names {v!r}, "
                     f"not a generator of the weight ring at {lam + shift}")
            for v in gens:
                need(v in left,
                     f"{section} at weight {lam} has no left action of {v}")
            comps[lam] = Component(r, {v: matrix(left[v], r, r, lam,
                                                 f"{section}'s left action "
                                                 f"of {v}") for v in gens})
        return Bimodule(A, shift, comps)

    def bimodule_map(section, dom, cod):
        M, N = rep.word(dom), rep.word(cod)
        mats = weighted(data.get(section, {}), section)
        for lam, rows in mats.items():
            need(lam in M.weights(), f"{section} entry at weight {lam}, where "
                 f"{dom or 'A'} has no component")
            mats[lam] = matrix(rows, N.rank(lam), M.rank(lam), lam, section)
        return BimoduleMap(M, N, mats)

    need(isinstance(data, dict) and "weights" in data
         and set(data) <= {"weights", "E", "x", "tau", "F", "eta", "eps"},
         'the data is not an object with "weights" and at most "E", "x", '
         '"tau", "F", "eta" and "eps" besides')
    dual = {"F", "eta", "eps"} & set(data)
    need(len(dual) in (0, 3), 'the sections "F", "eta" and "eps" are given '
         'all together or not at all')
    support = weighted(data["weights"], "weights")
    for lam, gens in support.items():
        try:
            ok = (isinstance(gens, list)
                  and all(isinstance(g, str) for g in gens)
                  and len({var_index(g) for g in gens}) == len(gens))
        except ValueError:  # an unknown variable name
            ok = False
        need(ok, f"the weight ring at {lam} is not a list of distinct "
             "variable names")
        need("y" not in gens, f"the weight ring at {lam} lists the reserved y")
    A = WeightedAlgebra(field, support)
    E = module("E", 2)
    rep = TwoRep(A, E, module("F", -2) if dual else left_dual(E))
    rep.x = bimodule_map("x", "E", "E")
    rep.tau = bimodule_map("tau", "EE", "EE")
    if dual:
        rep.eta = bimodule_map("eta", "", "FE")
        rep.eps = bimodule_map("eps", "EF", "")
    else:
        rep.eta = BimoduleMap(rep.word(""), rep.word("FE"), {
            lam: dual_basis(field, E.rank(lam), column=True)
            for lam in E.weights()})
        rep.eps = BimoduleMap(rep.word("EF"), rep.word(""), {
            lam + 2: dual_basis(field, E.rank(lam)) for lam in E.weights()})
    return rep
