"""Two-representations: the data (A, E, x, tau) with a weight decomposition.

The raising bimodule E has weight shift +2; its left dual F (shift -2) is
always derived, never user-supplied, together with the adjunction unit eta and
counit eps.  A word calculus over the alphabet {E, F} provides the tensor
word modules and the positional maps (x or tau at a factor, eps/eta at a
position) out of which every composite map of the construction is assembled.
The word modules and positional maps are memoized on the representation.
"""

from __future__ import annotations

import functools

from .polyring import Poly, QQ, parse_poly, h_complete
from .matrixops import Matrix, block_matrix
from .bimodcat import (
    WeightedAlgebra, Bimodule, Component, BimoduleMap, SumBimodule,
    regular_bimodule, tensor_over_A, identity_map, zero_map, compose,
    compose_all, tensor_id_left, tensor_id_right, certify_iso,
)


class LeftDualError(ValueError):
    """The left dual requires scalar left-action matrices (v acting as a
    variable times the identity) on every component of E."""


class HypothesesFailedError(ValueError):
    """The input data violates a hypothesis of the construction."""


def record(name, ok, witness=None) -> dict:
    """One report record: the check name, its status and an optional
    witness."""
    out = {"check": name, "status": "pass" if ok else "fail"}
    if witness:
        out["witness"] = str(witness)
    return out


# ---------------------------------------------------------------------------
# restriction to a weight window


def restrict_bimodule(M: Bimodule, weights) -> Bimodule:
    support = {w: M.algebra.support[w] for w in weights if w in M.algebra}
    algebra = WeightedAlgebra(M.algebra.field, support, M.algebra.has_y)
    comps = {lam: M.components[lam] for lam in M.components
             if lam in algebra and lam + M.shift in algebra}
    return Bimodule(algebra, M.shift, comps, name=M.name)


# ---------------------------------------------------------------------------
# the 2-representation data


def _memoized(method):
    """Cache a word-calculus method per (method, arguments) on its TwoRep.

    The memoized entries are ``_left_dual``, ``eta``, ``eps``, ``word``,
    ``x_at``, ``y_at``, ``tau_at``, ``eps_at``, ``eta_at``, ``tau_mate``,
    ``xF_pow`` and ``_h_xy`` here, and ``_omega3_map`` in
    ``sl2prod.product.gammas``.  Cached modules and maps are shared between
    callers, which only read them."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]
    return cached


class TwoRep:
    """The data (A, E, x, tau); F, eta, eps are derived on demand."""

    def __init__(self, A: WeightedAlgebra, E: Bimodule, x: BimoduleMap,
                 tau: BimoduleMap, name: str = ""):
        self.A = A
        self.E = E
        self.x = x
        self.tau = tau
        self.name = name
        self._cache: dict = {}

    # -- derived duality

    @_memoized
    def _left_dual(self):
        return left_dual(self.E)

    @property
    def F(self) -> Bimodule:
        return self._left_dual()[0]

    @property
    @_memoized
    def eta(self) -> BimoduleMap:
        """The unit A -> FE on the word modules."""
        return self.rebase(self._left_dual()[1], "", "FE")

    @property
    @_memoized
    def eps(self) -> BimoduleMap:
        """The counit EF -> A on the word modules."""
        return self.rebase(self._left_dual()[2], "EF", "")

    # -- word calculus

    @_memoized
    def word(self, w: str) -> Bimodule:
        """The tensor word module for a word over {E, F} ('' is the algebra)."""
        if w == "":
            return regular_bimodule(self.A, name="A")
        head = {"E": self.E, "F": self.F}[w[0]]
        return tensor_over_A(head, self.word(w[1:]), name=w)

    def rebase(self, f: BimoduleMap, dom_word: str, cod_word: str) -> BimoduleMap:
        """Re-attach a map to the cached word modules (coordinates agree)."""
        return BimoduleMap(self.word(dom_word), self.word(cod_word),
                           {lam: f.matrix(lam) for lam in f.mats}, name=f.name)

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
        return BimoduleMap(dom, self.word(lw + cod_mid + rw), mats, name=f.name)

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

    def _mate_F(self, op: BimoduleMap, k: int, rw: str) -> BimoduleMap:
        """Transport an operator on E^k to the leading F^k of F^k + rw.

        The resulting map sends the dual-word representative of a morphism
        h on E^k to the representative of h . op.
        """
        steps = []
        w = "F" * k + rw
        for j in range(k):
            steps.append(self.eta_at(w, j))
            w = w[:j] + "FE" + w[j:]
        steps.append(self.lift(op, "E" * k, "E" * k, w[:k], w[2 * k:]))
        for s in range(k):
            pos = 2 * k - s - 1
            steps.append(self.eps_at(w, pos))
            w = w[:pos] + w[pos + 2:]
        return compose_all(*reversed(steps))

    @_memoized
    def tau_mate(self, rw: str) -> BimoduleMap:
        """The crossing transported to the leading FF of FF + rw."""
        return self._mate_F(self.tau, 2, rw)

    @_memoized
    def xF_pow(self, i: int, rw: str) -> BimoduleMap:
        """x^i transported to the leading F of F + rw."""
        return self._mate_F(self_pow(self, i), 1, rw)

    def scalar(self, word: str, p) -> BimoduleMap:
        """Multiplication by a central scalar polynomial on a word module."""
        return identity_map(self.word(word)).scale(p)

    def h_xy(self, word: str, i: int, xs, extra_y: bool = True) -> BimoduleMap:
        """The operator h_i evaluated at the listed x positions and y.

        xs is a list of E-factor indices (from the right); the variable y is
        included when extra_y is True.  Realized by expanding h_i symbolically
        in placeholder variables and substituting the commuting operators.
        """
        return self._h_xy(word, i, tuple(xs), extra_y)

    @_memoized
    def _h_xy(self, word: str, i: int, xs: tuple, extra_y: bool) -> BimoduleMap:
        W = self.word(word)
        if i < 0:
            return zero_map(W, W)
        field = self.A.field
        names = [f"x{k + 1}" for k in range(len(xs))] + (["y"] if extra_y else [])
        h = h_complete(i, names, field)
        iden = identity_map(W)
        powers = {}  # placeholder name -> [x^0, x^1, ..., x^i] at its factor
        for k, xi in enumerate(xs):
            pw = [iden]
            for _ in range(i):
                pw.append(compose(self.x_at(word, xi), pw[-1]))
            powers[f"x{k + 1}"] = pw
        y = Poly.var(field, "y")
        out = zero_map(W, W)
        for exps, c in h.terms.items():
            term, scalar = iden, Poly.const(field, c)
            for name, e in zip(h.names, exps):
                if name == "y":
                    scalar = scalar * y ** e
                elif e:
                    term = compose(powers[name][e], term)
            out = out + term.scale(scalar)
        return out

    # -- base change

    def adjoin_y(self) -> "TwoRep":
        """The same representation with the central variable y adjoined."""
        A = self.A.adjoin_y()
        E = Bimodule(A, self.E.shift, self.E.components, name=self.E.name)
        EE = tensor_over_A(E, E)
        x = BimoduleMap(E, E, self.x.mats, name="x")
        tau = BimoduleMap(EE, EE, self.tau.mats, name="tau")
        return TwoRep(A, E, x, tau, name=self.name + "[y]")


# ---------------------------------------------------------------------------
# left dual


def left_dual(E: Bimodule):
    """The left dual F with the adjunction (eta, eps) for E.

    Requires every component's left action matrices to be scalar (a variable
    times the identity) inducing a variable bijection between the base rings.
    """
    A = E.algebra
    field = A.field
    comps = {}
    for lam in A.weights():
        if lam - E.shift not in A:
            continue
        src = lam - E.shift  # source weight of the E component being dualized
        r = E.rank(src)
        # determine the variable bijection hat: vars(lam) -> vars(src)
        hat = {}
        for w in A.support[lam]:
            mat = E.left_matrix(src, w)
            if r == 0:
                hat[w] = None
                continue
            target = None
            for v in A.support[src]:
                if mat == Matrix.identity(field, r).scale(Poly.var(field, v)):
                    target = v
                    break
            if target is None:
                raise LeftDualError(
                    f"left action of {w} at weight {src} is not scalar")
            hat[w] = target
        inv = {v: w for w, v in hat.items() if v is not None}
        left = {}
        for v in A.support[src]:
            if r and v in inv:
                left[v] = Matrix.identity(field, r).scale(Poly.var(field, inv[v]))
            elif r:
                raise LeftDualError(
                    f"no variable of the base ring at {lam} acts as {v}")
            else:
                left[v] = Matrix.zero(field, 0, 0)
        basis = tuple(f"{b}^" for b in E.basis(src))
        comps[lam] = Component(basis, left)
    F = Bimodule(A, -E.shift, comps, name="F")
    # eps: E (x) F -> A, evaluation on dual bases
    EF = tensor_over_A(E, F, name="EF")
    Areg = regular_bimodule(A)
    eps_mats = {}
    for lam in EF.weights():
        r = E.rank(lam - 2) if (lam - 2) in A else 0
        m = Matrix.zero(field, Areg.rank(lam), EF.rank(lam))
        if Areg.rank(lam) and r:
            one = Poly.one(field)
            for i in range(r):
                m.set(0, i * r + i, one)
        eps_mats[lam] = m
    eps = BimoduleMap(EF, Areg, eps_mats, name="eps")
    # eta: A -> F (x) E, the dual basis element
    FE = tensor_over_A(F, E, name="FE")
    eta_mats = {}
    for lam in Areg.weights():
        r = E.rank(lam)
        m = Matrix.zero(field, FE.rank(lam), Areg.rank(lam))
        if r and FE.rank(lam) == r * r:
            one = Poly.one(field)
            for a in range(r):
                m.set(a * r + a, 0, one)
        eta_mats[lam] = m
    eta = BimoduleMap(Areg, FE, eta_mats, name="eta")
    return F, eta, eps


# ---------------------------------------------------------------------------
# the built-in simple representation


def make_L1(field=QQ) -> TwoRep:
    """The rank-one representation on weights {-1, +1}.

    Both weight rings are k[u]; E is the rank-one bimodule concentrated at
    source weight -1, u acts by multiplication on both sides, x is
    multiplication by u, and tau is the zero map on the zero bimodule E^2.
    """
    A = WeightedAlgebra(field, {-1: ("u",), 1: ("u",)})
    u = Poly.var(field, "u")
    comps = {-1: Component(("e",), {"u": Matrix.from_rows(field, [[u]])})}
    E = Bimodule(A, 2, comps, name="E")
    x = BimoduleMap(E, E, {-1: Matrix.from_rows(field, [[u]])}, name="x")
    EE = tensor_over_A(E, E, name="EE")
    tau = BimoduleMap(EE, EE, {}, name="tau")
    return TwoRep(A, E, x, tau, name="L(1)")


# ---------------------------------------------------------------------------
# verification of the defining relations and hypotheses


def check_hecke(rep: TwoRep, n_max: int = 3):
    """Verify the divided-difference relations on E^2 (and E^3 for the braid
    relation) as exact matrix identities; returns a list of report entries."""
    results = []
    if n_max >= 2:
        tau = rep.tau_at("EE", 1)
        x_in = rep.x_at("EE", 1)   # x on the right factor
        x_out = rep.x_at("EE", 2)  # x on the left factor
        iden = identity_map(rep.word("EE"))
        results += [
            record("tau^2 = 0", compose(tau, tau).is_zero()),
            record("tau.(Ex) = (xE).tau + 1",
                   compose(tau, x_in) == compose(x_out, tau) + iden),
            record("(Ex).tau = tau.(xE) + 1",
                   compose(x_in, tau) == compose(tau, x_out) + iden)]
    if n_max >= 3:
        t1 = rep.tau_at("EEE", 1)
        t2 = rep.tau_at("EEE", 2)
        results.append(record(
            "braid relation",
            compose_all(t1, t2, t1) == compose_all(t2, t1, t2)))
    return results


def sigma(rep: TwoRep) -> BimoduleMap:
    """The commutator map EF -> FE: (FE eps) . (F tau F) . (eta EF)."""
    out = compose_all(rep.eps_at("FEEF", 2), rep.tau_at("FEEF", 1),
                      rep.eta_at("EF", 0))
    out.name = "sigma"
    return out


def eps_xi(rep: TwoRep, i: int) -> BimoduleMap:
    """The pairing eps . x^i F : EF -> A."""
    xi = rep.lift(self_pow(rep, i), "E", "E", "", "F")
    return compose(rep.eps, xi)


def self_pow(rep: TwoRep, i: int) -> BimoduleMap:
    """x^i as an endomorphism of E."""
    out = identity_map(rep.E)
    for _ in range(i):
        out = compose(rep.x, out)
    return rep.rebase(out, "E", "E")


def xi_eta(rep: TwoRep, i: int) -> BimoduleMap:
    """The pairing F x^i . eta : A -> FE."""
    xi = rep.lift(self_pow(rep, i), "E", "E", "F", "")
    return compose(xi, rep.eta)


def rho(rep: TwoRep, lam: int) -> BimoduleMap:
    """The commutator map at a single weight.

    For lam >= 0: sigma (+) eps.x^i F (0 <= i < lam) : EF -> FE (+) A^lam.
    For lam <= 0: (sigma, F x^i . eta (0 <= i < -lam)) : EF (+) A^(-lam) -> FE.
    Returned restricted to the weight lam; summation terms are dropped at 0.
    """
    field = rep.A.field
    if lam not in rep.A:
        # everything is zero at this weight
        z = restrict_bimodule(rep.word("EF"), {lam})
        return BimoduleMap(z, restrict_bimodule(rep.word("FE"), {lam}), {},
                           name=f"rho_{lam}")
    sig = sigma(rep)
    if lam >= 0:
        rows = [sig.matrix(lam)] + [eps_xi(rep, i).matrix(lam) for i in range(lam)]
        mat = block_matrix(field, [[r] for r in rows])
        summands = [rep.word("FE")] + [rep.word("")] * lam
        cod = SumBimodule(summands) if len(summands) > 1 else summands[0]
        f = BimoduleMap(restrict_bimodule(rep.word("EF"), {lam}),
                        restrict_bimodule(cod, {lam}), {lam: mat},
                        name=f"rho_{lam}")
    else:
        cols = [sig.matrix(lam)] + [xi_eta(rep, i).matrix(lam) for i in range(-lam)]
        mat = block_matrix(field, [cols])
        summands = [rep.word("EF")] + [rep.word("")] * (-lam)
        dom = SumBimodule(summands)
        f = BimoduleMap(restrict_bimodule(dom, {lam}),
                        restrict_bimodule(rep.word("FE"), {lam}), {lam: mat},
                        name=f"rho_{lam}")
    return f


def check_hypotheses(rep: TwoRep, window=(-4, 4), n_max: int = 2):
    """Check the structural hypotheses of the construction on a finite window.

    (a) every component is finite free (structural in this representation);
    (b) E^n carries a free module structure over k[x1..xn] for n <= n_max,
        certified when each x_i acts by a scalar variable or E^n vanishes;
    (c) E and F are locally nilpotent on the window;
    (d) rho is an isomorphism at every weight of the window.
    """
    lo, hi = window
    # (a) finite free components
    results = [record("components finite free", True)]

    # (b) freeness of E^n over the polynomial action
    for n in range(1, n_max + 1):
        word = "E" * n
        W = rep.word(word)
        if W.total_rank() == 0:
            results.append(record(f"E^{n} free over P_{n}", True,
                                  witness=f"E^{n} = 0"))
            continue
        ok = True
        witness = None
        for i in range(1, n + 1):
            xi = rep.x_at(word, i)
            for lam in W.weights():
                m = xi.matrix(lam)
                if m.nrows == 0:
                    continue
                scalar_like = any(
                    m == Matrix.identity(rep.A.field, m.nrows).scale(
                        Poly.var(rep.A.field, v))
                    for v in W.algebra.ring_vars(lam))
                if not scalar_like:
                    ok = False
                    witness = f"x_{i} at weight {lam} not a scalar variable"
        results.append(record(f"E^{n} free over P_{n}", ok, witness))

    # (c) local nilpotence
    span = hi - lo + 1
    for lam in range(lo, hi + 1):
        for letter in "EF":
            k = 1
            nil = False
            while k <= span:
                if rep.word(letter * k).rank(lam) == 0:
                    nil = True
                    break
                k += 1
            results.append(record(
                f"{letter}^k e_{lam} = 0 for some k <= {span}", nil,
                None if nil else f"{letter}^{span} e_{lam} != 0"))

    # (d) rho is an isomorphism across the window
    for lam in range(lo, hi + 1):
        cert = certify_iso(rho(rep, lam))
        results.append(record(f"rho_{lam} iso", cert.ok, cert.witness))
    return results


# ---------------------------------------------------------------------------
# JSON schema


def rep_to_json(rep: TwoRep) -> dict:
    def mat_to_json(m: Matrix):
        return [[str(e) for e in row] for row in m.entries]

    E = rep.E
    return {
        "weights": {str(w): list(v) for w, v in rep.A.support.items()},
        "E": {
            str(lam): {
                "basis": list(E.basis(lam)),
                "left": {v: mat_to_json(E.left_matrix(lam, v))
                         for v in rep.A.support[lam + 2]},
            }
            for lam in E.weights()
        },
        "x": {str(lam): mat_to_json(rep.x.matrix(lam)) for lam in E.weights()},
        "tau": {str(lam): mat_to_json(rep.tau.matrix(lam))
                for lam in rep.tau.dom.weights()},
    }


def rep_from_json(data: dict, field=QQ) -> TwoRep:
    def mat_from_json(rows, nrows, ncols):
        if not rows:
            return Matrix.zero(field, nrows, ncols)
        return Matrix.from_rows(field, [[parse_poly(s, field) for s in row]
                                        for row in rows])

    support = {int(w): tuple(v) for w, v in data["weights"].items()}
    A = WeightedAlgebra(field, support)
    comps = {}
    for lam_s, cdata in data.get("E", {}).items():
        lam = int(lam_s)
        basis = tuple(cdata["basis"])
        r = len(basis)
        left = {v: mat_from_json(rows, r, r) for v, rows in cdata["left"].items()}
        comps[lam] = Component(basis, left)
    E = Bimodule(A, 2, comps, name="E")
    x_mats = {int(l): mat_from_json(rows, E.rank(int(l)), E.rank(int(l)))
              for l, rows in data.get("x", {}).items()}
    x = BimoduleMap(E, E, x_mats, name="x")
    EE = tensor_over_A(E, E, name="EE")
    tau_mats = {int(l): mat_from_json(rows, EE.rank(int(l)), EE.rank(int(l)))
                for l, rows in data.get("tau", {}).items()}
    tau = BimoduleMap(EE, EE, tau_mats, name="tau")
    return TwoRep(A, E, x, tau, name="json")
