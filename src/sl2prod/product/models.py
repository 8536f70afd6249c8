"""Model summand data for the product construction.

Each corner of the product 1-morphisms is presented by free word-module
summands together with membership equations.  A model element holds the free
coordinates on its corner's summand words (the "model form"); each class
declares that layout once, in ``LAYOUT``, and the coordinate arithmetic, the
zero-filled construction and the flat coordinate vector follow from it.

The membership rule is one formula: the defining morphism datum of an
element is ``head() + y_Y . last``, where ``head()`` reads every coordinate
but the last and y_Y is the product of the operators y_i = x_i - y for i in
the class's ``Y``.  ``data`` returns the leading coordinates and the datum;
``from_data`` inverts it by subtracting the head and dividing exactly by
y_Y, raising :class:`~sl2prod.product.elements.NotInModelError` when a
division leaves a remainder.
"""

from __future__ import annotations

from .elements import (Elt, apply_map, basis_elt, elem_tensor, join, solve_op,
                       word_shift, zero_elt)
from ..matrixops import ShapeMismatchError
from ..polyring import Poly


# ---------------------------------------------------------------------------
# model element classes
# ---------------------------------------------------------------------------

class ModelElt:
    """Free coordinates of a corner element, one :class:`Elt` per summand.

    Subclasses declare ``LAYOUT``, the (coordinate name, word) pairs of
    their summands, ``Y``, the factors y_i that multiply the last
    coordinate in the datum, and ``head()``, the rest of the datum.
    Coordinates are given in layout order, then by name; any left out is
    zero.
    """
    LAYOUT: tuple = ()
    Y: tuple = ()

    def __init__(self, rep, weight: int, *coords: Elt, **named: Elt):
        layout = self.LAYOUT
        if len(coords) > len(layout):
            raise ShapeMismatchError(
                f"{type(self).__name__} takes {len(layout)} coordinates, "
                f"got {len(coords)}")
        self.rep = rep
        self.weight = weight
        for (name, _), c in zip(layout, coords):
            setattr(self, name, c)
        for name, word in layout[len(coords):]:
            c = named.pop(name, None)
            setattr(self, name,
                    zero_elt(rep, word, weight) if c is None else c)
        if named:
            raise ShapeMismatchError(
                f"{type(self).__name__} takes no coordinate "
                f"{', '.join(named)} here")

    @classmethod
    def words(cls):
        return [word for _, word in cls.LAYOUT]

    @property
    def coords(self):
        return [getattr(self, name) for name, _ in self.LAYOUT]

    def datum(self) -> Elt:
        """The defining morphism datum head() + y_Y . last."""
        name, word = self.LAYOUT[-1]
        t = getattr(self, name)
        for i in self.Y:
            t = apply_map(self.rep.y_at(word, i), t, word)
        return self.head() + t

    def data(self):
        return (*self.coords[:-1], self.datum())

    @classmethod
    def from_data(cls, rep, *data: Elt):
        """The element with leading coordinates ``data[:-1]`` and datum
        ``data[-1]``: the last coordinate is (datum - head) / y_Y."""
        *lead, datum = data
        # the datum lies on the last word and head() does not read it, so
        # it holds the last slot until the quotient replaces it
        m = cls(rep, datum.weight, *lead, datum)
        resid = datum - m.head()
        for i in reversed(cls.Y):
            resid = solve_op(resid, i)
        setattr(m, cls.LAYOUT[-1][0], resid)
        return m

    @classmethod
    def from_vec(cls, rep, weight: int, vec):
        """The element whose concatenated coordinate columns are ``vec``."""
        coords, k = [], 0
        for word in cls.words():
            n = rep.word(word).rank(weight)
            coords.append(Elt(rep, word, weight, list(vec[k:k + n])))
            k += n
        return cls(rep, weight, *coords)

    def to_vec(self) -> list:
        return [p for c in self.coords for p in c.vec]

    def _new(self, coords):
        return type(self)(self.rep, self.weight, *coords)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new([-c for c in self.coords])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return type(other) is type(self) and self.coords == other.coords

    def __repr__(self):
        return f"{type(self).__name__}({self.weight}: {self.coords})"


class G1Elt(ModelElt):
    """End-type corner element: free coordinates (theta, phi1); the datum
    phi = eta.theta + y1.phi1 is the full endomorphism representative."""
    LAYOUT = (("theta", ""), ("phi1", "FE"))
    Y = (1,)

    def head(self) -> Elt:
        return apply_map(self.rep.eta, self.theta, "FE")


class G2Elt(ModelElt):
    """Degree +1 corner element: free coordinates (a, b, c); the datum is
    the full morphism representative xi."""
    LAYOUT = (("a", "E"), ("b", "E"), ("c", "FEE"))
    Y = (1, 2)

    def e2(self) -> Elt:
        return self.b - apply_map(self.rep.y_at("E", 1), self.a, "E")

    def head(self) -> Elt:
        r = self.rep
        t1 = apply_map(r.eta_at("E", 0), self.b, "FEE")
        t2 = apply_map(r.eta_at("E", 0), self.e2(), "FEE")
        t2 = apply_map(r.tau_at("FEE", 1), t2, "FEE")
        t2 = apply_map(r.y_at("FEE", 2), t2, "FEE")
        return t1 + t2

    def data(self):
        return self.b, self.e2(), self.datum()

    @classmethod
    def from_data(cls, rep, e1: Elt, e2: Elt, xi: Elt):
        return super().from_data(rep, solve_op(e1 - e2, 1), e1, xi)


class G3Elt(ModelElt):
    """Degree +1 square corner element (constrained tuple, not free); the
    datum is chi."""
    LAYOUT = (("ee1", "EE"), ("ee2", "EE"), ("ee3", "EE"), ("chi2", "FEEE"))
    Y = (1, 2, 3)

    def ee_prime(self) -> Elt:
        """The divided difference (ee1 - ee2) / y2, exact by membership."""
        return solve_op(self.ee1 - self.ee2, 2)

    def head(self) -> Elt:
        r = self.rep

        def emb(v):
            return apply_map(r.eta_at("EE", 0), v, "FEEE")
        t1 = emb(self.ee1)
        t2 = apply_map(r.y_at("FEEE", 3),
                       apply_map(r.tau_at("FEEE", 2), emb(self.ee2), "FEEE"),
                       "FEEE")
        t3 = apply_map(r.tau_at("FEEE", 2), emb(self.ee3), "FEEE")
        t3 = apply_map(r.tau_at("FEEE", 1), t3, "FEEE")
        t3 = apply_map(r.y_at("FEEE", 2), t3, "FEEE")
        t3 = apply_map(r.y_at("FEEE", 3), t3, "FEEE")
        return t1 + t2 + t3

    @classmethod
    def from_data(cls, rep, ee1, ee2, ee3, chi):
        # membership: y2 | ee1 - ee2 and y1 | ee3 - ee2
        solve_op(ee1 - ee2, 2)
        solve_op(ee3 - ee2, 1)
        return super().from_data(rep, ee1, ee2, ee3, chi)


class L2Elt(ModelElt):
    """Degree -1 corner element: free coordinates (fp, f, rho1); the datum
    is rho."""
    LAYOUT = (("fp", "F"), ("f", "F"), ("rho1", "FFE"))
    Y = (1,)

    def Ef(self, fcoord: Elt) -> Elt:
        """Representative of the induced one-step evaluation of an F datum."""
        eta1 = apply_map(self.rep.eta, one_at(self.rep, fcoord.weight), "FE")
        return elem_tensor(fcoord, eta1)

    def head(self) -> Elt:
        return self.Ef(self.f) + apply_map(self.rep.tau_mate("E"),
                                           self.Ef(self.fp), "FFE")


class UElt(ModelElt):
    """Degree 0 square corner element: free coordinates (p11,p21,p12,p22,lam0);
    the datum is Lam."""
    LAYOUT = (("p11", "FE"), ("p21", "FE"), ("p12", "FE"), ("p22", "FE"),
              ("lam0", "FFEE"))
    Y = (2, 1)

    def head(self) -> Elt:
        r = self.rep
        alpha = EPhi(r, self.p11) + apply_map(r.tau_mate("EE"),
                                              EPhi(r, self.p12), "FFEE")
        beta = EPhi(r, self.p21) + apply_map(r.tau_mate("EE"),
                                             EPhi(r, self.p22), "FFEE")
        # alpha, beta: representatives of the bracketed endomorphism sums
        t1 = apply_map(r.tau_at("FFEE", 1),
                       apply_map(r.y_at("FFEE", 1), alpha, "FFEE"), "FFEE")
        t2 = apply_map(r.y_at("FFEE", 2),
                       apply_map(r.tau_at("FFEE", 1),
                                 apply_map(r.y_at("FFEE", 1), beta, "FFEE"),
                                 "FFEE"), "FFEE")
        return t1 - t2


# The model of each FE-ordered corner, and every model by its tag.
CORNER_MODELS = {"11": G1Elt, "12": G2Elt, "21": L2Elt, "22": UElt}


def one_at(rep, weight: int) -> Elt:
    return basis_elt(rep, "", weight, 0)


def one_G1(rep, w):
    g = G1Elt(rep, w)
    g.theta.vec[0] = Poly.one(rep.A.field)
    return g


def EPhi(rep, p: Elt) -> Elt:
    """Representative of the induced endomorphism on the pair word."""
    return apply_map(rep.eta_at("FE", 1), p, "FFEE")


# ---------------------------------------------------------------------------
# compositions and actions
# ---------------------------------------------------------------------------

def compose_G1(after: G1Elt, first: G1Elt) -> G1Elt:
    """Composite of two end-type corner elements (first applied first)."""
    theta = Elt(first.theta.rep, "", first.theta.weight,
                [first.theta.vec[0] * after.theta.vec[0]]
                if first.theta.vec else [])
    phi = join(first.datum(), after.datum(), 1)
    return G1Elt.from_data(after.rep, theta, phi)


def compose_F_after_G1(f: Elt, g: G1Elt) -> Elt:
    return join(g.datum(), f, 1)


def compose_L2_after_G2(l: L2Elt, g: G2Elt) -> G1Elt:
    theta = join(g.b, l.f, 1) + join(g.a, l.fp, 1)
    phi = join(g.datum(), l.datum(), 2)
    return G1Elt.from_data(l.rep, theta, phi)


def compose_G1_after_L2(g: G1Elt, l: L2Elt) -> L2Elt:
    theta = g.theta.vec[0]
    rho = join(l.datum(), g.datum(), 1)
    return L2Elt.from_data(l.rep, l.fp.scale(theta), l.f.scale(theta), rho)


def compose_U(g: G2Elt, l: L2Elt) -> UElt:
    """Pairing of a degree -1 and degree +1 corner element into the square."""
    p11 = elem_tensor(l.f, g.b)
    p21 = elem_tensor(l.f, g.a)
    p12 = elem_tensor(l.fp, g.b)
    p22 = elem_tensor(l.fp, g.a)
    Lam = join(l.datum(), g.datum(), 1)
    return UElt.from_data(g.rep, p11, p21, p12, p22, Lam)


def compose_L2_after_U(l: L2Elt, u: UElt) -> L2Elt:
    f = join(u.p11, l.f, 1) + join(u.p21, l.fp, 1)
    fp = join(u.p12, l.f, 1) + join(u.p22, l.fp, 1)
    rho = join(u.datum(), l.datum(), 2)
    return L2Elt.from_data(l.rep, fp, f, rho)


def act_G1_on_G2(g: G2Elt, c1: G1Elt) -> G2Elt:
    """Right action of an end-type element on a degree +1 corner element."""
    r = g.rep
    theta = c1.theta.vec[0] if c1.theta.vec else None
    phi = c1.datum()
    y1a = apply_map(r.y_at("E", 1), g.a, "E")
    b_new = join(g.b, phi, 1)
    a_new = join(g.b, c1.phi1, 1)
    t_tau = apply_map(r.tau_at("FEE", 1),
                      apply_map(r.eta_at("E", 0), g.b - y1a, "FEE"), "FEE")
    c_new = join(t_tau, c1.phi1, 1) + join(
        apply_map(r.y_at("FEE", 1), g.c, "FEE"), c1.phi1, 1)
    if theta is not None:
        a_new = a_new + g.a.scale(theta)
        c_new = c_new + g.c.scale(theta)
    return G2Elt(r, g.weight, a_new, b_new, c_new)


def act_G1_on_U(u: UElt, c1: G1Elt) -> UElt:
    theta = c1.theta.vec[0]
    phi = c1.datum()
    p11 = join(u.p11, phi, 1)
    p12 = join(u.p12, phi, 1)
    p21 = join(u.p11, c1.phi1, 1) + u.p21.scale(theta)
    p22 = join(u.p12, c1.phi1, 1) + u.p22.scale(theta)
    Lam = join(u.datum(), phi, 1)
    return UElt.from_data(u.rep, p11, p21, p12, p22, Lam)


def act_L2_on_L2_left(phi1: Elt, l: L2Elt) -> L2Elt:
    """Middle action of an off-diagonal end datum on a degree -1 element."""
    r = l.rep
    y1phi1 = apply_map(r.y_at("FE", 1), phi1, "FE")
    f_new = join(y1phi1, l.f, 1) + join(phi1, l.fp, 1)
    t1 = join(apply_map(r.tau_at("FFEE", 1), EPhi(r, phi1), "FFEE"),
              l.fp, 1)
    t2 = join(y1phi1, l.rho1, 1)
    return L2Elt(r, l.weight, f=f_new, rho1=t1 + t2)


def act_phi1_on_G2(g: G2Elt, phi1: Elt) -> G2Elt:
    """Middle action of an off-diagonal end datum on a degree +1 element."""
    return act_G1_on_G2(g, G1Elt(g.rep, phi1.weight, phi1=phi1))


# ---------------------------------------------------------------------------
# square-product expansions (EE direction)
# ---------------------------------------------------------------------------

def gamma21_EE_G1E(c1: G1Elt, e: Elt) -> G2Elt:
    """Pair of an end-type and a one-step element, degree +1 corner."""
    r = c1.rep
    theta = c1.theta
    a = elem_tensor(theta, e)
    y1e = apply_map(r.y_at("E", 1), e, "E")
    b = elem_tensor(theta, y1e)
    cfree = elem_tensor(c1.phi1, e)
    return G2Elt(r, e.weight, a, b, cfree)


def gamma22_EE_G1EE(c1: G1Elt, ee: Elt) -> G3Elt:
    r = c1.rep
    v = apply_map(r.y_at("EE", 1), ee, "EE")
    v = apply_map(r.y_at("EE", 2), v, "EE")
    ee1 = elem_tensor(c1.theta, v)
    chi2 = elem_tensor(c1.phi1, ee)
    return G3Elt(r, ee.weight, ee1, chi2=chi2)


def gamma22_EE_G2G2(p: G2Elt, q: G2Elt) -> G3Elt:
    """Pair of two degree +1 elements in the square corner."""
    r = p.rep
    y1 = lambda v: apply_map(r.y_at("E", 1), v, "E")
    pb, pa, qb, qa = p.b, p.a, q.b, q.a
    t_bb = elem_tensor(pb, qb)
    t_ba = elem_tensor(pb, qa)
    t_ab = elem_tensor(pa, qb)
    inner = t_bb - apply_map(r.y_at("EE", 1), t_ba, "EE")
    ee1 = (t_bb
           + apply_map(r.y_at("EE", 2),
                       apply_map(r.tau_at("EE", 1), inner, "EE"), "EE")
           + apply_map(r.y_at("EE", 1),
                       apply_map(r.y_at("EE", 2), join(pb, q.c, 1), "EE"),
                       "EE"))
    ee2 = t_bb - apply_map(r.y_at("EE", 2), t_ab, "EE")
    ee3 = elem_tensor(pb - y1(pa), qb - y1(qa))
    t_tau = apply_map(r.tau_at("FEE", 1),
                      apply_map(r.eta_at("E", 0), pb - y1(pa), "FEE"),
                      "FEE")
    chi2 = (join(t_tau, q.c, 1)
            + apply_map(r.tau_at("FEEE", 1),
                        elem_tensor(p.c, qb - y1(qa)), "FEEE")
            + elem_tensor(p.c, qa))
    return G3Elt(r, q.weight, ee1, ee2, ee3, chi2)


def tau22(h: G3Elt) -> G3Elt:
    """The crossing map on the square corner, elementwise."""
    r = h.rep
    eep = h.ee_prime()
    ee3 = apply_map(r.tau_at("EE", 1), h.ee3, "EE")
    chi2 = apply_map(r.tau_at("FEEE", 2), h.chi2, "FEEE")
    return G3Elt(r, h.weight, eep, eep, ee3, chi2)


def decompose_first(elt: Elt):
    """Split off the leftmost letter of a word element against its basis.

    Returns a list of (left_basis_elt, rest_elt) whose elem_tensor sum
    reproduces the element.
    """
    rep = elt.rep
    first, rest = elt.word[0], elt.word[1:]
    w = elt.weight
    r_right = rep.word(rest).rank(w)
    w_left = w + word_shift(rest)
    r_left = rep.word(first).rank(w_left)
    out = []
    for i in range(r_left):
        right = Elt(rep, rest, w, elt.vec[i * r_right:(i + 1) * r_right])
        if not right.is_zero():
            out.append((basis_elt(rep, first, w_left, i), right))
    return out
