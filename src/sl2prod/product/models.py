"""Model summand data for the product construction.

The models hold the elements of the S-corners, their composites and the
actions of the end algebra C on them; C's own product is
:func:`~sl2prod.product.core.c_mult`.

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

Model elements, like their coordinates, are immutable after construction:
every operation builds a new element.  So the datum of an element never
goes stale, and ``datum()`` computes it once and keeps it on the element.
``from_data`` keeps the datum it was given: once every division is exact,
head() + y_Y . last equals that datum, so a fixed partner of the pairing
sweep is not rebuilt for every power.
"""

from __future__ import annotations

from .elements import (Elt, basis_elt, elem_tensor, join, solve_op,
                       word_shift, zero_elt)
from ..matrixops import ShapeMismatchError


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
        self._datum = None

    @classmethod
    def words(cls):
        return [word for _, word in cls.LAYOUT]

    @property
    def coords(self):
        return [getattr(self, name) for name, _ in self.LAYOUT]

    def datum(self) -> Elt:
        """The defining morphism datum head() + y_Y . last, computed on the
        first call."""
        if self._datum is None:
            t = getattr(self, self.LAYOUT[-1][0])
            for i in self.Y:
                t = t.y(i)
            self._datum = self.head() + t
        return self._datum

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
        m._datum = datum
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

    def __hash__(self):
        return hash((type(self), *self.coords))

    def __repr__(self):
        return f"{type(self).__name__}({self.weight}: {self.coords})"


class G1Elt(ModelElt):
    """End-type corner element: free coordinates (theta, phi1); the datum
    phi = eta.theta + y1.phi1 is the full endomorphism representative."""
    LAYOUT = (("theta", ""), ("phi1", "FE"))
    Y = (1,)

    def head(self) -> Elt:
        return self.theta.eta(0)


class G2Elt(ModelElt):
    """Degree +1 corner element: free coordinates (a, b, c); the datum is
    the full morphism representative xi."""
    LAYOUT = (("a", "E"), ("b", "E"), ("c", "FEE"))
    Y = (1, 2)

    def e2(self) -> Elt:
        return self.b - self.a.y(1)

    def head(self) -> Elt:
        return self.b.eta(0) + self.e2().eta(0).tau(1).y(2)

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
        return (self.ee1.eta(0) + self.ee2.eta(0).tau(2).y(3)
                + self.ee3.eta(0).tau(2).tau(1).y(2).y(3))

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
        return elem_tensor(fcoord, one_at(self.rep, fcoord.weight).eta(0))

    def head(self) -> Elt:
        return self.Ef(self.f) + self.Ef(self.fp).tau_mate()


class UElt(ModelElt):
    """Degree 0 square corner element: free coordinates (p11,p21,p12,p22,lam0);
    the datum is Lam."""
    LAYOUT = (("p11", "FE"), ("p21", "FE"), ("p12", "FE"), ("p22", "FE"),
              ("lam0", "FFEE"))
    Y = (2, 1)

    def head(self) -> Elt:
        # alpha, beta: representatives of the bracketed endomorphism sums,
        # each p lifted to the pair word by eta at position 1
        alpha = self.p11.eta(1) + self.p12.eta(1).tau_mate()
        beta = self.p21.eta(1) + self.p22.eta(1).tau_mate()
        return alpha.y(1).tau(1) - beta.y(1).tau(1).y(2)


# The model of each FE-ordered corner, and every model by its tag.
CORNER_MODELS = {"11": G1Elt, "12": G2Elt, "21": L2Elt, "22": UElt}


def one_at(rep, weight: int) -> Elt:
    return basis_elt(rep, "", weight, 0)


def one_G1(rep, w):
    return G1Elt(rep, w, one_at(rep, w))


# ---------------------------------------------------------------------------
# compositions and actions
# ---------------------------------------------------------------------------

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
    theta = c1.theta.vec[0] if c1.theta.vec else None
    b_new = join(g.b, c1.datum(), 1)
    a_new = join(g.b, c1.phi1, 1)
    c_new = join(g.e2().eta(0).tau(1) + g.c.y(1), c1.phi1, 1)
    if theta is not None:
        a_new = a_new + g.a.scale(theta)
        c_new = c_new + g.c.scale(theta)
    return G2Elt(g.rep, g.weight, a_new, b_new, c_new)


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
    y1phi1 = phi1.y(1)
    f_new = join(y1phi1, l.f, 1) + join(phi1, l.fp, 1)
    rho1 = join(phi1.eta(1).tau(1), l.fp, 1) + join(y1phi1, l.rho1, 1)
    return L2Elt(l.rep, l.weight, f=f_new, rho1=rho1)


def act_phi1_on_G2(g: G2Elt, phi1: Elt) -> G2Elt:
    """Middle action of an off-diagonal end datum on a degree +1 element."""
    return act_G1_on_G2(g, G1Elt(g.rep, phi1.weight, phi1=phi1))


# ---------------------------------------------------------------------------
# square-product expansions (EE direction)
# ---------------------------------------------------------------------------

def gamma21_EE_G1E(c1: G1Elt, e: Elt) -> G2Elt:
    """Pair of an end-type and a one-step element, degree +1 corner."""
    return G2Elt(c1.rep, e.weight, elem_tensor(c1.theta, e),
                 elem_tensor(c1.theta, e.y(1)), elem_tensor(c1.phi1, e))


def gamma22_EE_G1EE(c1: G1Elt, ee: Elt) -> G3Elt:
    return G3Elt(c1.rep, ee.weight, elem_tensor(c1.theta, ee.y(1).y(2)),
                 chi2=elem_tensor(c1.phi1, ee))


def gamma22_EE_G2G2(p: G2Elt, q: G2Elt) -> G3Elt:
    """Pair of two degree +1 elements in the square corner."""
    t_bb = elem_tensor(p.b, q.b)
    inner = t_bb - elem_tensor(p.b, q.a).y(1)
    ee1 = t_bb + inner.tau(1).y(2) + join(p.b, q.c, 1).y(2).y(1)
    ee2 = t_bb - elem_tensor(p.a, q.b).y(2)
    ee3 = elem_tensor(p.e2(), q.e2())
    chi2 = (join(p.e2().eta(0).tau(1), q.c, 1)
            + elem_tensor(p.c, q.e2()).tau(1) + elem_tensor(p.c, q.a))
    return G3Elt(p.rep, q.weight, ee1, ee2, ee3, chi2)


def tau22(h: G3Elt) -> G3Elt:
    """The crossing map on the square corner, elementwise."""
    eep = h.ee_prime()
    return G3Elt(h.rep, h.weight, eep, eep, h.ee3.tau(1), h.chi2.tau(2))


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
