"""Model summand data for the product construction.

The models hold the elements of the S-corners and every elementwise
operation on them, each a function of its operands: C's product
:func:`c_mult`, the composites, the actions, the dots and the crossings.

Order convention.  C's product ab, ``c_mult(ca, a, cb, b)``, is the
composite with a applied first.  Every composite and action here names the
argument it applies first, and that argument's data are the left factor of
each ``join`` and ``elem_tensor`` it forms: ``join(u, v, n)`` contracts u,
applied first, against v.  A right action m.a applies m first, then a, so
it is an action of C's product when (m.a).b = m.(ab); a left action a.m
applies a first, so it is one when a.(b.m) = (ab).m.  Every action here is
an action of C's product, not of its opposite; the construction gate checks
the right-module law for ``act_G1_on_G2``.  The names of the composites
read the other way: ``compose_X_after_Y(x, y)`` applies y first.

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

The corners whose last word is FE^n are one family G(n), whose class
:func:`G` makes from n.  Read off the code, G(n) has free coordinates
q_(n-1), ..., q_1 and d0 on E^(n-1), then ``last`` on FE^n, and
Y = (1, ..., n).  Its data are d_0 = d0 and d_k = d_(k-1) - q_k . y(n-k)
(``d(k)``); head() is the sum over k < n of
d_k . eta(0) . tau(n-1) ... tau(n-k) . y(n-k+1) ... y(n).  ``data()`` gives
(d_0, ..., d_(n-1), datum), and ``free`` takes each q_k back as the exact
quotient (d_(k-1) - d_k) / y(n-k): the one conversion from data to free
coordinates.  G(1) and G(2) model the S-corners 11 and 12, and G(3) the
square corner 22 of E^2.
"""

from __future__ import annotations

import functools

from .elements import (Elt, basis_elt, elem_tensor, join, solve_op,
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


class GElt(ModelElt):
    """An element of G(n); :func:`G` makes its class, and the module
    docstring gives the pattern."""
    n = 0

    def d(self, k: int) -> Elt:
        """d_k = d_(k-1) - q_k . y(n-k), from d_0 = d0."""
        d = self.d0
        for j in range(1, k + 1):
            d = d - getattr(self, f"q{j}").y(self.n - j)
        return d

    def head(self) -> Elt:
        n = self.n
        terms = []
        for k in range(n):
            t = self.d(k).eta(0)
            for i in range(n - 1, n - k - 1, -1):
                t = t.tau(i)
            for i in range(n - k + 1, n + 1):
                t = t.y(i)
            terms.append(t)
        return sum(terms[1:], terms[0])

    def data(self):
        return (*map(self.d, range(self.n)), self.datum())

    @staticmethod
    def free(ds) -> list:
        """The free q_(n-1), ..., q_1, d0 of the data d_0, ..., d_(n-1):
        q_k = (d_(k-1) - d_k) / y(n-k) exactly, or NotInModelError."""
        n = len(ds)
        return [*(solve_op(ds[k - 1] - ds[k], n - k)
                  for k in range(n - 1, 0, -1)), ds[0]]

    @classmethod
    def from_data(cls, rep, *data: Elt):
        *ds, datum = data
        return super().from_data(rep, *cls.free(ds), datum)


@functools.cache
def G(n: int) -> type:
    """The class of G(n), made once per n, so that ``type(a) is type(b)``
    decides equality of model elements."""
    e = "E" * (n - 1)
    layout = (*((f"q{k}", e) for k in range(n - 1, 0, -1)), ("d0", e),
              ("last", "FE" + e))
    return type(f"G{n}Elt", (GElt,),
                {"n": n, "LAYOUT": layout, "Y": tuple(range(1, n + 1))})


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
CORNER_MODELS = {"11": G(1), "12": G(2), "21": L2Elt, "22": UElt}


def one_at(rep, weight: int) -> Elt:
    return basis_elt(rep, "", weight, 0)


def one_G1(rep, w):
    return G(1)(rep, w, one_at(rep, w))


# ---------------------------------------------------------------------------
# compositions and actions
# ---------------------------------------------------------------------------

def c_mult(ca: str, a, cb: str, b):
    """The one product ab of C, of a at corner (i,j) and b at (j,k): the
    composite with a applied first, in corner (i,k), by the module's order
    convention.  The gate and the evaluation and crossing oracles read
    it."""
    if ca[1] != cb[0]:
        raise ShapeMismatchError(f"corners {ca} and {cb} do not compose")
    key = (ca, cb)
    if cb == "11":
        return a.scale(b.vec[0])
    if key == ("11", "12"):
        return elem_tensor(a, b)
    if key == ("12", "21"):
        return join(a.y(1), b, 1)
    if key == ("12", "22"):
        return a.scale(b.d0.vec[0]) + join(a.y(1), b.last, 1)
    if key == ("21", "12"):
        return G(1)(b.rep, b.weight, last=elem_tensor(a, b))
    if key == ("22", "21"):
        return join(a.datum(), b, 1)
    if key == ("22", "22"):
        return G(1).from_data(a.rep, a.d0.scale(b.d0.vec[0]),
                              join(a.datum(), b.datum(), 1))
    raise ShapeMismatchError(f"no product rule for corners {ca} x {cb}")


def compose_L2_after_G2(l: L2Elt, g: GElt) -> GElt:
    """The composite of a degree +1 and a degree -1 corner element in C_22,
    g applied first (the module's order convention)."""
    d0 = join(g.d0, l.f, 1) + join(g.q1, l.fp, 1)
    datum = join(g.datum(), l.datum(), 2)
    return G(1).from_data(l.rep, d0, datum)


def compose_G1_after_L2(g: GElt, l: L2Elt) -> L2Elt:
    """l applied first, then g: the right action l.g of C_22 on the degree
    -1 corner, of C's product (the module's order convention)."""
    s = g.d0.vec[0]
    rho = join(l.datum(), g.datum(), 1)
    return L2Elt.from_data(l.rep, l.fp.scale(s), l.f.scale(s), rho)


def compose_U(g: GElt, l: L2Elt) -> UElt:
    """Pairing of a degree -1 and degree +1 corner element into the square,
    l applied first (the module's order convention)."""
    p11 = elem_tensor(l.f, g.d0)
    p21 = elem_tensor(l.f, g.q1)
    p12 = elem_tensor(l.fp, g.d0)
    p22 = elem_tensor(l.fp, g.q1)
    Lam = join(l.datum(), g.datum(), 1)
    return UElt.from_data(g.rep, p11, p21, p12, p22, Lam)


def compose_L2_after_U(l: L2Elt, u: UElt) -> L2Elt:
    """The composite of a square and a degree -1 corner element, u applied
    first (the module's order convention)."""
    f = join(u.p11, l.f, 1) + join(u.p21, l.fp, 1)
    fp = join(u.p12, l.f, 1) + join(u.p22, l.fp, 1)
    rho = join(u.datum(), l.datum(), 2)
    return L2Elt.from_data(l.rep, fp, f, rho)


def act_G1_on_G2(g: GElt, c1: GElt) -> GElt:
    """The right action g.c1 of C_22 on the degree +1 corner, of C's
    product: g applied first (the module's order convention)."""
    s = c1.d0.vec[0] if c1.d0.vec else None
    d0 = join(g.d0, c1.datum(), 1)
    q1 = join(g.d0, c1.last, 1)
    last = join(g.d(1).eta(0).tau(1) + g.last.y(1), c1.last, 1)
    if s is not None:
        q1 = q1 + g.q1.scale(s)
        last = last + g.last.scale(s)
    return G(2)(g.rep, g.weight, q1, d0, last)


def act_G1_on_U(u: UElt, c1: GElt) -> UElt:
    """The right action u.c1 of C_22 on the square corner, of C's product:
    u applied first (the module's order convention)."""
    s = c1.d0.vec[0]
    phi = c1.datum()
    p11 = join(u.p11, phi, 1)
    p12 = join(u.p12, phi, 1)
    p21 = join(u.p11, c1.last, 1) + u.p21.scale(s)
    p22 = join(u.p12, c1.last, 1) + u.p22.scale(s)
    Lam = join(u.datum(), phi, 1)
    return UElt.from_data(u.rep, p11, p21, p12, p22, Lam)


def act_L2_on_L2_left(phi1: Elt, l: L2Elt) -> L2Elt:
    """Middle action of an off-diagonal end datum on a degree -1 element:
    the left action phi1.l, of C's product, phi1 applied first (the
    module's order convention)."""
    y1phi1 = phi1.y(1)
    f_new = join(y1phi1, l.f, 1) + join(phi1, l.fp, 1)
    rho1 = join(phi1.eta(1).tau(1), l.fp, 1) + join(y1phi1, l.rho1, 1)
    return L2Elt(l.rep, l.weight, f=f_new, rho1=rho1)


def act_phi1_on_G2(g: GElt, phi1: Elt) -> GElt:
    """Middle action of an off-diagonal end datum on a degree +1 element:
    the right action g.phi1 of ``act_G1_on_G2``, g applied first (the
    module's order convention)."""
    return act_G1_on_G2(g, G(1)(g.rep, phi1.weight, last=phi1))


# ---------------------------------------------------------------------------
# dots, crossings and square-product expansions (EE direction)
# ---------------------------------------------------------------------------

def tilde_x_step_21(g: GElt) -> GElt:
    """One dot application on the end-type one-step corner."""
    y = Poly.var(g.rep.A.field, "y")
    return G(1)(g.rep, g.weight, g.d0.scale(y), g.d0.eta(0) + g.last.x(1))


def tilde_x_step_22(g: GElt) -> GElt:
    """One dot application on the degree +1 corner."""
    y = Poly.var(g.rep.A.field, "y")
    return G(2)(g.rep, g.weight, g.q1.x(1) - g.d0, g.d0.scale(y),
                g.q1.eta(0) + g.last.x(2))


def tau21(g: GElt) -> GElt:
    """The crossing on the degree +1 corner."""
    return G(2)(g.rep, g.weight, d0=g.q1, last=g.last.tau(1))


def gamma21_EE_G1E(c1: GElt, e: Elt) -> GElt:
    """Pair of an end-type and a one-step element, degree +1 corner."""
    return G(2)(c1.rep, e.weight, elem_tensor(c1.d0, e),
                elem_tensor(c1.d0, e.y(1)), elem_tensor(c1.last, e))


def gamma22_EE_G1EE(c1: GElt, ee: Elt) -> GElt:
    z = zero_elt(c1.rep, "EE", ee.weight)
    return G(3)(c1.rep, ee.weight,
                *G(3).free([elem_tensor(c1.d0, ee.y(1).y(2)), z, z]),
                elem_tensor(c1.last, ee))


def gamma22_EE_G2G2(p: GElt, q: GElt) -> GElt:
    """Pair of two degree +1 elements in the square corner."""
    pd1, qd1 = p.d(1), q.d(1)
    t_bb = elem_tensor(p.d0, q.d0)
    inner = t_bb - elem_tensor(p.d0, q.q1).y(1)
    d0 = t_bb + inner.tau(1).y(2) + join(p.d0, q.last, 1).y(2).y(1)
    d1 = t_bb - elem_tensor(p.q1, q.d0).y(2)
    d2 = elem_tensor(pd1, qd1)
    last = (join(pd1.eta(0).tau(1), q.last, 1)
            + elem_tensor(p.last, qd1).tau(1) + elem_tensor(p.last, q.q1))
    return G(3)(p.rep, q.weight, *G(3).free([d0, d1, d2]), last)


def tau22(h: GElt) -> GElt:
    """The crossing on the square corner: data (d_0, d_1, d_2) go to
    (q_1, q_1, d_2 . tau(1)), or NotInModelError outside G(3)."""
    return G(3)(h.rep, h.weight, *G(3).free([h.q1, h.q1, h.d(2).tau(1)]),
                h.last.tau(2))


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
