"""The middle-linearity check of the mixed component omega3.

``reference_check`` is the per-sample loop: it runs the whole element
calculus on random (g, phi, l) with coordinates in k[y].  The shipped
``check_omega3_linearity`` draws nothing: it evaluates the defect on every
basis triple at every weight.  The defect is k[y]-trilinear, so the shipped
check must give the reference's status on every seed and field, on the
intact product and under faults in the omega3 block matrix and in the two
middle actions.  The faults are injected through the module attributes both
checks read, so one mutant reaches both.
"""

import json
import random
from pathlib import Path

import pytest

from sl2prod.bimodcat import record
from sl2prod.polyring import QQ, Poly, make_field
from sl2prod.product import gammas, oracles
from sl2prod.product.core import build_product
from sl2prod.product.oracles import check_omega3_linearity
from sl2prod.product.elements import Elt
from sl2prod.product.models import G, L2Elt
from sl2prod.tworep import make_L1, rep_from_json

FIELDS = {"QQ": QQ, "GF7": make_field("7")}
N = 200


def reference_check(P, n=N, seed=0):
    """Middle linearity checked sample by sample."""
    rng = random.Random(seed)
    r = P.Vy
    y = Poly.var(r.A.field, "y")

    def rand(word, w):
        vec = []
        for _ in range(r.word(word).rank(w)):
            p = Poly.zero(r.A.field)
            for k in range(2):
                c = rng.randint(-2, 2)
                if c:
                    p = p + (y ** k) * c
            vec.append(p)
        return Elt(r, word, w, vec)

    weights = [w for w in P.weights()]
    bad = 0
    for t in range(n):
        w = weights[rng.randrange(len(weights))]
        g = G(2)(r, w - 2, *(rand(word, w - 2) for word in G(2).words()))
        l = L2Elt(r, w, *(rand(word, w) for word in L2Elt.words()))
        phi = rand("FE", w - 2)
        lhs = gammas.omega3_apply(P, oracles.act_phi1_on_G2(g, phi), l)
        rhs = gammas.omega3_apply(
            P, g, oracles.act_L2_on_L2_left(phi, l))
        if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
            bad += 1
    return [record(f"omega3 middle linearity ({n} samples)", bad == 0,
                   f"{bad} failures" if bad else f"seed {seed}")]


def outcome(records):
    [rec] = records
    return rec["status"], rec.get("witness")


def status(records):
    return outcome(records)[0]


def product(field):
    return build_product(make_L1(FIELDS[field]))


@pytest.fixture(scope="module")
def products():
    return {name: product(name) for name in FIELDS}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(10))
def test_matches_reference(products, field, seed):
    P = products[field]
    assert (status(check_omega3_linearity(P))
            == status(reference_check(P, n=N, seed=seed)))


# ---------------------------------------------------------------------------
# fault sweep

OMEGA3_ENTRIES = [(0, 0), (0, 3), (1, 0), (1, 5), (2, 1), (2, 3), (2, 6),
                  (2, 7), (3, 4), (3, 5), (3, 6), (3, 8)]
# reference failures out of 200 at seed 0; every other mutant survives.
# The shipped check fails each of them on its first basis triple.
KILLED = {"zero (0, 0)": 93, "zero (0, 3)": 93, "f doubled": 97,
          "a += y b": 93}
FIRST_BAD_TRIPLE = "weight 1, triple (1, 0, 0)"


def zero_entry(key):
    def install(monkeypatch):
        real = gammas.direct_sum_maps

        def spy(dom, cod, entries):
            assert key in entries
            return real(dom, cod,
                        {k: f for k, f in entries.items() if k != key})
        monkeypatch.setattr(gammas, "direct_sum_maps", spy)
    return install


def double_f(monkeypatch):
    real = oracles.act_L2_on_L2_left

    def mutant(phi1, l):
        out = real(phi1, l)
        return L2Elt(out.rep, out.weight, out.fp, out.f + out.f, out.rho1)
    monkeypatch.setattr(oracles, "act_L2_on_L2_left", mutant)


def shift_q1_by_y_d0(monkeypatch):
    real = oracles.act_phi1_on_G2

    def mutant(g, phi1):
        out = real(g, phi1)
        y = Poly.var(out.rep.A.field, "y")
        return G(2)(out.rep, out.weight, out.q1 + out.d0.scale(y), out.d0,
                    out.last)
    monkeypatch.setattr(oracles, "act_phi1_on_G2", mutant)


# "a += y b" is q1 += y d0, labelled by G(2)'s coordinates before they were
# named q1, d0 and last
MUTANTS = {**{f"zero {key}": zero_entry(key) for key in OMEGA3_ENTRIES},
           "f doubled": double_f, "a += y b": shift_q1_by_y_d0}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_outcomes_match_reference(monkeypatch, field, mutant):
    MUTANTS[mutant](monkeypatch)
    P = product(field)  # omega3_map is memoized per product
    bad = KILLED.get(mutant)
    assert outcome(reference_check(P, n=N, seed=0)) == (
        ("fail", f"{bad} failures") if bad else ("pass", "seed 0"))
    assert outcome(check_omega3_linearity(P)) == (
        ("fail", FIRST_BAD_TRIPLE) if bad else ("pass", "4 basis triples"))


E2_TAU0 = Path(__file__).parent / "golden" / "e2_tau0.json"
# on this input with E^2 != 0 the check also sees the entries (2, 6), (2, 7)
KILLED_E2 = {"zero (0, 0)", "zero (0, 3)", "zero (2, 6)", "zero (2, 7)",
             "f doubled", "a += y b"}


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_outcomes_match_reference_with_e2_nonzero(monkeypatch, mutant):
    if mutant:
        MUTANTS[mutant](monkeypatch)
    V = rep_from_json(json.loads(E2_TAU0.read_text()), QQ)
    P = build_product(V)
    want = status(reference_check(P, n=50, seed=0))
    assert want == ("fail" if mutant in KILLED_E2 else "pass")
    assert status(check_omega3_linearity(P)) == want
