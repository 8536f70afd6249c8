"""The assembled commutator maps and their two isomorphism certificates."""

from collections import Counter

import pytest

from sl2prod.bimodcat import BimoduleMap, certify_iso
from sl2prod.cli import suite_check_rho
from sl2prod.matrixops import Matrix
from sl2prod.polyring import QQ, Poly, parse_poly
from sl2prod.product import rho as rho_mod
from sl2prod.product.oracles import tilde_sigma_oracle
from sl2prod.product.rho import tilde_rho, triangular_certificate

CORNERS = ("11", "21", "12", "22")
WINDOW = range(-4, 5)


def rho_mats(P, lam):
    """The matrices of the four corners at ``lam``, keyed by (corner,
    weight), as the check-rho suite certifies them."""
    return {(c, w): m for c, f in tilde_rho(P, lam).items()
            for w, m in f.mats.items()}


class TestWellDefined:
    @pytest.mark.parametrize("lam", WINDOW)
    def test_welldefined(self, P, lam):
        rec = suite_check_rho(P, (lam, lam))[0]
        assert rec["check"] == f"commutator map well defined, weight {lam}"
        assert rec["status"] == "pass" and "witness" not in rec

    @pytest.mark.parametrize("lam", WINDOW)
    def test_corner_maps_welldefined(self, P, lam):
        f = tilde_rho(P, lam)
        for c in CORNERS:
            assert f[c].is_welldefined() is None, (lam, c)


class TestDeterminantCertificate:
    @pytest.mark.parametrize("lam", WINDOW)
    def test_iso(self, P, lam):
        cert = certify_iso(rho_mats(P, lam), f"weight {lam}")
        assert cert["status"] == "pass", cert

    def test_dets_are_units(self, P):
        for lam in WINDOW:
            for det in certify_iso(rho_mats(P, lam), "")["dets"].values():
                p = parse_poly(det, QQ)
                assert p.is_constant()
                assert not p.is_zero()

    def test_nonempty_somewhere(self, P):
        # the certificates are not vacuous: some weights carry actual matrices
        nonempty = [lam for lam in WINDOW
                    if certify_iso(rho_mats(P, lam), "")["dets"]]
        assert nonempty


class TestTriangularCertificate:
    @pytest.mark.parametrize("lam", WINDOW)
    def test_passes(self, P, lam):
        out = triangular_certificate(P, lam)
        assert out["status"] == "pass"
        assert out["check"] == (
            f"commutator map triangular certificate, weight {lam}")
        assert "witness" not in out

    def test_covers_all_corners(self, P):
        out = triangular_certificate(P, 0)
        assert set(out["corners"]) == set(CORNERS)
        for c in CORNERS:
            assert set(out["corners"][c]) == {"diag", "base"}

    def test_evidence_on_weight_two(self, P):
        # the diagonal determinants of the two nonempty corners, and rho_1,
        # which corner 22 factors through
        corners = triangular_certificate(P, 2)["corners"]
        assert corners == {
            "11": {"diag": [], "base": {}}, "21": {"diag": [], "base": {}},
            "12": {"diag": ["1", "1"], "base": {}},
            "22": {"diag": ["1", "1", "1", "-1", "1"], "base": {1: "1"}}}


class TestAgreement:
    def test_weight_zero_corners_match_the_oracle(self, P):
        # at weight 0 each corner is its commutator block alone; compare it
        # with the block's independent, elementwise construction
        f0 = tilde_rho(P, 0)
        compared = 0
        for c in CORNERS:
            oracle = tilde_sigma_oracle(P, c)
            for mu, m in f0[c].mats.items():
                assert m == oracle.matrix(mu), (c, mu)
                compared += m.nrows * m.ncols
        assert compared

    def test_mats_keys_are_corner_weight_pairs(self, P):
        # the corners come in report order; the determinant certificate
        # names each matrix by its corner and its internal weight, in
        # sorted order
        assert list(tilde_rho(P, 0)) == list(CORNERS)
        dets = certify_iso(rho_mats(P, 0), "")["dets"]
        assert list(dets) == [("11", 1), ("12", -1), ("21", 1), ("22", -1)]


class TestCertificateFaults:
    """Each mutant adds 1 or y to one entry of one corner matrix at its
    internal weight; the triangular certificate must catch some mutant of
    every non-empty corner, and the split of outcomes pins its check
    order."""

    def test_single_entry_mutants(self, P, monkeypatch):
        real = rho_mod._corner_rho
        y = Poly.var(P.Vy.A.field, "y")
        mutants = []
        for lam in WINDOW:
            for c in CORNERS:
                for mu, m in real(P, c, lam).mats.items():
                    mutants += [(lam, c, mu, i, j, d)
                                for i in range(m.nrows)
                                for j in range(m.ncols)
                                for d in (Poly.one(y.field), y)]
        outcomes = Counter()
        caught = set()
        for lam, c, mu, i, j, d in mutants:
            def mutated(P_, corner, lam_, c=c, lam=lam, mu=mu, i=i, j=j,
                        d=d):
                f = real(P_, corner, lam_)
                if (corner, lam_) != (c, lam):
                    return f
                m = f.matrix(mu)
                rows = [list(row) for row in m.entries]
                rows[i][j] = rows[i][j] + d
                return BimoduleMap(f.dom, f.cod,
                                   {mu: Matrix(m.field, m.nrows, m.ncols,
                                               rows)})
            monkeypatch.setattr(rho_mod, "_corner_rho", mutated)
            out = triangular_certificate(P, lam)
            outcomes[failure_kind(out)] += 1
            if out["status"] != "pass":
                caught.add((c, lam))
            monkeypatch.setattr(rho_mod, "_corner_rho", real)
        assert len(mutants) == 66
        assert caught == {(c, lam) for lam, c, *_ in mutants}
        assert outcomes == {"not triangular": 30,
                            "diagonal not iso": 14, "pass": 22}

    @pytest.mark.parametrize("corner, lam, entry, witness", [
        # base before shape: rho_mu is certified before any block
        ("11", -2, (1, 0, "1"), "corner 11, weight -2: one-step commutator "
         "at internal weight -1 is not iso: (-1, 'determinant y is not a "
         "unit')"),
        # the groups before base: rho_mu is certified after every group
        ("22", 2, (0, 0, "y"), "corner 22, weight 2: diagonal block 2 has "
         "determinant y + 1"),
    ])
    def test_double_fault_order(self, P, monkeypatch, corner, lam, entry,
                                witness):
        # rho_mu scaled by y is no iso, and the corner entry alone breaks
        # the corner's shape (11) or a group (22): the check order picks
        # which of the two faults the witness names
        real_corner, real_rho = rho_mod._corner_rho, rho_mod.rho
        y = Poly.var(P.Vy.A.field, "y")
        i, j, d = entry

        def mutated(P_, c, lam_):
            f = real_corner(P_, c, lam_)
            if (c, lam_) != (corner, lam):
                return f
            (mu, m), = f.mats.items()
            rows = [list(row) for row in m.entries]
            rows[i][j] = rows[i][j] + parse_poly(d, QQ)
            return BimoduleMap(f.dom, f.cod,
                               {mu: Matrix(m.field, m.nrows, m.ncols, rows)})

        monkeypatch.setattr(rho_mod, "_corner_rho", mutated)
        monkeypatch.setattr(rho_mod, "rho",
                            lambda rep, mu: real_rho(rep, mu).scale(y))
        out = triangular_certificate(P, lam)
        assert out["status"] == "fail"
        assert out["witness"] == witness


def failure_kind(out):
    """Read a certificate record's verdict: a nonzero off-side block or a
    failed factorization is not triangular; a diagonal block that is not
    square, not a unit or not an iso is a diagonal failure."""
    if out["status"] == "pass":
        return "pass"
    w = out["witness"]
    if w.endswith("is nonzero") or "factorization" in w:
        return "not triangular"
    assert "diagonal block" in w or "is not iso" in w, w
    return "diagonal not iso"
