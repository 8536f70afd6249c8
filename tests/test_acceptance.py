"""Acceptance gate: the full verification pipeline on the rank-one input,
with wall-clock budgets where stated."""

import json
import time

from sl2prod.bimodcat import certify_iso
from sl2prod.cli import main, suite_check_rep, suite_check_rho, suite_identities
from sl2prod.polyring import QQ
from sl2prod.tworep import make_L1


def failures(records):
    return [r for r in records if r["status"] != "pass"]


def timed(fn, budget):
    t0 = time.monotonic()
    out = fn()
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    return out


def test_criterion_1_identity_suite():
    records = timed(lambda: suite_identities(QQ, i_max=8), 1)
    assert failures(records) == []
    names = " | ".join(r["check"] for r in records)
    assert "crossing" in names or "tau" in names
    assert "idempotent" in names


def test_criterion_2_input_rep():
    def go():
        rep = make_L1()
        return suite_check_rep(rep, (-4, 4))
    records = timed(go, 1)
    assert failures(records) == []


def test_criterion_3_product_hecke(P):
    from sl2prod.product.oracles import check_product_hecke
    records = timed(lambda: check_product_hecke(P), 1)
    assert failures(records) == []


def test_criterion_4_sigma_oracle_equivalence(P):
    from sl2prod.product.core import tilde_sigma_closed
    from sl2prod.product.oracles import tilde_sigma_oracle

    def go():
        return [tilde_sigma_closed(P, c) == tilde_sigma_oracle(P, c)
                for c in ("11", "21", "12", "22")]
    assert all(timed(go, 1))


def test_criterion_5_pairing_oracle_equivalence(P):
    from sl2prod.product.core import F_xi_eta_closed, eps_xi_F_closed
    from sl2prod.product.oracles import F_xi_eta_oracle, eps_xi_F_oracle

    def go():
        out = []
        for c in ("11", "21", "12", "22"):
            for i in range(5):
                out.append(eps_xi_F_closed(P, i, c) == eps_xi_F_oracle(P, i, c))
                out.append(F_xi_eta_closed(P, i, c) == F_xi_eta_oracle(P, i, c))
        return out
    assert all(timed(go, 1))


def test_criterion_6_unit_element(P):
    from sl2prod.product.oracles import check_eta22_identity
    assert failures(check_eta22_identity(P)) == []


def test_criterion_7_omega3_middle_linearity(P):
    from sl2prod.product.oracles import check_omega3_linearity
    records = timed(lambda: check_omega3_linearity(P), 1)
    assert failures(records) == []


def test_criterion_8_commutator_iso_certificates(P):
    from sl2prod.product.rho import tilde_rho, triangular_certificate

    def go():
        records = suite_check_rho(P, (-4, 4))
        for lam in range(-4, 5):
            mats = {(c, w): m for c, f in tilde_rho(P, lam).items()
                    for w, m in f.mats.items()}
            assert certify_iso(mats, "")["status"] == "pass", lam
            assert triangular_certificate(P, lam)["status"] == "pass", lam
        return records
    records = timed(go, 1)
    assert failures(records) == []


def test_criterion_9_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-all", "--seed", "0", "--out", str(a)]) == 0
    assert main(["verify-all", "--seed", "0", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert all(c["status"] == "pass" for c in report["checks"])
