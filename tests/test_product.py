"""The product construction: corner modules, generators, closed forms."""

import json
from pathlib import Path

import pytest

from sl2prod.bimodcat import compose
from sl2prod.product import core, oracles
from sl2prod.product.core import (F_xi_eta_closed, build_product,
                                  check_construction, eps_xi_F_closed, tau21,
                                  tilde_sigma_closed, tilde_x_pow)
from sl2prod.product.elements import NotInModelError, apply_map, basis_elt
from sl2prod.product.models import G, gamma21_EE_G1E, one_G1
from sl2prod.product.oracles import (F_xi_eta_oracle, check_eta22_identity,
                                     check_omega3_linearity,
                                     check_product_hecke, closed_vs_oracle,
                                     eps_xi_F_oracle, tilde_sigma_oracle)
from sl2prod.tworep import make_L1, rep_from_json

GOLDEN = Path(__file__).parent / "golden"
CORNERS = ("11", "21", "12", "22")


def all_pass(records):
    return [r for r in records if r["status"] != "pass"]


class TestBuild:
    def test_corner_ranks(self, P):
        # the corner modules carry the ranks forced by the summand words
        r = P.Vy
        for w in P.weights():
            assert P.S["11"].rank(w) == r.word("").rank(w) + r.word("FE").rank(w)
            assert P.S["22"].rank(w) == 4 * r.word("FE").rank(w) + \
                r.word("FFEE").rank(w)

    def test_rejects_broken_input(self):
        from test_tworep import corrupted_rep
        assert check_construction(build_product(corrupted_rep())) == {
            "check": "construction checks (end algebra, actions)",
            "status": "fail",
            "witness": "input hypotheses fail: rho_-2 iso; rho_0 iso; "
                       "rho_2 iso"}

    @staticmethod
    def gate_witness(V):
        record = check_construction(build_product(V))
        assert record["status"] == "fail"
        return record["witness"]

    def test_given_F_off_its_dual_fails_the_gate(self):
        # L(1) with u acting on the given F as u + 1: F, eta and eps are no
        # adjunction, and the end algebra's (22)(22) product leaves G(1)
        from test_rep_fuzz import l1_with
        V = rep_from_json(l1_with((("F", "1", "left", "u"), [["u + 1"]])))
        assert self.gate_witness(V) == (
            "end algebra product leaves G(1): membership division leaves a "
            "remainder")

    def test_broken_end_algebra_fails_associativity(self, V, monkeypatch):
        # doubling the (11)(12) product breaks ((11)(11))(12) = (11)((11)(12))
        mult = core.c_mult

        def doubled(P, ca, a, cb, b):
            k, out = mult(P, ca, a, cb, b)
            return k, out + out if (ca, cb) == ("11", "12") else out
        monkeypatch.setattr(core, "c_mult", doubled)
        assert self.gate_witness(V) == (
            "end algebra associativity fails at weight 0: (11)(11)(12)")

    def test_doubled_action_fails_unit(self, V, monkeypatch):
        act = core.act_G1_on_G2
        monkeypatch.setattr(core, "act_G1_on_G2",
                            lambda g, c: act(g, c) + act(g, c))
        assert self.gate_witness(V) == (
            "unit action fails on degree +1 corner at weight 0")

    def test_unital_non_multiplicative_action_fails_compatibility(
            self, V, monkeypatch):
        # the unit still acts as the identity, every other element twice
        act = core.act_G1_on_G2

        def doubled_off_unit(g, c):
            out = act(g, c)
            return out if c == one_G1(c.rep, c.weight) else out + out
        monkeypatch.setattr(core, "act_G1_on_G2", doubled_off_unit)
        assert self.gate_witness(V) == (
            "action compatibility fails at weight 0")


class TestHecke:
    def test_product_hecke_all_corners(self, P):
        assert all_pass(check_product_hecke(P)) == []

    def test_nonzero_constrained_corner_fails_dot_relations(self):
        # E^2 != 0 spans corner 22, whose dot relations are not implemented:
        # a record that fails, not an exception
        data = json.loads((GOLDEN / "e2_tau0.json").read_text())
        records = check_product_hecke(build_product(rep_from_json(data)))
        assert records[-1] == {
            "check": "hecke[22]: dot relations", "status": "fail",
            "witness": "nonzero corner: dot relations not implemented"}

    def test_corner_21_slides_read_its_x_in(self, monkeypatch):
        # a dot step that does nothing makes corner 21's x_in the identity:
        # both of its dot slides fail, and tau^2 = 0, which reads no dot,
        # still passes
        monkeypatch.setattr(oracles, "tilde_x_step_21", lambda P, g: g)
        records = check_product_hecke(build_product(make_L1()))
        assert [(r["check"], r["status"]) for r in records[6:9]] == [
            ("hecke[21]: tau^2 = 0", "pass"),
            ("hecke[21]: tau xin = xout tau + 1", "fail"),
            ("hecke[21]: xin tau = tau xout + 1", "fail")]

    def test_failing_tau_squared_keeps_every_record(self, monkeypatch):
        # a crossing that squares to the identity fails tau^2 = 0 on corner
        # 22; the dot-relations record is still decided and reported
        monkeypatch.setattr(oracles, "tau22", lambda v: v)
        data = json.loads((GOLDEN / "e2_tau0.json").read_text())
        records = check_product_hecke(build_product(rep_from_json(data)))
        assert len(records) == 11
        assert records[-2:] == [
            {"check": "hecke[22]: tau^2 = 0", "status": "fail",
             "witness": "weight -2"},
            {"check": "hecke[22]: dot relations", "status": "fail",
             "witness": "nonzero corner: dot relations not implemented"}]


class TestClosedForms:
    @pytest.mark.parametrize("corner", CORNERS)
    def test_sigma_closed_equals_oracle(self, P, corner):
        assert tilde_sigma_closed(P, corner) == tilde_sigma_oracle(P, corner)

    @pytest.mark.parametrize("corner", CORNERS)
    @pytest.mark.parametrize("i", range(5))
    def test_eps_xi_F_closed_equals_oracle(self, P, corner, i):
        assert eps_xi_F_closed(P, i, corner) == eps_xi_F_oracle(P, i, corner)

    @pytest.mark.parametrize("corner", CORNERS)
    @pytest.mark.parametrize("i", range(5))
    def test_F_xi_eta_closed_equals_oracle(self, P, corner, i):
        assert F_xi_eta_closed(P, i, corner) == F_xi_eta_oracle(P, i, corner)

    @pytest.mark.parametrize("corner, rule, witness", [
        ("11", ("12", "21"), "weights [1]"),
        ("12", ("12", "22"), "weights [-1]"),
        ("21", ("22", "21"), "weights [1]"),
        ("22", ("22", "22"), "weights [-1, 1]")],
        ids=["11", "12", "21", "22"])
    @pytest.mark.parametrize("i", range(3))
    def test_wrong_c_rule_fails_eps_record(self, P, monkeypatch, corner,
                                           rule, witness, i):
        # the evaluation oracle multiplies in C, so a rule of c_mult that
        # doubles its product fails the closed = oracle record it feeds
        def check():
            return closed_vs_oracle("eps", eps_xi_F_closed, eps_xi_F_oracle,
                                    P, i, corner)
        assert check()["status"] == "pass"
        mult = oracles.c_mult

        def doubled(P, ca, a, cb, b):
            k, out = mult(P, ca, a, cb, b)
            return k, out + out if (ca, cb) == rule else out
        monkeypatch.setattr(oracles, "c_mult", doubled)
        assert check() == {"check": "eps", "status": "fail",
                           "witness": witness}

    @pytest.mark.parametrize("name, failing", [
        ("gamma21_EE_G1E", {"11", "12"}),
        ("compose_U", {"21", "22"}),
        ("compose_L2_after_G2", {"11"}),
        ("act_G1_on_G2", {"12", "21", "22"}),
        ("compose_L2_after_U", {"21"}),
        ("act_G1_on_U", {"22"})])
    def test_doubled_factor_fails_crossing_records(self, P, monkeypatch,
                                                   name, failing):
        # the crossing oracle crosses the left factor and lets the right
        # factor act, so doubling one step fails exactly the corners that
        # read it
        def statuses():
            return {c: closed_vs_oracle("sigma", tilde_sigma_closed,
                                        tilde_sigma_oracle, P, c)["status"]
                    for c in CORNERS}
        assert set(statuses().values()) == {"pass"}
        f = getattr(oracles, name)

        def doubled(*args):
            out = f(*args)
            return out + out
        monkeypatch.setattr(oracles, name, doubled)
        assert {c for c, s in statuses().items() if s == "fail"} == failing

    def test_false_sigma22_claim_raises(self, monkeypatch):
        # with tau22 the identity, the crossed image of corner 22's mixed
        # pair 4 at weight 0 is nonzero, yet its decomposable presentation
        # is empty
        monkeypatch.setattr(oracles, "tau22", lambda v: v)
        data = json.loads((GOLDEN / "e2_tau0.json").read_text())
        P = build_product(rep_from_json(data))
        g2, l2 = oracles.pair_basis(P, "22", 0)[4]
        with pytest.raises(oracles.OracleClaimError) as info:
            oracles._sigma22_EF_column(P, g2, l2)
        assert str(info.value) == (
            "empty decomposition of a nonzero crossed image")

    @pytest.mark.parametrize("error", [NotInModelError,
                                       oracles.OracleClaimError])
    def test_column_failure_names_its_column(self, P, error):
        # on L(1) corner 11's first column lies at weight 1
        def col(w, j):
            raise error("why")
        with pytest.raises(error) as info:
            oracles._columnwise(P, P.T["11"], P.S["11"], col)
        assert str(info.value) == "weight 1, column 0: why"

    def test_x_power_consistency(self, P):
        one = tilde_x_pow(P, 1)
        acc = tilde_x_pow(P, 0)
        for i in range(4):
            acc = compose(one, acc)
            assert acc == tilde_x_pow(P, i + 1)


class TestExamples:
    def test_tau21_crossing_example(self, P):
        # (e, y_1 e, 0) crosses to (0, e, 0)
        r = P.Vy
        w = -1
        e = basis_elt(r, "E", w, 0)
        y1e = apply_map(r.y_at("E", 1), e, "E")
        g = G(2)(r, w, e, y1e)
        t = tau21(P, g)
        assert t.q1.is_zero()
        assert (t.d0 - e).is_zero()
        assert t.last.is_zero()

    def test_gamma21_unit_example(self, P):
        # 1 (x) e maps to (e, y_1 e, 0)
        r = P.Vy
        e = basis_elt(r, "E", -1, 0)
        g = gamma21_EE_G1E(one_G1(r, 1), e)
        y1e = apply_map(r.y_at("E", 1), e, "E")
        assert (g.q1 - e).is_zero()
        assert (g.d0 - y1e).is_zero()
        assert g.last.is_zero()


class TestUnits:
    def test_eta22_composite(self, P):
        assert all_pass(check_eta22_identity(P)) == []

    def test_omega3_middle_linearity(self, P):
        assert all_pass(check_omega3_linearity(P)) == []
