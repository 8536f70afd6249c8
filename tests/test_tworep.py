"""Structural checks on weighted representations and the commutator map."""

from sl2prod.bimodcat import certify_iso
from sl2prod.polyring import make_field
from sl2prod.tworep import (check_hecke, check_hypotheses, make_L1,
                            rep_from_json, rep_to_json, rho, sigma)


def all_pass(records):
    return [r for r in records if r["status"] != "pass"]


class TestL1:
    def test_hecke_relations(self, V):
        assert all_pass(check_hecke(V)) == []

    def test_hypotheses_window(self, V):
        assert all_pass(check_hypotheses(V, window=(-4, 4))) == []

    def test_rho_iso_every_weight(self, V):
        for lam in range(-4, 5):
            cert = certify_iso(rho(V, lam), f"rho_{lam} iso")
            assert cert["status"] == "pass", cert

    def test_counit_unit_triangle(self, V):
        # both zig-zag composites are identities, so sigma is a genuine
        # single-crossing commutator map
        s = sigma(V)
        assert s.is_welldefined() is None
        # on L(1) the only nonzero weight of EF is 1, where sigma vanishes
        # (FE has rank 0 there) and the evaluation pairing is an iso
        assert s.matrix(1).is_zero()

    def test_prime_field_build(self):
        rep = make_L1(field=make_field("7"))
        assert all_pass(check_hecke(rep)) == []
        for lam in range(-2, 3):
            assert certify_iso(rho(rep, lam), "")["status"] == "pass"


class TestSerialization:
    def test_round_trip(self, V):
        data = rep_to_json(V)
        back = rep_from_json(data, V.A.field)
        assert rep_to_json(back) == data
        assert all_pass(check_hecke(back)) == []

    def test_round_trip_preserves_ranks(self, V):
        back = rep_from_json(rep_to_json(V), V.A.field)
        for lam in (-1, 1):
            assert back.E.rank(lam) == V.E.rank(lam)


def corrupted_rep():
    """A three-weight representation with tau forced to zero on a rank-one
    EE component, which breaks the dot-sliding relation."""
    data = {
        "weights": {"-2": ["u"], "0": ["u"], "2": ["u"]},
        "E": {
            "-2": {"basis": ["e"], "left": {"u": [["u"]]}},
            "0": {"basis": ["e"], "left": {"u": [["u"]]}},
        },
        "x": {"-2": [["u"]], "0": [["u"]]},
        "tau": {"-2": [["0"]]},
    }
    return rep_from_json(data, make_field("QQ"))


class TestFaultInjection:
    def test_corrupted_rep_fails_hecke(self):
        rep = corrupted_rep()
        bad = all_pass(check_hecke(rep))
        assert bad, "corrupted representation must be rejected"
        assert any("tau" in r["check"] for r in bad)

    def test_corrupted_failure_names_relation(self):
        bad = all_pass(check_hecke(corrupted_rep()))
        assert {r["check"] for r in bad} == {
            "tau.(Ex) = (xE).tau + 1", "(Ex).tau = tau.(xE) + 1"}
