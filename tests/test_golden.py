"""Golden reports: refactors must leave the verifier's output byte-identical.

The reports under ``tests/golden/`` were written by ``verifycli`` before
the refactors that had to keep them: the first four before the change to
one polynomial layout, and ``check_rho_wide.json`` and
``build_product_gf7.json`` before the EF corner sums became tensors of the
end-algebra corner bases, and ``verify_all_l1_renamed.json`` and
``verify_all_e2_tau0.json`` before the crossing oracle became one column
rule.  ``check_rho_l2.json`` was written before the coevaluation oracle
became one column rule.  It is the one report of a product on L(2), whose
corner 22 is non-empty at lambda < 0 and whose E has rank 2 at weight -2,
so a refactor of ``product/`` is checked beyond L(1).  With ``verify_all_seed0.json`` they pin the
reports of the three benchmark workloads (``verify-default``, ``rho-wide``
and ``pairings-gf7``, whose ``--seed`` is ignored).  Regenerate them only
for a change that is meant to alter a report, and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from sl2prod.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # (golden report, arguments, exit code)
    ("verify_all_seed0.json", ["verify-all", "--seed", "0"], 0),
    ("verify_all_gf7.txt", ["verify-all", "--field", "7", "--report", "text"],
     0),
    # L(1) with the dot doubled (x = 2*u): a failing rep, read relative to
    # the golden directory so the report records a stable path
    ("verify_all_x2u.json", ["verify-all", "--rep", "l1_x2u.json"], 1),
    # three weights with E^2 != 0 and tau = 0: 8 of the 53 records fail,
    # with the witnesses of both certification routes
    ("check_rho_e2_tau0.json",
     ["check-rho", "--rep", "e2_tau0.json", "--weights=-6..6"], 1),
    # the rho-wide and pairings-gf7 benchmark workloads
    ("check_rho_wide.json",
     ["check-rho", "--weights=-40..40", "--field", "QQ"], 0),
    ("build_product_gf7.json",
     ["build-product", "--field", "7", "--i-max", "16"], 0),
    # L(1) with renamed generators: the only committed input whose oracles
    # take Horner steps
    ("verify_all_l1_renamed.json", ["verify-all", "--rep", "l1_renamed.json"],
     0),
    # E^2 != 0 with tau = 0: the construction gate fails, so the product
    # suites record that and stop
    ("verify_all_e2_tau0.json", ["verify-all", "--rep", "e2_tau0.json"], 1),
    # L(2): check-rho skips the construction gate that l2.json fails, so
    # this is the committed report of the product on an input with data at
    # lambda < 0 and a rank-2 weight space
    ("check_rho_l2.json",
     ["check-rho", "--rep", "l2.json", "--weights=-6..6"], 0),
]


@pytest.mark.parametrize("golden, args, code", CASES,
                         ids=[c[0] for c in CASES])
def test_report_matches_golden(golden, args, code, tmp_path, monkeypatch,
                               capsys):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / golden
    assert main([*args, "--out", str(out)]) == code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
