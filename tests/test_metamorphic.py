"""Metamorphic relations: runs that differ only in the field, the weight
window, the order of the suites or the names of the ring generators must
agree record by record.

Each relation is computed as the list of records on which two runs
disagree; the tests require it to be empty on the built-in L(1) and on the
two golden inputs.  Every relation has a negative control, an input or an
injected fault on which the same list is not empty, so an empty list shows
the comparison ran.
"""

import json
from pathlib import Path

import pytest

from sl2prod import cli, tworep
from sl2prod.cli import main
from sl2prod.polyring import Poly

GOLDEN = Path(__file__).parent / "golden"
REPS = {
    "L1": "L1",
    "e2_tau0": str(GOLDEN / "e2_tau0.json"),
    "l1_x2u": str(GOLDEN / "l1_x2u.json"),
}
PRIMES = ["3", "7", "10007"]


def run(tmp_path, *argv):
    """The check records of one in-process run."""
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) in (0, 1)
    return json.loads(out.read_text())["checks"]


def by_anchor(records):
    """Records keyed by (suite, anchor); ids shift with the window."""
    out = {(r["id"].split(".")[0], r["anchor"]): r for r in records}
    assert len(out) == len(records)
    return out


def disagreements(left, right, fields, common=False):
    """The (suite, anchor) keys whose records differ in ``fields``, or that
    only one run has (unless ``common``: then only shared keys count)."""
    a, b = by_anchor(left), by_anchor(right)
    keys = a.keys() & b.keys() if common else a.keys() | b.keys()
    return sorted(k for k in keys if k not in a or k not in b
                  or any(a[k].get(f) != b[k].get(f) for f in fields))


def field_disagreements(tmp_path, rep, primes):
    """Records whose status under GF(p) differs from that under QQ.
    Witnesses print determinants in the field, so only statuses compare."""
    qq = run(tmp_path, "verify-all", "--rep", rep)
    return {p: disagreements(qq, run(tmp_path, "verify-all", "--rep", rep,
                                     "--field", p), ["status"])
            for p in primes}


def window_disagreements(tmp_path, rep):
    """Records of check-rep and check-rho that differ between the windows
    -4..4 and -8..8, at every anchor both windows report, with the
    anchors of -4..4 that -8..8 does not report."""
    out, missing = [], []
    for command in ("check-rep", "check-rho"):
        narrow = run(tmp_path, command, "--rep", rep, "--weights=-4..4")
        wide = run(tmp_path, command, "--rep", rep, "--weights=-8..8")
        missing += sorted(by_anchor(narrow).keys() - by_anchor(wide).keys())
        out += disagreements(narrow, wide, ["status", "witness"], common=True)
    return out, missing


def suite_order_disagreements(tmp_path, rep):
    """verify-all's check-rep, build-product and check-rho records against
    the standalone commands, with the suites compared: the shared memo must
    not change a record.  When the product construction fails, verify-all
    skips check-rho with one record; build-product then shows whether the
    standalone construction fails too."""
    together = run(tmp_path, "verify-all", "--rep", rep)
    out, compared = [], []
    for command in ("check-rep", "build-product", "check-rho"):
        mine = [r for r in together if r["id"].startswith(command + ".")]
        if [r["anchor"] for r in mine] == ["commutator suite skipped"]:
            continue
        compared.append(command)
        out += disagreements(mine, run(tmp_path, command, "--rep", rep),
                             ["status", "witness"])
    return out, compared


@pytest.mark.parametrize("rep", sorted(REPS))
def test_field_reduction_keeps_statuses(tmp_path, rep):
    assert field_disagreements(tmp_path, REPS[rep], PRIMES) == {
        p: [] for p in PRIMES}


@pytest.mark.parametrize("rep", sorted(REPS))
def test_wider_window_keeps_common_records(tmp_path, rep):
    # every record of -4..4 is also a record of -8..8, and agrees there
    assert window_disagreements(tmp_path, REPS[rep]) == ([], [])


@pytest.mark.parametrize("rep, compared", [
    ("L1", ["check-rep", "build-product", "check-rho"]),
    # both golden inputs fail the construction hypotheses
    ("e2_tau0", ["check-rep", "build-product"]),
    ("l1_x2u", ["check-rep", "build-product"])])
def test_suite_order_keeps_records(tmp_path, rep, compared):
    assert suite_order_disagreements(tmp_path, REPS[rep]) == ([], compared)


@pytest.mark.parametrize("field", ["QQ", "7"])
def test_renamed_generator_keeps_statuses(tmp_path, field):
    # L(1) with the ring at 1 renamed to k[x1], where x1 acts on E as u:
    # the renamed generator takes Horner steps where u acts by scalars, and
    # the two runs agree record by record.  Witnesses may name the ring's
    # generators, so only statuses compare
    l1 = run(tmp_path, "verify-all", "--field", field)
    renamed = run(tmp_path, "verify-all", "--field", field,
                  "--rep", str(GOLDEN / "l1_renamed.json"))
    assert len(renamed) == 142
    assert disagreements(l1, renamed, ["status"]) == []


# ---------------------------------------------------------------------------
# negative controls


def test_field_reduction_sees_a_unit_that_vanishes_mod_p(tmp_path):
    # tau = 7 on E^2: sigma at weight 0 is 7, a unit over QQ and zero in
    # GF(7), so rho_0 is iso over QQ only
    data = json.loads((GOLDEN / "e2_tau0.json").read_text())
    data["tau"] = {"-2": [["7"]]}
    rep = tmp_path / "tau7.json"
    rep.write_text(json.dumps(data))
    found = field_disagreements(tmp_path, str(rep), ["7"])["7"]
    assert ("check-rep", "hypotheses: rho_0 iso") in found


def test_window_relation_sees_a_verdict_that_depends_on_position(
        tmp_path, monkeypatch):
    # a certificate that goes stale after nine uses: the rho isos of
    # check-rep then fail from the tenth weight of the window on, so on
    # -8..8 they fail at weights 1..8 and on -4..4 nowhere
    uses = []
    real = tworep.certify_iso

    def stale(f, name):
        uses.append(f)
        cert = real(f, name)
        if len(uses) > 9:
            cert["status"] = "fail"
        return cert

    monkeypatch.setattr(tworep, "certify_iso", stale)
    monkeypatch.setattr(cli, "_load_rep", reset_before(cli._load_rep, uses))
    out, _ = window_disagreements(tmp_path, "L1")
    assert [a for _, a in out] == [f"hypotheses: rho_{lam} iso"
                                   for lam in range(1, 5)]


def test_window_relation_sees_anchors_named_after_the_window(
        tmp_path, monkeypatch):
    # check-rep anchors that name the window, as the nilpotence bound once
    # did ("k <= 9" on -4..4, "k <= 17" on -8..8): none of the 34 records
    # of -4..4 is reported by -8..8
    real = cli.suite_check_rep

    def named(rep, window):
        return [dict(r, check=f"{r['check']} on {window}")
                for r in real(rep, window)]

    monkeypatch.setattr(cli, "suite_check_rep", named)
    out, missing = window_disagreements(tmp_path, "L1")
    assert out == []
    assert [s for s, _ in missing] == ["check-rep"] * 34


def test_suite_order_sees_a_consumer_that_corrupts_the_memo(
        tmp_path, monkeypatch):
    # a certificate that clears the matrices it has checked: check-rep's
    # records stand, but in verify-all the product's hypotheses then read
    # zeroed rho maps from the memo, fail, and skip check-rho
    real = tworep.certify_iso

    def destructive(mats, name):
        cert = real(mats, name)
        for m in mats.values():
            m.entries[:] = [[Poly.zero(m.field)] * m.ncols
                            for _ in range(m.nrows)]
        return cert

    monkeypatch.setattr(tworep, "certify_iso", destructive)
    found, compared = suite_order_disagreements(tmp_path, "L1")
    assert compared == ["check-rep", "build-product"]
    assert found and {suite for suite, _ in found} == {"build-product"}


def reset_before(fn, uses):
    """``fn`` with ``uses`` cleared on each call: one count per run."""
    def wrapper(*args, **kwargs):
        uses.clear()
        return fn(*args, **kwargs)
    return wrapper
