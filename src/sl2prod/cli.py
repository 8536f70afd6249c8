"""Command-line verification harness.

Subcommands select suites; every run emits a deterministic report (JSON by
default) listing one record per check.  With a fixed seed and without
``--timings``, the report bytes are identical across runs.
"""

import argparse
import json
import sys
import time

from . import __version__
from .polyring import Poly, QQ, divided_difference, h_complete, make_field
from .nilhecke import NilHeckeElt, divided_power_idempotents, normalize
from .bimodcat import certify_iso
from .tworep import (check_hecke, check_hypotheses, make_L1, record,
                     rep_from_json, HypothesesFailedError)
from .product import (build_product, check_eta22_identity,
                      check_omega3_linearity, check_product_hecke,
                      eps_xi_F_closed, eps_xi_F_oracle, F_xi_eta_closed,
                      F_xi_eta_oracle, tilde_rho, tilde_sigma_closed,
                      tilde_sigma_oracle, triangular_certificate,
                      NotTriangularError, DiagonalNotIsoError)
from .product.core import CORNERS


class ConfigError(ValueError):
    pass


class RepLoadError(ValueError):
    pass


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_identities(field=QQ, i_max: int = 8):
    """Symmetric-polynomial facts, the crossing-chain normal form, and the
    divided-power idempotent relations."""
    out = []
    x1 = Poly.var(field, "x1")
    x2 = Poly.var(field, "x2")
    y = Poly.var(field, "y")

    # divided-difference relations on sample polynomials
    samples = [x1, x2, x1 * x2, x1 ** 2, x1 ** 3 * x2,
               x1 ** 2 * x2 + x2 ** 2, (x1 + x2) ** 2]
    out.append(record("dd: d1.d1 = 0",
                      all(divided_difference(divided_difference(f, 1), 1)
                          .is_zero() for f in samples)))
    out.append(record("dd: d1(x1 f) - x2 d1(f) = f",
                      all(divided_difference(x1 * f, 1)
                          - x2 * divided_difference(f, 1) == f
                          for f in samples)))

    # Fact 1: x2^i d1(f) = d1(x1^i f) - h_{i-1}(x1, x2) f
    ok = True
    witness = None
    monomials = [x1 ** a * x2 ** b for a in range(7) for b in range(7)
                 if a + b <= 6]
    for i in range(i_max + 1):
        h = h_complete(i - 1, ["x1", "x2"], field)
        for f in monomials:
            lhs = x2 ** i * divided_difference(f, 1)
            rhs = divided_difference(x1 ** i * f, 1) - h * f
            if lhs != rhs:
                ok, witness = False, f"i={i}, f={f}"
                break
        if not ok:
            break
    out.append(record("fact: x2^i tau vs tau x1^i minus h_(i-1)(x1,x2)", ok,
                      witness))

    # Fact 2: x2^i - y^i = (x2 - y) h_{i-1}(x2, y)
    ok = all(x2 ** i - y ** i
             == (x2 - y) * h_complete(i - 1, ["x2", "y"], field)
             for i in range(i_max + 1))
    out.append(record("fact: x2^i - y^i = y_2 h_(i-1)(x2,y)", ok))

    # Fact 3: sum_{j+k=i-1} x1^j h_{k-1}(x2, y) = h_{i-2}(x1, x2, y)
    ok = True
    for i in range(i_max + 1):
        s = Poly.zero(field)
        for j in range(i):
            k = i - 1 - j
            s = s + x1 ** j * h_complete(k - 1, ["x2", "y"], field)
        if s != h_complete(i - 2, ["x1", "x2", "y"], field):
            ok = False
            break
    out.append(record("fact: sum x1^j h_(k-1)(x2,y) = h_(i-2)(x1,x2,y)", ok))

    # Fact 4: (x2 - y) h_{i-2}(x1, x2, y) = h_{i-1}(x1, x2) - h_{i-1}(x1, y)
    ok = all((x2 - y) * h_complete(i - 2, ["x1", "x2", "y"], field)
             == h_complete(i - 1, ["x1", "x2"], field)
             - h_complete(i - 1, ["x1", "y"], field)
             for i in range(i_max + 1))
    out.append(record("fact: y_2 h_(i-2)(x1,x2,y) = h_(i-1)(x1,x2) - h_(i-1)(x1,y)",
                      ok))

    # crossing chain: tau1 tau2 y_2 y_1 tau1 tau2 = y_3 tau2 tau1 tau2
    #                 + tau1 tau2
    chain = normalize(3, [("tau", 1), ("tau", 2), ("y_", 2), ("y_", 1),
                          ("tau", 1), ("tau", 2)], field)
    expected = (normalize(3, [("y_", 3), ("tau", 2), ("tau", 1), ("tau", 2)],
                          field)
                + normalize(3, [("tau", 1), ("tau", 2)], field))
    out.append(record("crossing chain normal form", chain == expected))

    # divided-power idempotents
    ep, em = divided_power_idempotents(2, field)
    one = NilHeckeElt.one(2, field)
    zero = NilHeckeElt.zero(2, field)
    out.append(record("idempotents: e+ + e- = 1", ep + em == one))
    out.append(record("idempotents: e+ e- = 0", ep * em == zero))
    out.append(record("idempotents: e- e+ = 0", em * ep == zero))
    out.append(record("idempotents: e+^2 = e+", ep * ep == ep))
    out.append(record("idempotents: e-^2 = e-", em * em == em))
    return out


def suite_check_rep(rep, window=(-4, 4)):
    """The nil affine Hecke relations, structural hypotheses, and one-step
    commutator isomorphisms of the input representation."""
    out = [dict(r, check="hecke: " + r["check"]) for r in check_hecke(rep)]
    out += [dict(r, check="hypotheses: " + r["check"])
            for r in check_hypotheses(rep, window=window)]
    return out


def suite_build_product(rep, i_max: int = 4, seed: int = 0):
    """Build the product, then verify the product Hecke relations, the
    closed-vs-oracle equalities, the unit composite, and middle-linearity."""
    out = []
    try:
        P = build_product(rep, check=True)
        out.append(record("construction checks (end algebra, actions)", True))
    except HypothesesFailedError as e:
        out.append(record("construction checks (end algebra, actions)", False, e))
        return None, out
    out += [dict(r, check="product hecke: " + r["check"])
            for r in check_product_hecke(P)]
    for corner in CORNERS:
        ok = tilde_sigma_closed(P, corner) == tilde_sigma_oracle(P, corner)
        out.append(record(f"crossing closed = oracle, corner {corner}", ok))
    for corner in CORNERS:
        for i in range(i_max + 1):
            ok = (eps_xi_F_closed(P, i, corner)
                  == eps_xi_F_oracle(P, i, corner))
            out.append(record(
                f"evaluation pairing closed = oracle, corner {corner}, i={i}",
                ok))
            ok = (F_xi_eta_closed(P, i, corner)
                  == F_xi_eta_oracle(P, i, corner))
            out.append(record(
                f"coevaluation pairing closed = oracle, corner {corner}, i={i}",
                ok))
    out += [dict(r, check="unit composite: " + r["check"])
            for r in check_eta22_identity(P)]
    out += [dict(r, check="middle-linearity: " + r["check"])
            for r in check_omega3_linearity(P, n=200, seed=seed)]
    return P, out


def suite_check_rho(P, window=(-4, 4)):
    """Both certification routes for the commutator maps, and their
    agreement, across the weight window."""
    out = []
    lo, hi = window
    for lam in range(lo, hi + 1):
        f = tilde_rho(P, lam)
        bad = f.is_welldefined()
        out.append(record(f"commutator map well defined, weight {lam}",
                          bad is None, bad))
        cert = certify_iso(f)
        out.append(record(f"commutator map determinant certificate, weight {lam}",
                          cert.ok, cert.witness))
        try:
            triangular_certificate(P, lam)
            tri_ok, tri_witness = True, None
        except (NotTriangularError, DiagonalNotIsoError) as e:
            tri_ok, tri_witness = False, e
        out.append(record(f"commutator map triangular certificate, weight {lam}",
                          tri_ok, tri_witness))
        out.append(record(f"certificates agree, weight {lam}",
                          cert.ok == tri_ok))
    # weight 0: the row and column assemblies coincide on every corner
    from .product.rho import _corner_rho
    f0 = tilde_rho(P, 0)
    ok = all(_corner_rho(P, c, 0).matrix(lam) == f0.corners[c].matrix(lam)
             and tilde_sigma_closed(P, c).matrix(lam)
             == f0.corners[c].matrix(lam)
             for c in CORNERS
             for lam in f0.corners[c].mats)
    out.append(record("weight 0: row and column assemblies coincide", ok))
    return out


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _make_field(spec):
    try:
        return make_field(spec)
    except ValueError as e:
        raise ConfigError(f"bad field {spec!r}: expected QQ or a prime") from e


def _load_rep(args):
    field = _make_field(args.field)
    if args.rep in (None, "L1", "builtin"):
        return make_L1(field)
    try:
        with open(args.rep, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return rep_from_json(data, field)
    except OSError as e:
        raise RepLoadError(f"cannot read {args.rep}: {e}") from e
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise RepLoadError(f"malformed representation data: {e}") from e


def _parse_window(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as e:
        raise ConfigError(f"bad weight window {text!r}") from e
    if lo > hi:
        raise ConfigError(f"bad weight window {text!r}: lo > hi")
    return lo, hi


def run(args):
    window = _parse_window(args.weights)
    if args.i_max < 0:
        raise ConfigError("i-max must be non-negative")
    field = _make_field(args.field)
    suites = []
    if args.command in ("identities", "verify-all"):
        suites.append(("identities", lambda: suite_identities(field)))
    rep_holder = {}

    def get_rep():
        if "rep" not in rep_holder:
            rep_holder["rep"] = _load_rep(args)
        return rep_holder["rep"]

    if args.command in ("check-rep", "verify-all"):
        suites.append(("check-rep", lambda: suite_check_rep(get_rep(), window)))
    if args.command in ("build-product", "verify-all"):
        def _bp():
            P, recs = suite_build_product(get_rep(), args.i_max, args.seed)
            rep_holder["P"] = P
            return recs
        suites.append(("build-product", _bp))
    if args.command in ("check-rho", "verify-all"):
        def _cr():
            if "P" not in rep_holder:
                rep_holder["P"] = build_product(get_rep(), check=False)
            if rep_holder["P"] is None:
                return [record("commutator suite skipped", False,
                               "product construction failed")]
            return suite_check_rho(rep_holder["P"], window)
        suites.append(("check-rho", _cr))

    checks = []
    for suite_name, fn in suites:
        t0 = time.monotonic()
        recs = fn()
        suite_millis = int((time.monotonic() - t0) * 1000)
        for k, r in enumerate(recs):
            entry = {
                "id": f"{suite_name}.{k:03d}",
                "anchor": r["check"],
                "status": r["status"],
            }
            if "witness" in r:
                entry["witness"] = r["witness"]
            entry["millis"] = suite_millis if args.timings and k == 0 else 0
            checks.append(entry)
    report = {
        "version": __version__,
        "config": {
            "command": args.command,
            "rep": args.rep or "L1",
            "field": args.field,
            "weights": args.weights,
            "i_max": args.i_max,
            "seed": args.seed,
        },
        "checks": checks,
    }
    return report


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = [f"verifycli {report['version']}"]
    for c in report["checks"]:
        line = f"{c['status']:4s}  {c['id']:22s}  {c['anchor']}"
        if "witness" in c:
            line += f"  [{c['witness']}]"
        lines.append(line)
    n = len(report["checks"])
    bad = sum(1 for c in report["checks"] if c["status"] != "pass")
    lines.append(f"{n - bad}/{n} checks passed")
    return "\n".join(lines) + "\n"


def _attach_window(argv):
    """Join ``--weights`` and its value into one argument: argparse would
    read a negative window such as ``-4..4`` as an unknown option."""
    out, rest = [], iter(argv)
    for arg in rest:
        if arg == "--weights":
            value = next(rest, None)
            arg = arg if value is None else f"{arg}={value}"
        out.append(arg)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="verifycli",
        description="Exact verification of the tensor product construction.")
    parser.add_argument("command", choices=[
        "identities", "check-rep", "build-product", "check-rho", "verify-all"])
    parser.add_argument("--rep", default=None,
                        help="representation JSON path (default: built-in L(1))")
    parser.add_argument("--field", default="QQ",
                        help='coefficient field: "QQ" or a prime')
    parser.add_argument("--weights", default="-4..4", metavar="LO..HI")
    parser.add_argument("--i-max", type=int, default=4, dest="i_max")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default="json", choices=["json", "text"])
    parser.add_argument("--out", default=None)
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock millis (breaks byte-for-byte "
                             "report determinism)")
    args = parser.parse_args(
        _attach_window(sys.argv[1:] if argv is None else argv))
    try:
        report = run(args)
    except (ConfigError, RepLoadError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = render(report, args.report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    ok = all(c["status"] == "pass" for c in report["checks"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
