"""Command-line verification harness.

Subcommands select suites; every run emits a deterministic report (JSON by
default) listing one record per check.  Every check runs on fixed inputs
and draws no samples, so the report bytes are identical across runs.
"""

import argparse
import errno
import json
import os
import sys

from . import __version__
from .polyring import Poly, divided_difference, h_complete, make_field
from .nilhecke import NilHeckeElt, divided_power_idempotents, normalize
from .bimodcat import certify_iso, record
from .tworep import (InputError, check_hecke, check_hypotheses, make_L1,
                     rep_from_json)
from .product.core import (CORNERS, build_product, check_construction,
                           eps_xi_F_closed, F_xi_eta_closed,
                           tilde_sigma_closed)
from .product.oracles import (check_eta22_identity, check_omega3_linearity,
                              check_product_hecke, closed_vs_oracle,
                              eps_xi_F_oracle, F_xi_eta_oracle,
                              tilde_sigma_oracle)
from .product.rho import tilde_rho, triangular_certificate


class ConfigError(ValueError):
    """An unusable configuration or input: ``main`` exits 2."""


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_identities(field, i_max: int):
    """Symmetric-polynomial facts, the crossing-chain identity, and the
    divided-power idempotent relations.

    The h_i facts run for i = 0..max(i_max, 4): a fact whose sides differ
    by N(t)/Q(t) in generating functions, with index shift s, holds for
    every i once it holds for i < deg Q + s, and facts 3 and 4 have
    Q(t) = (1 - x1 t)(1 - x2 t)(1 - y t) and s = 2."""
    i_max = max(i_max, 4)
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
    monomials = [x1 ** a * x2 ** b for a in range(7) for b in range(7)
                 if a + b <= 6]
    hs = [h_complete(i - 1, ["x1", "x2"], field) for i in range(i_max + 1)]
    pows = [(x1 ** i, x2 ** i) for i in range(i_max + 1)]
    d1s = [(f, divided_difference(f, 1)) for f in monomials]
    witness = next((f"i={i}, f={f}" for i, (x1i, x2i) in enumerate(pows)
                    for f, d1f in d1s
                    if x2i * d1f
                    != divided_difference(x1i * f, 1) - hs[i] * f), None)
    out.append(record("fact: x2^i tau vs tau x1^i minus h_(i-1)(x1,x2)",
                      witness is None, witness))

    # Fact 2: x2^i - y^i = (x2 - y) h_{i-1}(x2, y)
    ok = all(x2 ** i - y ** i
             == (x2 - y) * h_complete(i - 1, ["x2", "y"], field)
             for i in range(i_max + 1))
    out.append(record("fact: x2^i - y^i = y_2 h_(i-1)(x2,y)", ok))

    # Fact 3: sum_{j+k=i-1} x1^j h_{k-1}(x2, y) = h_{i-2}(x1, x2, y)
    ok = all(sum((x1 ** j * h_complete(i - 2 - j, ["x2", "y"], field)
                  for j in range(i)), Poly.zero(field))
             == h_complete(i - 2, ["x1", "x2", "y"], field)
             for i in range(i_max + 1))
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
    ep, em = divided_power_idempotents(field)
    one = NilHeckeElt.one(2, field)
    zero = NilHeckeElt.zero(2, field)
    out.append(record("idempotents: e+ + e- = 1", ep + em == one))
    out.append(record("idempotents: e+ e- = 0", ep * em == zero))
    out.append(record("idempotents: e- e+ = 0", em * ep == zero))
    out.append(record("idempotents: e+^2 = e+", ep * ep == ep))
    out.append(record("idempotents: e-^2 = e-", em * em == em))
    return out


def suite_check_rep(rep, window):
    """The nil affine Hecke relations, structural hypotheses, and one-step
    commutator isomorphisms of the input representation."""
    out = [dict(r, check="hecke: " + r["check"]) for r in check_hecke(rep)]
    out += [dict(r, check="hypotheses: " + r["check"])
            for r in check_hypotheses(rep, window)]
    return out


def suite_build_product(rep, i_max: int):
    """Build the product and pass its construction gate, then verify the
    product Hecke relations, the closed-vs-oracle equalities, the unit
    composite, and middle-linearity.  Past a failed gate nothing runs and
    the product is None."""
    P = build_product(rep)
    out = [check_construction(P)]
    if out[0]["status"] != "pass":
        return None, out
    out += [dict(r, check="product hecke: " + r["check"])
            for r in check_product_hecke(P)]
    out += [closed_vs_oracle(f"crossing closed = oracle, corner {corner}",
                             tilde_sigma_closed, tilde_sigma_oracle, P, corner)
            for corner in CORNERS]
    for corner in CORNERS:
        for i in range(i_max + 1):
            out.append(closed_vs_oracle(
                f"evaluation pairing closed = oracle, corner {corner}, i={i}",
                eps_xi_F_closed, eps_xi_F_oracle, P, i, corner))
            out.append(closed_vs_oracle(
                f"coevaluation pairing closed = oracle, corner {corner}, i={i}",
                F_xi_eta_closed, F_xi_eta_oracle, P, i, corner))
    out += [dict(r, check="unit composite: " + r["check"])
            for r in check_eta22_identity(P)]
    out += [dict(r, check="middle-linearity: " + r["check"])
            for r in check_omega3_linearity(P)]
    return P, out


def suite_check_rho(P, window):
    """Both certification routes for the commutator maps, and their
    agreement, across the weight window."""
    out = []
    lo, hi = window
    for lam in range(lo, hi + 1):
        corners = tilde_rho(P, lam)
        bad = next((b for b in (f.is_welldefined() for f in corners.values())
                    if b is not None), None)
        out.append(record(f"commutator map well defined, weight {lam}",
                          bad is None, bad))
        det = certify_iso(
            {(c, w): m for c, f in corners.items() for w, m in f.mats.items()},
            f"commutator map determinant certificate, weight {lam}")
        tri = triangular_certificate(P, lam)
        out += [det, tri, record(f"certificates agree, weight {lam}",
                                 det["status"] == tri["status"])]
    # weight 0: every corner is its closed commutator block.  The corner
    # map is built from that block, so this record cannot fail; it is kept
    # so the suite's record count stays fixed.
    ok = all(tilde_sigma_closed(P, c).matrix(w) == m
             for c, f in tilde_rho(P, 0).items() for w, m in f.mats.items())
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


def _load_rep(args, field):
    if args.rep in (None, "L1"):
        return make_L1(field)
    try:
        with open(args.rep, encoding="utf-8", errors="replace") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {args.rep}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed representation data: {e}") from e
    except RecursionError as e:
        raise ConfigError("representation data nested too deeply") from e
    try:
        return rep_from_json(data, field)
    except InputError as e:
        raise ConfigError(f"malformed representation data: {e}") from e


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
    cmd = args.command
    rep = None if cmd == "identities" else _load_rep(args, field)
    suites = []
    if cmd in ("identities", "verify-all"):
        suites.append(("identities", suite_identities(field, args.i_max)))
    if cmd in ("check-rep", "verify-all"):
        suites.append(("check-rep", suite_check_rep(rep, window)))
    if cmd in ("build-product", "verify-all"):
        P, recs = suite_build_product(rep, args.i_max)
        suites.append(("build-product", recs))
    if cmd == "check-rho":
        P = build_product(rep)
    if cmd in ("check-rho", "verify-all"):
        recs = (suite_check_rho(P, window) if P is not None else
                [record("commutator suite skipped", False,
                        "product construction failed")])
        suites.append(("check-rho", recs))

    checks = []
    for suite_name, recs in suites:
        for k, r in enumerate(recs):
            entry = {
                "id": f"{suite_name}.{k:03d}",
                "anchor": r["check"],
                "status": r["status"],
            }
            if "witness" in r:
                entry["witness"] = r["witness"]
            checks.append(entry)
    report = {
        "version": __version__,
        "config": {
            "command": args.command,
            "rep": args.rep or "L1",
            "field": args.field,
            "weights": args.weights,
            "i_max": args.i_max,
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
    parser.add_argument("--seed", type=int,
                        help="accepted and ignored: no check draws samples")
    parser.add_argument("--report", default="json", choices=["json", "text"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(
        _attach_window(sys.argv[1:] if argv is None else argv))
    try:
        report = run(args)
        text = render(report, args.report)
        try:
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            elif sys.stdout is None:  # started with fd 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            else:
                sys.stdout.write(text)
                sys.stdout.flush()
        except OSError as e:
            if not args.out and sys.stdout:  # the last flush must not fail
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write {args.out or 'stdout'}: {e}")
    except ConfigError as e:
        try:  # a closed or full stderr loses this line, not the exit 2
            sys.stderr.write(f"error: {e}\n")
            sys.stderr.flush()
        except (OSError, AttributeError):  # AttributeError: no sys.stderr
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        return 2
    ok = all(c["status"] == "pass" for c in report["checks"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
