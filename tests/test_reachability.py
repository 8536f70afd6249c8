"""Reachability ratchet: every function of ``src/`` that no CLI run calls is
listed, with the reason it stays.

One fresh interpreter installs a profiler before ``sl2prod`` is imported, so
decorators and other import-time calls count, and then runs a fixed set of
CLI commands in process.  Every ``def`` under ``src/sl2prod`` whose code
never ran is compared with ``ALLOWED``.  Module and class bodies are left
out, and so are lambdas and comprehensions: each is reported through the
``def`` around it.  The test fails on a never-called function that is not
listed, and on a listed function that is now called, so the list can only
shrink.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

PROBE = r"""
import contextlib, inspect, io, json, sys, types
from pathlib import Path

golden = Path(sys.argv[1])
called = set()


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(profile)
import sl2prod
from sl2prod.cli import main

runs = [
    ["verify-all"],
    ["verify-all", "--field", "7"],
    ["verify-all", "--rep", str(golden / "e2_tau0.json")],
    ["verify-all", "--rep", str(golden / "l1_x2u.json"), "--report", "text"],
    ["verify-all", "--rep", str(golden / "l1_renamed.json")],
    ["check-rho", "--weights=-8..8"],
    ["check-rho", "--rep", str(golden / "e2_tau0.json")],
    ["check-rho", "--rep", str(golden / "l2.json")],
    ["verify-all", "--rep", str(golden / "missing.json")],
    ["verify-all", "--rep", str(golden / "l1_y.json")],
    ["verify-all", "--rep", str(golden / "truncated.json")],
    ["check-rep", "--rep", str(golden / "overlong_int.json")],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        codes.append(main(argv))
sys.setprofile(None)


def functions(code, prefix):
    # (qualified name, code) of every def nested in code, the way
    # co_qualname spells it
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            name = prefix + c.co_name
            is_function = c.co_flags & inspect.CO_NEWLOCALS
            if is_function and not c.co_name.startswith("<"):
                yield name, c
            yield from functions(
                c, name + (".<locals>." if is_function else "."))


package = Path(sl2prod.__file__).parent
never = []
for path in sorted(package.rglob("*.py")):
    module = ".".join(path.relative_to(package).with_suffix("").parts)
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for name, c in functions(top, module + "."):
        if (c.co_filename, c.co_firstlineno, c.co_name) not in called:
            never.append(name)
print(json.dumps({"codes": codes, "never": never}))
"""

L2 = "waits for an input with E^2 != 0 and tau != 0 (ROADMAP item 2)"
CERT = "waits for exported inverse certificates (ROADMAP item 7)"
TRACER = "hooked by perfbench/tracer.py"
TESTS = "test-only"
DUNDER = "protocol dunder"

ALLOWED = {
    "bimodcat.WeightedAlgebra.__hash__": DUNDER,
    "bimodcat.WeightedAlgebra.__repr__": DUNDER,
    "bimodcat.Bimodule.__repr__": DUNDER,
    "bimodcat.BimoduleMap.__repr__": DUNDER,
    "bimodcat.inverse_map": CERT,
    "matrixops.adjugate": CERT,
    "matrixops.Matrix.__hash__": DUNDER,
    "matrixops.Matrix.__sub__": TRACER,
    "matrixops.Matrix.__str__": DUNDER,
    "nilhecke.NilHeckeElt.scalar": TESTS,
    "nilhecke.NilHeckeElt.__str__": DUNDER,
    "polyring.Rationals.__eq__": DUNDER,
    "polyring.Rationals.__repr__": DUNDER,
    "polyring.PrimeField.__eq__": DUNDER,
    "polyring.PrimeField.__repr__": DUNDER,
    "polyring.Poly.constant_value": CERT,
    "polyring.Poly.with_vars": TRACER,
    "polyring.Poly.__rsub__": DUNDER,
    "polyring.Poly.subs": TRACER,
    "polyring.Poly.coeff_of": TRACER,
    "polyring.Poly.swap_x": TRACER,
    "polyring.Poly.__repr__": DUNDER,
    "product.elements.Elt.__repr__": DUNDER,
    "product.models.ModelElt.__repr__": DUNDER,
    "product.models.ModelElt.data": TESTS,
    "product.models.GElt.data": TESTS,
    "product.models.gamma22_EE_G1EE": L2,
    "product.models.gamma22_EE_G2G2": L2,
    "product.models.tau22": L2,
    "tworep.TwoRep.adjoin_y": TRACER,
    "tworep.TwoRep.rebase": TRACER,
    "tworep.rep_to_json": TESTS,
    "tworep.rep_to_json.<locals>.mat": TESTS,
    "tworep.rep_to_json.<locals>.module": TESTS,
    "tworep.rep_to_json.<locals>.maps": TESTS,
}


def test_never_called_functions_match_allowlist():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(GOLDEN)],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout)
    # pass, pass, construction fails, bad dot, pass (Horner steps: x1 acts
    # on E as u), pass, tau = 0, pass (L(2), data at lambda < 0), missing
    # file, reserved y, truncated entry, integer past the digit limit
    assert result["codes"] == [0, 0, 1, 1, 0, 0, 1, 0, 2, 2, 2, 2]
    never = set(result["never"])
    assert sorted(never - set(ALLOWED)) == [], "never called, not listed"
    assert sorted(set(ALLOWED) - never) == [], "called now: drop from ALLOWED"
