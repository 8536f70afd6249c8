"""The flag boundary: every combination of the CLI's flags exits 0, 1 or 2
without an exception, and a run on L(1) with usable flags passes.

The flags are drawn from valid and invalid values: the subcommand, the
input (the built-in L(1) or a committed input, loadable or not), the
field (QQ, small primes and junk), the weight window (small, reversed,
malformed, and with its value after a space), ``--i-max`` from -1 to 6
and the report format.  An unusable flag or input exits 2 with exactly one
``error:`` line and no report.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sl2prod.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ["identities", "check-rep", "build-product", "check-rho",
            "verify-all"]
# inputs on which every check passes, inputs that load but fail checks,
# and inputs that do not load
PASSING = [None, "L1", str(GOLDEN / "l1_renamed.json")]
LOADING = [str(GOLDEN / name) for name in ("e2_tau0.json", "l1_x2u.json")]
REJECTED = [str(GOLDEN / name)
            for name in ("l1_x1.json", "l1_y.json", "truncated.json")]
FIELDS = ["QQ", "2", "3", "7"]
BAD_FIELDS = ["", "4", "1", "0", "-7", "x", "qq", "7.0"]
BAD_WINDOWS = ["", "..", "1..", "..1", "a..b", "1...2", "1..2..3", "0x1..2"]


@st.composite
def windows(draw, valid):
    """A usable window value or None (the default window) when ``valid``,
    else a reversed or malformed one."""
    lo, width = draw(st.integers(-6, 6)), draw(st.integers(0, 3))
    if valid:
        return draw(st.sampled_from([None, f"{lo}..{lo + width}"]))
    return draw(st.sampled_from([f"{lo + width + 1}..{lo}", *BAD_WINDOWS]))


@st.composite
def flag_sets(draw):
    """``(argv, valid, rep)``: an argument list, whether its flags are
    usable, and the input it names (None for the default L(1)).  Half the
    draws break one of the flags, and a broken window or field may come
    with a broken ``--i-max``."""
    broken = draw(st.sampled_from([None, None, None, "field", "weights",
                                   "i-max"]))
    command = draw(st.sampled_from(COMMANDS))
    rep = draw(st.sampled_from(PASSING) | st.sampled_from(LOADING + REJECTED))
    field = draw(st.sampled_from(BAD_FIELDS if broken == "field" else FIELDS))
    window = draw(windows(broken != "weights"))
    i_max = (-1 if broken == "i-max" else
             draw(st.none() | st.integers(-1 if broken else 0, 6)))
    report = draw(st.sampled_from([None, "json", "text"]))
    argv = [command]
    if rep is not None:
        argv += ["--rep", rep]
    argv += ["--field", field]
    if window is not None:
        argv += (["--weights", window] if draw(st.booleans())
                 else [f"--weights={window}"])
    if i_max is not None:
        argv += ["--i-max", str(i_max)]
    if report is not None:
        argv += ["--report", report]
    return argv, broken is None, rep


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(flags=flag_sets())
@example(flags=(["check-rep", "--weights=1..1"], True, None))
@example(flags=(["check-rep", "--weights", "-1..-1"], True, None))
@example(flags=(["verify-all", "--field", "2", "--weights=1..1"], True,
                None))
def test_flags_exit_zero_one_or_two(flags):
    argv, valid, rep = flags
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        if "text" not in argv:
            checks = json.loads(out.getvalue())["checks"]
            assert (code == 0) == all(c["status"] == "pass" for c in checks)
    if not valid:
        assert code == 2
    elif argv[0] == "identities" or rep in PASSING:
        assert code == 0, out.getvalue()
    elif rep in REJECTED:
        assert code == 2
    else:
        assert code in (0, 1)
