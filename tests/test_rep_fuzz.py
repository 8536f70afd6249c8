"""The input boundary: every JSON value either loads as a representation
or is rejected with :class:`~sl2prod.tworep.InputError`, and the CLI turns
the two cases into exit 0 or 1 and into exit 2 with one error line.  An
input that loads also runs ``verify-all``, which must end in a verdict
(exit 0 or 1) with nothing on stderr.

Inputs are the committed representations with one mutation each (a value
replaced, a key deleted or added, a value wrapped in a list or turned into
a string, a weight key respelled) and arbitrary JSON values.  An input that
loads must be read as written: every matrix a list of lists of strings
whose polynomials are the loaded entries, every basis a list of the
component's rank, one left action per generator and each weight once.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sl2prod.cli import main
from sl2prod.polyring import QQ, parse_poly
from sl2prod.tworep import (InputError, TwoRep, make_L1, rep_from_json,
                            rep_to_json)
from test_tworep import RANK2

GOLDEN = Path(__file__).parent / "golden"
L1 = rep_to_json(make_L1())
BASES = [L1, RANK2] + [json.loads((GOLDEN / name).read_text())
                       for name in ("e2_tau0.json", "l1_x2u.json", "l2.json")]
SECTIONS = ("weights", "E", "F", "x", "tau", "eta", "eps")

leaves = (st.none() | st.booleans() | st.integers()
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from(["u", "x1", "y", "0", "1", "2*u", "u+", "e", ""])
          | st.text(max_size=6))
json_values = st.recursive(
    leaves, lambda kids: (st.lists(kids, max_size=4)
                          | st.dictionaries(st.text(max_size=6), kids,
                                            max_size=4)),
    max_leaves=12)
keys = st.sampled_from(["-3", "0", "3", "basis", "left", "u", "x1"]) | st.text(
    max_size=4)


def paths(value, prefix=()):
    """Every path into ``value``, the empty path included."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from paths(v, prefix + (k,))


def at(value, path):
    for k in path:
        value = value[k]
    return value


def first_string(value):
    """The first string inside ``value``, or its JSON text."""
    for path in paths(value):
        if isinstance(at(value, path), str):
            return at(value, path)
    return json.dumps(value)


def respellings(key):
    sign, digits = ("-", key[1:]) if key.startswith("-") else ("", key)
    return [f"{sign}0{digits}", f" {key}", f"{key} ",
            *([] if sign else [f"+{key}"])]


def pick(draw, items):
    """One of ``items``, drawn by a shuffle: ``sampled_from`` favours the
    first items, which here are the outermost paths."""
    return draw(st.permutations(items))[0]


@st.composite
def mutants(draw):
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    every = list(paths(data))
    kind = draw(st.sampled_from(
        ["replace", "delete", "add", "wrap", "string", "respell"]))
    if kind == "delete":
        path = pick(draw, [p for p in every
                           if p and isinstance(at(data, p[:-1]), dict)])
        del at(data, path[:-1])[path[-1]]
        return data
    if kind == "add":
        obj = at(data, pick(draw, [p for p in every
                                   if isinstance(at(data, p), dict)]))
        obj[draw(keys)] = draw(json_values)
        return data
    if kind == "respell":
        section, key = pick(draw, [p for p in every
                                   if len(p) == 2 and p[0] in SECTIONS])
        obj = at(data, (section,))
        new = draw(st.sampled_from(respellings(key)))
        obj[new] = obj[key] if draw(st.booleans()) else obj.pop(key)
        return data
    path = pick(draw, every)
    old = at(data, path)
    new = {"replace": lambda: draw(json_values), "wrap": lambda: [old],
           "string": lambda: first_string(old)}[kind]()
    if not path:
        return new
    at(data, path[:-1])[path[-1]] = new
    return data


def assert_read_as_written(data, rep):
    field = rep.A.field

    def same(rows, m):
        assert isinstance(rows, list)
        assert all(isinstance(row, list) for row in rows)
        assert [[parse_poly(s, field) for s in row] for row in rows] == (
            m.entries)

    for name in SECTIONS:
        lams = [int(k) for k in data.get(name, {})]
        assert len(set(lams)) == len(lams)
    for name, M in (("E", rep.E), ("F", rep.F)):
        for k, c in data.get(name, {}).items():
            lam = int(k)
            assert isinstance(c["basis"], list)
            assert len(c["basis"]) == M.rank(lam)
            assert set(c["left"]) == set(rep.A.support[lam + M.shift])
            for v, rows in c["left"].items():
                same(rows, M.left_matrix(lam, v))
    for name in ("x", "tau", "eta", "eps"):
        for k, rows in data.get(name, {}).items():
            same(rows, getattr(rep, name).matrix(int(k)))


@pytest.fixture(scope="module")
def rep_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "rep.json"


def l1_with(*edits):
    """L(1) with the value at each path of ``edits`` set."""
    data = copy.deepcopy(L1)
    for path, value in edits:
        at(data, path[:-1])[path[-1]] = value
    return data


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.one_of(mutants(), mutants(), mutants(), json_values))
@example(data=l1_with((("x", "-1"), "u"), (("E", "-1", "left", "u"), ["u"])))
@example(data=l1_with((("E", "-1", "basis"), "e")))
@example(data=l1_with((("E", "-1", "left"), {})))
@example(data=l1_with((("x", "-01"), [["u"]])))
@example(data=l1_with((("x", "-1"), [["(u+1)^100000"]])))
@example(data=l1_with((("x", "-1"), [["2^1000000000"]])))
@example(data=l1_with((("x", "-1"), [["((u+1)^99)^99"]])))
@example(data=l1_with((("x", "-1"), [["(u+x1+x2+x3+x4+x5)^60"]])))
def test_input_loads_as_written_or_exits_two(rep_file, data):
    try:
        rep = rep_from_json(data, QQ)
    except InputError:
        rep = None
    else:
        assert isinstance(rep, TwoRep)
        assert_read_as_written(data, rep)
    rep_file.write_text(json.dumps(data))
    commands = ["check-rep"] if rep is None else ["check-rep", "verify-all"]
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--rep", str(rep_file)])
        if rep is None:
            assert code == 2
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert code in (0, 1)
            assert err.getvalue() == ""


def l2_with_unit(lam, rows):
    data = json.loads((GOLDEN / "l2.json").read_text())
    data["eta"][lam] = rows
    return data


@pytest.mark.parametrize("data, line", [
    # eta at -2 maps A, of rank 1, to FE, of rank 2: a column, not a row
    (l2_with_unit("-2", [["1", "0"]]),
     "eta at weight -2 is 1x2, expected 2x1"),
    (l2_with_unit("5", [["1"]]),
     "eta entry at weight 5, where A has no component"),
    ({k: v for k, v in L1.items() if k != "eta"},
     'the sections "F", "eta" and "eps" are given all together or not at '
     'all')], ids=["non-square-unit", "unit-outside-A", "F-without-unit"])
def test_duality_sections_rejected(data, line):
    with pytest.raises(InputError) as e:
        rep_from_json(data, QQ)
    assert str(e.value) == line
