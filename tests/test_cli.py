"""Command-line verifier: exit codes, report formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sl2prod import cli, nilhecke
from sl2prod.bimodcat import record
from sl2prod.cli import main
from sl2prod.polyring import Poly, QQ

GOLDEN = Path(__file__).parent / "golden"
REP_COMMANDS = ["check-rep", "build-product", "check-rho", "verify-all"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_identities_pass(self, capsys):
        code, out = run_cli(["identities"], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_bad_window_is_config_error(self, capsys):
        assert main(["check-rep", "--weights", "bogus"]) == 2

    def test_inverted_window_is_config_error(self, capsys):
        assert main(["check-rep", "--weights", "4..-4"]) == 2

    def test_negative_window_after_space(self, capsys):
        code, spaced = run_cli(["check-rep", "--weights", "-4..4"], capsys)
        assert code == 0
        _, joined = run_cli(["check-rep", "--weights=-4..4"], capsys)
        assert spaced == joined

    def test_non_prime_field_is_config_error(self, capsys):
        assert main(["identities", "--field", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: bad field '4': expected QQ or a prime\n")

    @pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
    def test_large_prime_field_is_accepted(self, capsys, p):
        # trial division up to sqrt(p) did not finish within 20 s
        code, out = run_cli(["identities", "--field", str(p)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["field"] == str(p)

    @pytest.mark.parametrize("n", [2047, 561, 3215031751,
                                   3317044064679887385961981])
    def test_pseudoprime_field_is_config_error(self, capsys, n):
        # a strong pseudoprime to base 2, a Carmichael number, a strong
        # pseudoprime to bases 2, 3, 5 and 7, and the first n the bases
        # 2..41 do not decide
        assert main(["identities", "--field", str(n)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad field '{n}': expected QQ or a prime\n")

    def test_non_numeric_field_is_config_error(self, capsys):
        # "Q" and "rationals" were undocumented aliases of QQ
        for spec in ("abc", "Q", "rationals"):
            assert main(["identities", "--field", spec]) == 2
            assert capsys.readouterr().err == (
                f"error: bad field {spec!r}: expected QQ or a prime\n")

    def test_missing_rep_file(self, capsys, tmp_path):
        assert main(["check-rep", "--rep", str(tmp_path / "nope.json")]) == 2

    def test_malformed_rep_file(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"weights": "not a dict"}')
        assert main(["check-rep", "--rep", str(p)]) == 2

    def test_missing_key_is_named(self, capsys, tmp_path):
        p = tmp_path / "nobasis.json"
        p.write_text('{"weights": {"-1": ["u"]}, '
                     '"E": {"-1": {"left": {}}}}')
        assert main(["check-rep", "--rep", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: E at weight -1 is not an "
            'object with a "basis" list and a "left" object\n')

    @pytest.mark.parametrize("x, tau, left, key", [
        # x at weight -1 given twice: the later entry used to load, and
        # check-rep passed 34/34
        ('{"-1": [["u+1"]], "-1": [["u"]]}', '"tau": {}', '"u": [["u"]]',
         "-1"),
        ('{"-1": [["u"]]}', '"tau": {}, "tau": {}', '"u": [["u"]]', "tau"),
        ('{"-1": [["u"]]}', '"tau": {}', '"u": [["u"]], "u": [["u"]]',
         "u")], ids=["x-weight", "tau-section", "left-generator"])
    def test_repeated_key_is_input_error(self, capsys, tmp_path, x, tau,
                                         left, key):
        # raw text: json.dumps cannot write a repeated key
        p = tmp_path / "repeated.json"
        p.write_text('{"weights": {"-1": ["u"], "1": ["u"]}, '
                     f'"E": {{"-1": {{"basis": ["e"], "left": {{{left}}}}}}}, '
                     f'"x": {x}, {tau}}}')
        assert main(["check-rep", "--rep", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed representation data: repeated key {key!r}\n")

    @staticmethod
    def rep_with(tmp_path, x="u", left="u"):
        """The L(1) rep JSON with the given dot and left action of u."""
        data = {
            "weights": {"-1": ["u"], "1": ["u"]},
            "E": {"-1": {"basis": ["e"], "left": {"u": [[left]]}}},
            "x": {"-1": [[x]]},
            "tau": {},
        }
        p = tmp_path / "rep.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_denominator_divisible_by_p_is_input_error(self, capsys,
                                                       tmp_path):
        rep = self.rep_with(tmp_path, x="1/7*u")
        assert main(["check-rep", "--rep", rep, "--field", "7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_scalar_left_action_is_input_error(self, capsys, tmp_path):
        rep = self.rep_with(tmp_path, left="2*u")
        assert main(["check-rep", "--rep", rep]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_left_action_of_wrong_size_is_input_error(self, capsys,
                                                      tmp_path):
        # u * I_2 on a rank-one component
        rep = self.rep_with(tmp_path)
        data = json.loads(Path(rep).read_text())
        data["E"]["-1"]["left"]["u"] = [["u", "0"], ["0", "u"]]
        Path(rep).write_text(json.dumps(data))
        assert main(["verify-all", "--rep", rep]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: E's left action of u at "
            "weight -1 is 2x2, expected 1x1\n")

    @pytest.mark.parametrize("component, x, line", [
        # a rank-zero component with a 1x1 left action, which used to fail
        # rho_-1 iso as "non-square 0x1"
        ({"basis": [], "left": {"u": [["u"]]}}, {},
         "E's left action of u at weight -1 is 1x1, expected 0x0"),
        # a ragged left action on a rank-two component
        ({"basis": ["e", "f"], "left": {"u": [["u", "0"], ["0"]]}}, {},
         "E's left action of u at weight -1 is ragged, with rows of "
         "lengths 2, 1"),
        # u * I_2 with a ragged dot
        ({"basis": ["e", "f"], "left": {"u": [["u", "0"], ["0", "u"]]}},
         {"-1": [["u", "0"], ["0", "u", "7"]]},
         "x at weight -1 is ragged, with rows of lengths 2, 3")],
        ids=["rank-zero-left", "ragged-left", "ragged-x"])
    def test_matrix_of_wrong_shape_is_input_error(self, capsys, tmp_path,
                                                  component, x, line):
        # each of these used to load and exit 1: a ragged matrix passed the
        # shape checks, which read the length of its first row
        p = tmp_path / "shape.json"
        p.write_text(json.dumps({"weights": {"-1": ["u"], "1": ["u"]},
                                 "E": {"-1": component}, "x": x,
                                 "tau": {}}))
        assert main(["verify-all", "--rep", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed representation data: {line}\n")

    L1_E = {"-1": {"basis": ["e"], "left": {"u": [["u"]]}}}

    @pytest.mark.parametrize("weights, E, x", [
        # both used to pass 142/142 with L(1)'s E and x
        ({"-1": "u", "1": "u"}, L1_E, {"-1": [["u"]]}),
        ({"-1": ["u", "u"], "1": ["u", "u"]}, L1_E, {"-1": [["u"]]}),
        # read as the variables x and 1, as its keys, and as no name
        ({"-1": "x1", "1": "x1"}, {}, {}),
        ({"-1": {"u": 1}, "1": ["u"]}, {}, {}),
        ({"-1": [1], "1": ["u"]}, {}, {})],
        ids=["string", "duplicates", "letters", "dict", "int"])
    def test_weight_ring_not_a_list_of_names_is_input_error(
            self, capsys, tmp_path, weights, E, x):
        p = tmp_path / "weights.json"
        p.write_text(json.dumps({"weights": weights, "E": E, "x": x,
                                 "tau": {}}))
        assert main(["verify-all", "--rep", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: the weight ring at -1 is "
            "not a list of distinct variable names\n")

    def test_unknown_variable_is_input_error(self, capsys, tmp_path):
        rep = self.rep_with(tmp_path, x="q")
        assert main(["check-rep", "--rep", rep]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'q'" in err

    @pytest.mark.parametrize("command", REP_COMMANDS)
    def test_reserved_y_in_weight_ring_is_input_error(self, capsys, command):
        # L(1) with u renamed to y: y is the product's central variable
        rep = str(GOLDEN / "l1_y.json")
        assert main([command, "--rep", rep]) == 2
        err = capsys.readouterr().err
        assert err == ("error: malformed representation data: the weight "
                       "ring at -1 lists the reserved y\n")

    @pytest.mark.parametrize("command", REP_COMMANDS)
    def test_reserved_y_in_entry_is_input_error(self, capsys, tmp_path,
                                                command):
        rep = self.rep_with(tmp_path, x="u + y^2")
        assert main([command, "--rep", rep]) == 2
        err = capsys.readouterr().err
        assert err == ("error: malformed representation data: entry "
                       "'u + y^2' involves the reserved y\n")

    @pytest.mark.parametrize("command", ["check-rho", "verify-all"])
    def test_variable_outside_weight_ring_is_input_error(self, capsys,
                                                         command):
        # L(1) with x = x1 at weight -1, whose ring is k[u]: the left
        # action of x1 is undefined, so the input is unusable
        rep = str(GOLDEN / "l1_x1.json")
        assert main([command, "--rep", rep]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: entry 'x1' at weight -1 "
            "names 'x1', not a generator of the weight ring at -1\n")

    def test_left_action_entry_outside_weight_ring_is_input_error(
            self, capsys, tmp_path):
        rep = self.rep_with(tmp_path, left="u + x2")
        assert main(["check-rep", "--rep", rep]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: entry 'u + x2' at weight "
            "-1 names 'x2', not a generator of the weight ring at -1\n")

    @pytest.mark.parametrize("command", REP_COMMANDS)
    @pytest.mark.parametrize("entry", ["u+", "u^", "(", "", "u*"])
    def test_truncated_entry_is_input_error(self, capsys, tmp_path, command,
                                            entry):
        rep = self.rep_with(tmp_path, x=entry)
        assert main([command, "--rep", rep]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: x at weight -1: "
            f"polynomial {entry!r} ends too early\n")

    @pytest.mark.parametrize("command", REP_COMMANDS)
    def test_left_action_of_a_non_generator_is_input_error(
            self, capsys, tmp_path, command):
        # y always acts as y*I, so a "y" key, like any key that is no
        # generator of the target ring, would be silently ignored
        rep = self.rep_with(tmp_path)
        data = json.loads(Path(rep).read_text())
        data["E"]["-1"]["left"].update(y=[["u"]], zz=[["7"]])
        Path(rep).write_text(json.dumps(data))
        assert main([command, "--rep", rep]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: left action at weight -1 "
            "names 'y', not a generator of the weight ring at 1\n")

    @pytest.mark.parametrize("nest", ["poly", "json"])
    def test_deeply_nested_rep_is_input_error(self, capsys, tmp_path, nest):
        if nest == "poly":
            rep = self.rep_with(tmp_path, x="(" * 5000 + "u" + ")" * 5000)
        else:
            rep = tmp_path / "nested.json"
            rep.write_text("[" * 100_000)
        assert main(["check-rep", "--rep", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overlong_integer_is_input_error(self, capsys):
        # raw text, L(1) with tau a literal of 5,000 nines: json's own int
        # conversion raises a bare ValueError past the interpreter's digit
        # limit (4,300 by default)
        rep = GOLDEN / "overlong_int.json"
        assert main(["check-rep", "--rep", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed representation data: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        assert main(["identities", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["verify-all"],
                                      ["identities", "--report", "text"]])
    def test_unwritable_stdout_is_config_error(self, argv, unbuffered):
        # a full device fails the write (or, buffered, the flush): one error
        # line and exit 2, and the interpreter's last flush stays quiet
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "sl2prod.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
    @pytest.mark.parametrize("report", ["json", "text"])
    def test_closed_stdout_is_config_error(self, report):
        # with fd 1 closed, sys.stdout is None: one error line and exit 2
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "sl2prod.cli", "identities", "--report",
             report], preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
            env=env, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ("error: cannot write stdout: "
                               "[Errno 9] Bad file descriptor\n")

    @pytest.mark.skipif(os.name != "posix" or not Path("/dev/full").exists(),
                        reason="needs preexec_fn and /dev/full")
    @pytest.mark.parametrize("argv, stderr", [
        (["identities", "--weights=bad"], "closed"),
        (["verify-all", "--rep", "absent.json"], "closed"),
        (["identities", "--weights=bad"], "/dev/full")])
    def test_lost_error_line_is_config_error(self, tmp_path, argv, stderr):
        # a closed or full stderr loses the error line, not the exit 2
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        closed = stderr == "closed"
        with open(os.devnull if closed else stderr, "w") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "sl2prod.cli", *argv],
                preexec_fn=(lambda: os.close(2)) if closed else None,
                stdout=subprocess.PIPE, stderr=sink, cwd=tmp_path, env=env,
                text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("lam", range(-4, 5))
    def test_one_weight_window_passes_on_L1(self, capsys, lam):
        # the nilpotence bound comes from the support, not the window
        code, out = run_cli(["check-rep", f"--weights={lam}..{lam}"], capsys)
        assert code == 0
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    def test_failing_rep_exits_one(self, capsys, tmp_path):
        data = {
            "weights": {"-2": ["u"], "0": ["u"], "2": ["u"]},
            "E": {
                "-2": {"basis": ["e"], "left": {"u": [["u"]]}},
                "0": {"basis": ["e"], "left": {"u": [["u"]]}},
            },
            "x": {"-2": [["u"]], "0": [["u"]]},
            "tau": {"-2": [["0"]]},
        }
        p = tmp_path / "corrupt.json"
        p.write_text(json.dumps(data))
        code, out = run_cli(["check-rep", "--rep", str(p)], capsys)
        assert code == 1
        report = json.loads(out)
        assert any(c["status"] == "fail" for c in report["checks"])

    @pytest.mark.parametrize("window", [[], ["--weights=-10..10"]])
    def test_gate_checks_the_whole_support(self, capsys, tmp_path, window):
        # e2_tau0 shifted to weights 4, 6, 8, where rho fails at each
        # weight: the gate checks the input's support, not the report window
        data = json.loads((GOLDEN / "e2_tau0.json").read_text())
        p = tmp_path / "shifted.json"
        p.write_text(json.dumps({
            key: {str(int(w) + 6): v for w, v in part.items()}
            for key, part in data.items()}))
        code, out = run_cli(["verify-all", "--rep", str(p), *window], capsys)
        gate, = [c for c in json.loads(out)["checks"]
                 if c["id"] == "build-product.000"]
        assert code == 1
        assert gate["witness"] == (
            "input hypotheses fail: rho_4 iso; rho_6 iso; rho_8 iso")

    def test_model_failures_past_the_gate_are_failing_records(
            self, capsys, monkeypatch):
        # with the gate bypassed, E^2 != 0 leaves elements of corners 21
        # and 22 outside their models: each affected record fails with the
        # reason, an oracle's with the weight and column that raised it,
        # and the suite keeps its 60 records
        monkeypatch.setattr(cli, "check_construction",
                            lambda P: record("gate bypassed", True))
        code, out = run_cli(["build-product", "--rep",
                             str(GOLDEN / "e2_tau0.json")], capsys)
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        checks = json.loads(out)["checks"]
        assert len(checks) == 1 + 11 + 4 + 40 + 3 + 1
        why = "membership division leaves a remainder"
        outside = [(c["anchor"], c["witness"]) for c in checks
                   if why in c.get("witness", "")]
        assert outside == [
            ("product hecke: hecke[22]: tau^2 = 0",
             f"weight -2: crossed image not in G(3): {why}"),
            ("crossing closed = oracle, corner 21",
             f"weight 0, column 1: {why}"),
            ("crossing closed = oracle, corner 22",
             f"weight -2, column 2: {why}"),
            ("coevaluation pairing closed = oracle, corner 22, i=0",
             f"weight -2, column 0: {why}"),
            *((f"{kind}aluation pairing closed = oracle, corner 22, i={i}",
               f"weight {w}, column {j}: {why}")
              for i in range(1, 5)
              for kind, w, j in (("ev", 0, 4), ("coev", -2, 0))),
            ("unit composite: eta22 identity at -2", why)]

    @pytest.mark.parametrize("section, weight, line", [
        ("E", "5", "E entry at weight 5 needs the weight rings at 5 and 7"),
        ("x", "9", "x entry at weight 9, where E has no component"),
        ("tau", "3", "tau entry at weight 3, where EE has no component")])
    def test_entry_outside_its_module_is_input_error(self, capsys, tmp_path,
                                                     section, weight, line):
        # the parent dropped these entries and passed 142/142 on L(1)
        data = {
            "weights": {"-1": ["u"], "1": ["u"]},
            "E": {"-1": {"basis": ["e"], "left": {"u": [["u"]]}}},
            "x": {"-1": [["u"]]},
            "tau": {},
        }
        data[section][weight] = ({"basis": ["e", "f"], "left": {}}
                                 if section == "E" else [["1"]])
        p = tmp_path / "stray.json"
        p.write_text(json.dumps(data))
        assert main(["verify-all", "--rep", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed representation data: {line}\n")

    @pytest.mark.parametrize("edit, line", [
        # each loaded at the parent: a string read letter by letter as a
        # row or a matrix, a "basis" string by its number of letters, and
        # a weight named twice with the later entry winning
        (lambda d: d["x"].update({"-1": "u"}),
         "x at weight -1 is not a list of rows"),
        (lambda d: d["E"]["-1"]["left"].update(u=["u"]),
         "E's left action of u at weight -1 is not a list of rows"),
        (lambda d: d["E"]["-1"].update(basis="e"),
         'E at weight -1 is not an object with a "basis" list and a "left" '
         'object'),
        # exited 2 with "missing key 'u'", naming neither section nor weight
        (lambda d: d["E"]["-1"].update(left={}),
         "E at weight -1 has no left action of u"),
        (lambda d: d["x"].update({"-01": [["2*u"]]}),
         "x names weight -1 twice")],
        ids=["string-x", "string-left", "string-basis", "no-left",
             "weight-twice"])
    def test_input_read_as_written_or_rejected(self, capsys, tmp_path, edit,
                                               line):
        rep = self.rep_with(tmp_path)
        data = json.loads(Path(rep).read_text())
        edit(data)
        Path(rep).write_text(json.dumps(data))
        assert main(["verify-all", "--rep", rep]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed representation data: {line}\n")

    def test_builtin_alias_is_gone(self, capsys):
        # the default and --rep L1 name the built-in L(1); "builtin" is a
        # file name like any other
        assert run_cli(["check-rep", "--rep", "L1"], capsys) == run_cli(
            ["check-rep"], capsys)
        assert main(["check-rep", "--rep", "builtin"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read builtin")

    def test_undecodable_rep_file_is_input_error(self, capsys, tmp_path):
        # invalid UTF-8 is read as U+FFFD, which no schema field accepts
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"weights": {"-1": ["u\xff"]}}')
        assert main(["check-rep", "--rep", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: malformed representation data: the weight ring at -1 is "
            "not a list of distinct variable names\n")

    def test_empty_support_passes(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text('{"weights": {}}')
        assert main(["verify-all", "--rep", str(p)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        checks = json.loads(out)["checks"]
        assert len(checks) == 140
        assert all(c["status"] == "pass" for c in checks)


class TestReports:
    def test_json_schema(self, capsys):
        code, out = run_cli(["identities"], capsys)
        report = json.loads(out)
        assert set(report) == {"version", "config", "checks"}
        assert report["config"]["command"] == "identities"
        for c in report["checks"]:
            assert set(c) >= {"id", "anchor", "status"}
            assert c["id"].startswith("identities.")

    def test_text_format(self, capsys):
        code, out = run_cli(["identities", "--report", "text"], capsys)
        assert code == 0
        assert "checks passed" in out.splitlines()[-1]

    def test_out_file(self, capsys, tmp_path):
        p = tmp_path / "report.json"
        code = main(["identities", "--out", str(p)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(p.read_text())["checks"]

    def test_i_max_reaches_identities(self, capsys, monkeypatch):
        seen = []
        real = cli.suite_identities

        def spy(field, *args, **kwargs):
            seen.append(args or kwargs)
            return real(field, *args, **kwargs)

        monkeypatch.setattr(cli, "suite_identities", spy)
        code, _ = run_cli(["identities", "--i-max", "3"], capsys)
        assert code == 0
        assert seen == [(3,)]
        # on L(1) the bound changes no record, so reports stay the same
        assert cli.suite_identities(QQ, 4) == cli.suite_identities(QQ, 8)

    @pytest.mark.parametrize("i_max", ["0", "4"])
    def test_mutated_h_fails_every_fact(self, capsys, monkeypatch, i_max):
        # h_k + x^k for k >= 1 (x the first variable) still agrees with h_k
        # below degree 1, so each fact catches it only at some i >= 3
        real = cli.h_complete

        def mutated(i, names, field):
            h = real(i, names, field)
            return h + Poly.var(field, sorted(names)[0]) ** i if i >= 1 else h

        monkeypatch.setattr(cli, "h_complete", mutated)
        code, out = run_cli(["identities", "--i-max", i_max], capsys)
        facts = [c for c in json.loads(out)["checks"]
                 if c["anchor"].startswith("fact:")]
        assert code == 1
        assert len(facts) == 4
        assert all(c["status"] == "fail" for c in facts)

    def test_h_facts_reach_degree_four(self, capsys, monkeypatch):
        # h_2 of three variables plus x1^2 passes every fact for i <= 3;
        # facts 3 and 4 have Q(t) = (1 - x1 t)(1 - x2 t)(1 - y t) and index
        # shift 2, so they need i = 4 even at --i-max 0
        real = cli.h_complete

        def mutated(i, names, field):
            h = real(i, names, field)
            return h + Poly.var(field, "x1") ** 2 if (
                i == 2 and len(names) == 3) else h

        monkeypatch.setattr(cli, "h_complete", mutated)
        code, out = run_cli(["identities", "--i-max", "0"], capsys)
        failed = [c["anchor"] for c in json.loads(out)["checks"]
                  if c["status"] != "pass"]
        assert code == 1
        assert failed == [
            "fact: sum x1^j h_(k-1)(x2,y) = h_(i-2)(x1,x2,y)",
            "fact: y_2 h_(i-2)(x1,x2,y) = h_(i-1)(x1,x2) - h_(i-1)(x1,y)"]

    def test_negated_divided_difference_fails_hecke_records(
            self, capsys, monkeypatch):
        # tau acting as -d flips the sign of every word with an odd number
        # of crossings; the dd: and fact: records use cli's own
        # divided_difference and e+ e- = e- e+ = 0 survive any sign
        real = nilhecke.divided_difference
        monkeypatch.setattr(nilhecke, "divided_difference",
                            lambda f, i: -real(f, i))
        code, out = run_cli(["identities"], capsys)
        failed = [c["anchor"] for c in json.loads(out)["checks"]
                  if c["status"] != "pass"]
        assert code == 1
        assert failed == ["crossing chain normal form",
                          "idempotents: e+ + e- = 1",
                          "idempotents: e+^2 = e+",
                          "idempotents: e-^2 = e-"]
        assert len(json.loads(out)["checks"]) == 12

    def test_suite_filtering(self, capsys):
        _, out = run_cli(["check-rep"], capsys)
        report = json.loads(out)
        prefixes = {c["id"].split(".")[0] for c in report["checks"]}
        assert prefixes == {"check-rep"}


class TestDeterminism:
    def test_verify_all_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify-all", "--seed", "0", "--out", str(a)]) == 0
        assert main(["verify-all", "--seed", "0", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_verify_all_ignores_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify-all", "--seed", "0", "--out", str(a)]) == 0
        assert main(["verify-all", "--seed", "7", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_verify_all_all_pass(self, capsys):
        code, out = run_cli(["verify-all"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["checks"]) > 100
        assert all(c["status"] == "pass" for c in report["checks"])


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter (no site hooks) imports the CLI without either
    # module, which together add about 12 ms to every start-up
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, sl2prod.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
