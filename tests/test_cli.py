"""Command-line verifier: exit codes, report formats, determinism."""

import json

import pytest

from sl2prod.cli import main


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

    def test_non_numeric_field_is_config_error(self, capsys):
        assert main(["identities", "--field", "abc"]) == 2
        assert capsys.readouterr().err == (
            "error: bad field 'abc': expected QQ or a prime\n")

    def test_missing_rep_file(self, capsys, tmp_path):
        assert main(["check-rep", "--rep", str(tmp_path / "nope.json")]) == 2

    def test_malformed_rep_file(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"weights": "not a dict"}')
        assert main(["check-rep", "--rep", str(p)]) == 2

    def test_failing_rep_exits_one(self, capsys, tmp_path):
        from test_tworep import corrupted_rep  # noqa: F401
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


class TestReports:
    def test_json_schema(self, capsys):
        code, out = run_cli(["identities"], capsys)
        report = json.loads(out)
        assert set(report) == {"version", "config", "checks"}
        assert report["config"]["command"] == "identities"
        for c in report["checks"]:
            assert set(c) >= {"id", "anchor", "status", "millis"}
            assert c["id"].startswith("identities.")
            assert c["millis"] == 0  # deterministic without --timings

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

    def test_verify_all_all_pass(self, capsys):
        code, out = run_cli(["verify-all"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["checks"]) > 100
        assert all(c["status"] == "pass" for c in report["checks"])
