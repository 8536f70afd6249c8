"""Tests of the benchmark itself: the verdict gate, its negative control, and
the tracer's bookkeeping.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import (OUT, ROOT, WORKLOADS, ChildRun, run_child,  # noqa: E402
                 verdict_faults)
from tracer import PER_LAYER, Tracer  # noqa: E402


def fake_run(n_checks, failing=0, exit_code=0, stderr=b"", stdout=None):
    checks = [{"id": f"s.{k:03d}", "status": "fail" if k < failing else "pass"}
              for k in range(n_checks)]
    if stdout is None:
        stdout = json.dumps({"checks": checks}).encode()
    return ChildRun(exit_code, 1.0, 1.0, 1, stdout, stderr, False)


class KnownAnswers(unittest.TestCase):
    def test_check_counts(self):
        self.assertEqual(WORKLOADS["verify-default"].checks, 142)
        self.assertEqual(WORKLOADS["rho-wide"].checks, 325)
        self.assertEqual(WORKLOADS["pairings-gf7"].checks, 155)


class VerdictGate(unittest.TestCase):
    wl = WORKLOADS["rho-wide"]

    def test_accepts_known_answer(self):
        run = fake_run(325)
        self.assertEqual(verdict_faults(run, self.wl, None), [])
        self.assertEqual(verdict_faults(run, self.wl, run.stdout), [])

    def test_flags_each_deviation(self):
        good = fake_run(325)
        cases = {
            "count": fake_run(324),
            "status": fake_run(325, failing=1),
            "exit": fake_run(325, exit_code=1),
            "traceback": fake_run(
                325, stderr=b"Traceback (most recent call last):\n"),
            "no report": fake_run(325, stdout=b"{"),
            "bytes": fake_run(325, stdout=good.stdout + b"\n"),
        }
        for what, run in cases.items():
            with self.subTest(what):
                self.assertTrue(verdict_faults(run, self.wl, good.stdout))
        late = fake_run(325)
        late.timed_out = True
        self.assertTrue(verdict_faults(late, self.wl, None))

    def test_negative_control(self):
        """L(1) with x at weight -1 replaced by 2u is not a valid input; the
        gate must flag the verdict."""
        sys.path.insert(0, str(ROOT / "src"))
        from sl2prod.tworep import make_L1, rep_to_json
        data = rep_to_json(make_L1())
        data["x"]["-1"] = [["2*u"]]
        OUT.mkdir(exist_ok=True)
        path = OUT / "mutated-L1.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        wl = WORKLOADS["verify-default"]
        argv = wl.argv(0)
        run = run_child(argv[:3] + ["--rep", str(path)] + argv[3:])
        self.assertTrue(verdict_faults(run, wl, None))
        self.assertEqual(run.exit_code, 1)
        checks = json.loads(run.stdout)["checks"]
        self.assertEqual(len(checks), 48)
        self.assertEqual(sum(c["status"] == "pass" for c in checks), 45)
        bad = next(c for c in checks if c["id"] == "check-rep.005")
        self.assertEqual(bad["status"], "fail")
        self.assertEqual(bad["witness"],
                         "x_1 at weight -1 not a scalar variable")


class TracerBookkeeping(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        tracer = Tracer()
        inner = tracer.wrap("product.inner", lambda n: sum(range(n)), True)
        leaf = tracer.wrap("polyring.leaf", lambda n: sum(range(n)), False)

        def body():
            leaf(10_000)
            return inner(50_000) + inner(50_000)

        outer = tracer.wrap("cli.outer", body, True)
        outer()
        spans = tracer.spans
        self.assertEqual([s[0] for s in spans],
                         ["cli.outer", "product.inner", "product.inner"])
        self.assertEqual([s[3] for s in spans], [-1, 0, 0])
        dur = {k: e - s for k, (_, s, e, _) in enumerate(spans)}
        children = dur[1] + dur[2] + tracer.edges[("cli.outer",
                                                   "polyring.leaf")][1]
        self.assertAlmostEqual(tracer.self_s["cli.outer"], dur[0] - children,
                               places=9)
        self.assertEqual(tracer.calls["product.inner"], 2)
        self.assertEqual(tracer.calls["polyring.leaf"], 1)

    def test_hooks_found_and_counts_match_cprofile(self):
        """Every hook exists, and the wrappers see every call that cProfile
        sees, through every module binding."""
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / "selftest-trace.json"
        args = ["check-rho", "--weights=-1..1"]
        traced = run_child([str(HERE / "tracer.py"), "--trace-out",
                            str(trace_file), "--", *args])
        self.assertEqual(traced.exit_code, 0, traced.stderr)
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        self.assertEqual(trace["missing_hooks"], [])
        profile = ("import cProfile, contextlib, io, json, pstats\n"
                   "from sl2prod import cli\n"
                   "p = cProfile.Profile()\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    p.runcall(cli.main, {args!r})\n"
                   "print(json.dumps([[k[0], k[1], v[1]] for k, v\n"
                   "                  in pstats.Stats(p).stats.items()]))\n")
        prof = run_child(["-c", profile])
        self.assertEqual(prof.exit_code, 0, prof.stderr)
        seen = {(Path(f).resolve(), line): n
                for f, line, n in json.loads(prof.stdout)}
        sys.path.insert(0, str(ROOT / "src"))
        from sl2prod.bimodcat import SumBimodule, compose, tensor_over_A
        from sl2prod.matrixops import Matrix
        from sl2prod.polyring import Poly
        from sl2prod.product.rho import tilde_rho
        for metric, fn in [
                ("polyring.poly_new.calls", Poly.__init__),
                ("matrixops.matrix_new.calls", Matrix.__init__),
                ("bimodcat.tensor_over_A.calls", tensor_over_A),
                ("bimodcat.sum_bimodule.calls", SumBimodule.__init__),
                ("bimodcat.compose.calls", compose),
                ("product.tilde_rho.calls", tilde_rho)]:
            code = fn.__code__
            with self.subTest(metric):
                self.assertGreater(trace["metrics"][metric], 0)
                self.assertEqual(
                    trace["metrics"][metric],
                    seen[(Path(code.co_filename).resolve(),
                          code.co_firstlineno)])

    def test_per_layer_list_matches_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
