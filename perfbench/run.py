"""Time-to-verdict benchmark for verifycli.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 \\
        --seconds 30 --trace 0

Each verdict is a fresh ``python -m sl2prod.cli ...`` child process, started
one at a time from this process, with ``PYTHONPATH`` set to the checkout's
``src``.  Every run passes the verdict gate (known exit code, check count and
all-pass status, byte-identical reports for one seed, no traceback, no
timeout) or counts as failed.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced runs with runs under ``perfbench/tracer.py`` and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402

CHILD_TIMEOUT_S = 120
SETUP_REPS = 9
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_CODE = ("import sl2prod, sl2prod.cli\n"
              "from sl2prod.tworep import make_L1\n"
              "make_L1()\n"
              "print(sl2prod.__file__)\n")


# ---------------------------------------------------------------------------
# workloads and their known answers
#
# On L(1) the construction's theorem holds, so every check passes and the
# exit code is 0.  The number of checks follows from the structure of each
# suite, not from a previous run's report.

L1_WEIGHTS = 2  # the weights -1 and +1 of L(1)


def identities_checks():
    # two divided-difference relations, facts 1-4, the crossing chain,
    # and five divided-power idempotent relations
    return 2 + 4 + 1 + 5


def check_rep_checks(lo, hi):
    width = hi - lo + 1
    hecke = 3 + 1             # three relations on E^2, the braid on E^3
    hypotheses = (1           # (a) finite free components
                  + 2         # (b) E^1 and E^2 free
                  + 2 * width  # (c) E and F locally nilpotent per weight
                  + width)    # (d) rho_lam iso per weight
    return hecke + hypotheses


def build_product_checks(i_max):
    return (1                 # construction checks
            + 3 * 3 + 2       # product Hecke: corners 11, 12, 21; corner 22
            + 4               # crossing closed = oracle, per corner
            + 2 * 4 * (i_max + 1)  # both pairings, per corner and i
            + L1_WEIGHTS      # unit composite, per weight
            + 1)              # middle linearity


def check_rho_checks(lo, hi):
    # four records per weight, plus the weight-0 assembly comparison
    return 4 * (hi - lo + 1) + 1


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    checks: int
    exit_code: int = 0
    all_pass: bool = True

    def argv(self, seed):
        return ["-m", "sl2prod.cli", *self.args, "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("verify-default",
             ("verify-all", "--field", "QQ", "--weights=-4..4",
              "--i-max", "4"),
             identities_checks() + check_rep_checks(-4, 4)
             + build_product_checks(4) + check_rho_checks(-4, 4)),
    Workload("rho-wide",
             ("check-rho", "--weights=-40..40", "--field", "QQ"),
             check_rho_checks(-40, 40)),
    Workload("pairings-gf7",
             ("build-product", "--field", "7", "--i-max", "16"),
             build_product_checks(16)),
)}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def child_env():
    """The environment of every child: the checkout's sources, bytecode
    cached under .bench_build so that repeated imports read it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run ``python argv`` to completion; wall time is spawn to exit and the
    CPU time and peak RSS come from the child's own rusage."""
    killed = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss, out, err[0], killed.is_set())


def verdict_faults(run, workload, reference):
    """Why ``run`` misses the workload's known answer; empty if it meets it.

    ``reference`` is the report of an earlier run with the same seed, or
    None for the first run.
    """
    faults = []
    if run.timed_out:
        faults.append(f"timed out after {CHILD_TIMEOUT_S} s")
    if b"Traceback (most recent call last)" in run.stderr:
        faults.append("printed a traceback")
    if run.exit_code != workload.exit_code:
        faults.append(f"exit code {run.exit_code}, "
                      f"expected {workload.exit_code}")
    try:
        checks = json.loads(run.stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        faults.append("no JSON report")
        return faults
    if len(checks) != workload.checks:
        faults.append(f"{len(checks)} checks, expected {workload.checks}")
    passed = sum(1 for c in checks if c.get("status") == "pass")
    if (passed == len(checks)) != workload.all_pass:
        faults.append(f"{passed}/{len(checks)} checks passed")
    if reference is not None and run.stdout != reference:
        faults.append("report differs from the first run with this seed")
    return faults


def setup_times(reps):
    """Wall time of ``reps`` fresh interpreters that import the CLI and build
    the L(1) input, after one untimed run that also compiles the bytecode.
    Exits with code 2 if the checkout's sources do not load."""
    warm = run_child(["-c", SETUP_CODE])
    loaded = Path(warm.stdout.decode().strip() or ".").resolve()
    if warm.exit_code != 0 or ROOT / "src" not in loaded.parents:
        sys.stderr.write(warm.stderr.decode(errors="replace"))
        print(f"error: sl2prod does not load from {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    samples = []
    for _ in range(reps):
        run = run_child(["-c", SETUP_CODE])
        if run.exit_code != 0:
            print("error: set-up run failed", file=sys.stderr)
            sys.exit(2)
        samples.append(run.wall_s)
    return samples


# ---------------------------------------------------------------------------
# statistics


TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def describe(values, unit):
    """Median, and the highest percentile with at least ten samples beyond
    it, with the sample count."""
    n = len(values)
    med = statistics.median(values)
    text = f"median {med:.4f} {unit}"
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            text += f", p{p:g} {cut[round(p * 10) - 1]:.4f} {unit}"
            break
    else:
        text += ", no tail percentile (fewer than 20 samples)"
    return f"{text}, n={n}"


# ---------------------------------------------------------------------------
# modes


def measure(workload, seed, seconds):
    """Untraced runs for ``seconds`` seconds; end-to-end metrics."""
    setup = setup_times(SETUP_REPS)
    runs, failed, reference = [], 0, None
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        run = run_child(workload.argv(seed))
        faults = verdict_faults(run, workload, reference)
        reference = run.stdout if reference is None else reference
        failed += bool(faults)
        runs.append(run)
        print(f"run {len(runs)}: {run.wall_s:.4f} s wall, {run.cpu_s:.4f} s "
              f"cpu, exit {run.exit_code}"
              + (f", FAILED: {'; '.join(faults)}" if faults else ""))
    series = {
        "verdict_s": ([r.wall_s for r in runs], "s"),
        "verdict_cpu_s": ([r.cpu_s for r in runs], "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([r.maxrss_kb / 1024 for r in runs], "MB"),
        "checks_per_s": ([workload.checks / r.wall_s for r in runs], "1/s"),
    }
    for name, (values, unit) in series.items():
        print(f"{name}: {describe(values, unit)}")
    print(f"failed_ratio: {failed}/{len(runs)} = {failed / len(runs):.4f}")
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in series.items()}
    return len(runs), failed, metrics


def measure_traced(workload, seed, seconds):
    """Untraced and traced runs in turn, for at least ``seconds`` seconds and
    two traced runs; per-layer metrics and the tracing overhead."""
    OUT.mkdir(exist_ok=True)
    plain, traced, traces = [], [], []
    failed, reference = 0, None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        trace_file = OUT / f"trace-{workload.name}-{seed}-{len(traced)}.json"
        for kind in ("untraced", "traced"):
            argv = workload.argv(seed)
            if kind == "traced":
                argv = [str(HERE / "tracer.py"), "--trace-out",
                        str(trace_file), "--", *argv[2:]]
            run = run_child(argv)
            faults = verdict_faults(run, workload, reference)
            reference = run.stdout if reference is None else reference
            if kind == "traced" and not faults:
                with open(trace_file, encoding="utf-8") as fh:
                    trace = json.load(fh)
                if trace["missing_hooks"]:
                    print("hooks not found: "
                          + ", ".join(trace["missing_hooks"]))
                traces.append(trace["metrics"])
            failed += bool(faults)
            (traced if kind == "traced" else plain).append(run)
            print(f"{kind} run: {run.wall_s:.4f} s wall, exit {run.exit_code}"
                  + (f", FAILED: {'; '.join(faults)}" if faults else ""))
    calls = [{k: v for k, v in t.items() if k.endswith(".calls")}
             for t in traces]
    counts_differ = any(c != calls[0] for c in calls[1:])
    if counts_differ:
        print("FAILED: call counts differ between traced runs")
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.verdict_s":
            values = [r.wall_s for r in traced]
        elif name == "trace.overhead_ratio":
            values = [statistics.median(r.wall_s for r in traced)
                      / statistics.median(r.wall_s for r in plain)]
        elif unit == "count":
            values = [t[name] for t in traces[:1]] or [0]  # equal in all
        else:
            values = [t[name] for t in traces] or [0]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name}: {metrics[name]['value']:.6g} {unit}")
    print(f"tracing overhead: traced median "
          f"{metrics['trace.verdict_s']['value']:.4f} s vs untraced median "
          f"{statistics.median(r.wall_s for r in plain):.4f} s")
    attempted = len(plain) + len(traced)
    return attempted, failed, metrics, counts_differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sl2prod" / "cli.py").is_file():
        print(f"error: no sl2prod sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{' '.join(workload.argv(args.seed))}; known answer exit "
          f"{workload.exit_code}, {workload.checks} checks, all pass")
    if args.trace:
        attempted, failed, metrics, counts_differ = measure_traced(
            workload, args.seed, args.seconds)
    else:
        attempted, failed, metrics = measure(workload, args.seed, args.seconds)
        counts_differ = False
    print(json.dumps({"correct": failed == 0 and not counts_differ,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
