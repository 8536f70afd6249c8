"""Per-layer tracing for the verifycli benchmark.

Run as a script, this imports ``sl2prod``, wraps the public functions of each
layer (every module binding of them, because the modules import each other
with ``from .x import y``), runs ``sl2prod.cli.main`` on the arguments after
``--``, and writes the trace to the file named by ``--trace-out``::

    PYTHONPATH=src python3 perfbench/tracer.py --trace-out t.json -- \\
        check-rho --weights=-4..4

The report goes to standard output exactly as the untraced CLI prints it, and
the exit code is the CLI's.

Every wrapped call is a span (name, start, end, parent).  Spans of the cli,
product and tworep layers are kept one by one; the arithmetic layers below
them run millions of calls per verdict, so their spans are folded into
per-(parent, name) aggregates as they close.  A span's self time is its
duration minus the time covered by its child spans, and a layer's self time
is the sum over its spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute, span name).  "Class.method" attributes are
# patched on the class, together with any alias in the class body
# (``__radd__ = __add__``); module functions are patched in every sl2prod
# module that holds a binding to them.
HOOKS = [
    ("cli", "sl2prod.cli", "suite_identities", "identities"),
    ("cli", "sl2prod.cli", "suite_check_rep", "check-rep"),
    ("cli", "sl2prod.cli", "suite_build_product", "build-product"),
    ("cli", "sl2prod.cli", "suite_check_rho", "check-rho"),

    ("polyring", "sl2prod.polyring", "Poly.__init__", "poly_new"),
    ("polyring", "sl2prod.polyring", "Poly.__add__", "add"),
    ("polyring", "sl2prod.polyring", "Poly.__sub__", "sub"),
    ("polyring", "sl2prod.polyring", "Poly.__rsub__", "rsub"),
    ("polyring", "sl2prod.polyring", "Poly.__neg__", "neg"),
    ("polyring", "sl2prod.polyring", "Poly.__mul__", "mul"),
    ("polyring", "sl2prod.polyring", "Poly.__pow__", "pow"),
    ("polyring", "sl2prod.polyring", "Poly.__eq__", "eq"),
    ("polyring", "sl2prod.polyring", "Poly.with_vars", "with_vars"),
    ("polyring", "sl2prod.polyring", "Poly.subs", "subs"),
    ("polyring", "sl2prod.polyring", "Poly.swap_x", "swap_x"),
    ("polyring", "sl2prod.polyring", "Poly.coeff_of", "coeff_of"),
    ("polyring", "sl2prod.polyring", "exact_divide", "exact_divide"),
    ("polyring", "sl2prod.polyring", "h_complete", "h_complete"),
    ("polyring", "sl2prod.polyring", "divided_difference",
     "divided_difference"),
    ("polyring", "sl2prod.polyring", "parse_poly", "parse_poly"),

    ("nilhecke", "sl2prod.nilhecke", "normalize", "normalize"),
    ("nilhecke", "sl2prod.nilhecke", "NilHeckeElt.__mul__", "mul"),
    ("nilhecke", "sl2prod.nilhecke", "NilHeckeElt.__add__", "add"),
    ("nilhecke", "sl2prod.nilhecke", "NilHeckeElt.__sub__", "sub"),
    ("nilhecke", "sl2prod.nilhecke", "NilHeckeElt.__eq__", "eq"),
    ("nilhecke", "sl2prod.nilhecke", "act_on_poly", "act_on_poly"),

    ("matrixops", "sl2prod.matrixops", "Matrix.__init__", "matrix_new"),
    ("matrixops", "sl2prod.matrixops", "Matrix.__matmul__", "matmul"),
    ("matrixops", "sl2prod.matrixops", "Matrix.__add__", "add"),
    ("matrixops", "sl2prod.matrixops", "Matrix.__sub__", "sub"),
    ("matrixops", "sl2prod.matrixops", "Matrix.__neg__", "neg"),
    ("matrixops", "sl2prod.matrixops", "Matrix.scale", "scale"),
    ("matrixops", "sl2prod.matrixops", "Matrix.__eq__", "eq"),
    ("matrixops", "sl2prod.matrixops", "block_matrix", "block_matrix"),
    ("matrixops", "sl2prod.matrixops", "kron_identity_left",
     "kron_identity_left"),
    ("matrixops", "sl2prod.matrixops", "bareiss_determinant", "bareiss"),
    ("matrixops", "sl2prod.matrixops", "adjugate", "adjugate"),

    ("bimodcat", "sl2prod.bimodcat", "tensor_over_A", "tensor_over_A"),
    ("bimodcat", "sl2prod.bimodcat", "SumBimodule.__init__", "sum_bimodule"),
    ("bimodcat", "sl2prod.bimodcat", "compose", "compose"),
    ("bimodcat", "sl2prod.bimodcat", "compose_all", "compose_all"),
    ("bimodcat", "sl2prod.bimodcat", "tensor_id_left", "tensor_id_left"),
    ("bimodcat", "sl2prod.bimodcat", "tensor_id_right", "tensor_id_right"),
    ("bimodcat", "sl2prod.bimodcat", "direct_sum_maps", "direct_sum_maps"),
    ("bimodcat", "sl2prod.bimodcat", "identity_map", "identity_map"),
    ("bimodcat", "sl2prod.bimodcat", "zero_map", "zero_map"),
    ("bimodcat", "sl2prod.bimodcat", "certify_iso", "certify_iso"),
    ("bimodcat", "sl2prod.bimodcat", "inverse_map", "inverse_map"),
    ("bimodcat", "sl2prod.bimodcat", "Bimodule.left_poly", "left_poly"),
    ("bimodcat", "sl2prod.bimodcat", "BimoduleMap.__add__", "map_add"),
    ("bimodcat", "sl2prod.bimodcat", "BimoduleMap.__sub__", "map_sub"),
    ("bimodcat", "sl2prod.bimodcat", "BimoduleMap.scale", "map_scale"),
    ("bimodcat", "sl2prod.bimodcat", "BimoduleMap.__eq__", "map_eq"),
    ("bimodcat", "sl2prod.bimodcat", "BimoduleMap.is_zero", "map_is_zero"),
    ("bimodcat", "sl2prod.bimodcat", "BimoduleMap.is_welldefined",
     "is_welldefined"),

    ("tworep", "sl2prod.tworep", "TwoRep.rebase", "rebase"),
    ("tworep", "sl2prod.tworep", "TwoRep.lift", "lift"),
    ("tworep", "sl2prod.tworep", "TwoRep.x_at", "x_at"),
    ("tworep", "sl2prod.tworep", "TwoRep.y_at", "y_at"),
    ("tworep", "sl2prod.tworep", "TwoRep.tau_at", "tau_at"),
    ("tworep", "sl2prod.tworep", "TwoRep.eps_at", "eps_at"),
    ("tworep", "sl2prod.tworep", "TwoRep.eta_at", "eta_at"),
    ("tworep", "sl2prod.tworep", "TwoRep.h_xy", "h_xy"),
    ("tworep", "sl2prod.tworep", "TwoRep.adjoin_y", "adjoin_y"),
    ("tworep", "sl2prod.tworep", "make_L1", "make_L1"),
    ("tworep", "sl2prod.tworep", "rep_from_json", "rep_from_json"),
    ("tworep", "sl2prod.tworep", "left_dual", "left_dual"),
    ("tworep", "sl2prod.tworep", "check_hecke", "check_hecke"),
    ("tworep", "sl2prod.tworep", "check_hypotheses", "check_hypotheses"),
    ("tworep", "sl2prod.tworep", "sigma", "sigma"),
    ("tworep", "sl2prod.tworep", "eps_xi", "eps_xi"),
    ("tworep", "sl2prod.tworep", "xi_eta", "xi_eta"),
    ("tworep", "sl2prod.tworep", "self_pow", "self_pow"),
    ("tworep", "sl2prod.tworep", "rho", "rho"),

    ("product", "sl2prod.product.core", "build_product", "build_product"),
    ("product", "sl2prod.product.core", "tilde_x_pow", "tilde_x_pow"),
    ("product", "sl2prod.product.core", "tilde_tau", "tilde_tau"),
    ("product", "sl2prod.product.core", "tilde_sigma_closed",
     "tilde_sigma_closed"),
    ("product", "sl2prod.product.core", "eps_xi_F_closed", "eps_xi_F_closed"),
    ("product", "sl2prod.product.core", "F_xi_eta_closed", "F_xi_eta_closed"),
    ("product", "sl2prod.product.oracles", "tilde_sigma_oracle",
     "tilde_sigma_oracle"),
    ("product", "sl2prod.product.oracles", "eps_xi_F_oracle",
     "eps_xi_F_oracle"),
    ("product", "sl2prod.product.oracles", "F_xi_eta_oracle",
     "F_xi_eta_oracle"),
    ("product", "sl2prod.product.oracles", "check_product_hecke",
     "check_product_hecke"),
    ("product", "sl2prod.product.oracles", "check_eta22_identity",
     "check_eta22_identity"),
    ("product", "sl2prod.product.oracles", "check_omega3_linearity",
     "check_omega3_linearity"),
    ("product", "sl2prod.product.gammas", "omega3_map", "omega3_map"),
    ("product", "sl2prod.product.gammas", "omega3_apply", "omega3_apply"),
    ("product", "sl2prod.product.rho", "tilde_rho", "tilde_rho"),
    ("product", "sl2prod.product.rho", "_corner_rho", "corner_rho"),
    ("product", "sl2prod.product.rho", "triangular_certificate",
     "triangular_certificate"),
]

LAYERS = ("cli", "polyring", "nilhecke", "matrixops", "bimodcat", "tworep",
          "product")
SPAN_LAYERS = {"cli", "product", "tworep"}

# Timers: the wall time during which at least one of the listed spans is
# open, so nested or recursive calls are counted once.
TIMERS = {
    "cli.identities": ("cli.identities",),
    "cli.check-rep": ("cli.check-rep",),
    "cli.build-product": ("cli.build-product",),
    "cli.check-rho": ("cli.check-rho",),
    "tworep.lift": ("tworep.lift",),
    "product.linearity": ("product.check_omega3_linearity",),
    "product.hecke": ("product.check_product_hecke",),
    "product.closed": ("product.tilde_sigma_closed",
                       "product.eps_xi_F_closed", "product.F_xi_eta_closed"),
    "product.oracle": ("product.tilde_sigma_oracle", "product.eps_xi_F_oracle",
                       "product.F_xi_eta_oracle"),
    "product.rho": ("product.tilde_rho", "product.corner_rho"),
    "product.certificate": ("product.triangular_certificate",
                            "bimodcat.certify_iso"),
}

CALL_METRICS = (
    "polyring.poly_new", "polyring.mul", "polyring.add",
    "polyring.exact_divide", "polyring.divided_difference",
    "nilhecke.normalize", "nilhecke.mul",
    "matrixops.matrix_new", "matrixops.matmul", "matrixops.bareiss",
    "bimodcat.tensor_over_A", "bimodcat.sum_bimodule", "bimodcat.compose",
    "bimodcat.left_poly", "bimodcat.certify_iso",
    "tworep.lift", "tworep.h_xy",
    "product.omega3_map", "product.tilde_rho",
)

# Every per-layer metric a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    [(f"cli.{s}_s", "s")
     for s in ("identities", "check-rep", "build-product", "check-rho")]
    + [(f"{name}.calls", "count") for name in CALL_METRICS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS[1:]]
    + [("tworep.lift_s", "s"), ("tworep.lift.tensors_per_call", "ratio"),
       ("product.linearity_s", "s"), ("product.hecke_s", "s"),
       ("product.closed_s", "s"), ("product.oracle_s", "s"),
       ("product.closed.calls", "count"),
       ("product.closed.distinct_ratio", "ratio"),
       ("product.rho_s", "s"), ("product.certificate_s", "s"),
       ("trace.verdict_s", "s"), ("trace.overhead_ratio", "ratio")]
)
# The last two compare a traced run with untraced ones; run.py fills them in.


class Tracer:
    """Span bookkeeping for the wrappers that ``install`` puts in place."""

    def __init__(self):
        # frame: [span name, time covered by child spans, recorded span id]
        self.stack = [[None, 0.0, -1]]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.timer_s = defaultdict(float)
        self.timer_calls = Counter()
        self.depth = Counter()
        self.spans = []
        self.lift_tensors = 0
        self.closed_keys = set()

    def wrap(self, name, fn, record):
        """``fn`` wrapped in a span called ``name``."""
        stack, calls, self_s = self.stack, self.calls, self.self_s
        edges, spans, depth = self.edges, self.spans, self.depth
        timer_s, timer_calls = self.timer_s, self.timer_calls
        timers = tuple(t for t, members in TIMERS.items() if name in members)
        enter = self._entry_hook(name, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            for t in timers:
                depth[t] += 1
                timer_calls[t] += 1
            parent = stack[-1]
            if record:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                parent[1] += dur
                edge = edges[(parent[0], name)]
                edge[0] += 1
                edge[1] += dur
                for t in timers:
                    depth[t] -= 1
                    if not depth[t]:
                        timer_s[t] += dur
                if record:
                    spans[span_id] = (name, start, end, parent[2])

        return traced

    def _entry_hook(self, name, fn):
        if name == "bimodcat.tensor_over_A":
            def count_lift_tensor(args, kwargs):
                if self.depth["tworep.lift"]:
                    self.lift_tensors += 1
            return count_lift_tensor
        if name in TIMERS["product.closed"]:
            sig = inspect.signature(fn)

            def record_key(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                self.closed_keys.add(
                    (name, bound.get("corner"), bound.get("i")))
            return record_key
        return None

    def metrics(self):
        """Per-layer metrics of the traced run (without the trace.* pair)."""
        out = {f"{t}_s": self.timer_s[t] for t in TIMERS}
        out.update({f"{n}.calls": self.calls[n] for n in CALL_METRICS})
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items()
                if k.startswith(layer + "."))
        lifts = self.calls["tworep.lift"]
        out["tworep.lift.tensors_per_call"] = (
            self.lift_tensors / lifts if lifts else 0.0)
        closed = self.timer_calls["product.closed"]
        out["product.closed.calls"] = closed
        out["product.closed.distinct_ratio"] = (
            len(self.closed_keys) / closed if closed else 0.0)
        return out

    def dump(self):
        """The trace as JSON-ready data."""
        return {
            "metrics": self.metrics(),
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t}
                      for (p, n), (c, t) in sorted(
                          self.edges.items(), key=lambda kv: -kv[1][1])],
        }


def install(tracer):
    """Wrap every hook; returns the hooks that could not be found."""
    missing = []
    package = [m for name, m in list(sys.modules.items())
               if name == "sl2prod" or name.startswith("sl2prod.")]
    for layer, module, attr, short in HOOKS:
        name = f"{layer}.{short}"
        record = layer in SPAN_LAYERS
        owner = importlib.import_module(module)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapped = tracer.wrap(name, orig, record)
            for key, value in list(vars(cls).items()):
                if value is orig:
                    setattr(cls, key, wrapped)
            continue
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(name, orig, record)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return missing


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: tracer.py --trace-out FILE -- <verifycli args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="tracer.py")
    parser.add_argument("--trace-out", required=True)
    opts = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    cli = importlib.import_module("sl2prod.cli")
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print("tracer: hooks not found: " + ", ".join(missing),
              file=sys.stderr)
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        data = tracer.dump()
        data["wall_s"] = time.perf_counter() - start
        data["missing_hooks"] = missing
        with open(opts.trace_out, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
