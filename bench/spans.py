"""Tracing from outside the library: wrappers around ffcalc's public
functions record one span per call, and per-layer metrics are derived from
the spans afterwards.

A span is (name, start, end, parent span, op id, counts). Spans stay in
memory until the run ends. A layer's self time is its spans' durations minus
the time covered by their child spans. Wrappers are installed by replacing
every binding of the wrapped object in the loaded ``ffcalc`` modules, so
calls from inside the library are seen as well; anything a later version no
longer has is skipped and reads zero.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute) of the wrapped public functions
FUNCTIONS = {
    "fractal_curve.gamma_dimension": [("ffcalc.fractal_curve", "gamma_dimension")],
    "fractal_curve.mass_function": [("ffcalc.fractal_curve", "mass_function")],
    "fractal_curve.build_staircase": [("ffcalc.fractal_curve", "build_staircase")],
    "fractal_curve.lookup": [("ffcalc.fractal_curve", "J_at"), ("ffcalc.fractal_curve", "u_at")],
    "fractal_curve.csv_write": [("ffcalc.fractal_curve", "staircase_to_csv")],
    "fractal_calc.integral": [("ffcalc.fractal_calc", "f_integral")],
    "fractal_calc.derivative": [("ffcalc.fractal_calc", "f_derivative")],
    "fuzzy_core.construct": [
        ("ffcalc.fuzzy_core", "make_triangular"),
        ("ffcalc.fuzzy_core", "make_crisp"),
    ],
    "fuzzy_core.arith": [
        ("ffcalc.fuzzy_core", "add"),
        ("ffcalc.fuzzy_core", "scale"),
        ("ffcalc.fuzzy_core", "hausdorff_distance"),
        ("ffcalc.fuzzy_core", "hukuhara_diff"),
    ],
    "fuzzy_fractal_calc.riemann": [("ffcalc.fuzzy_fractal_calc", "ff_riemann_integral")],
    "fuzzy_fractal_calc.derivative": [
        ("ffcalc.fuzzy_fractal_calc", "fractal_hukuhara_derivative")
    ],
    "ffde.solve": [
        ("ffcalc.ffde", "solve_first_order"),
        ("ffcalc.ffde", "solve_case1"),
        ("ffcalc.ffde", "solve_case2"),
    ],
    "ffde.rk4": [("ffcalc.ffde", "solve_crisp_in_J")],
    "ffde.hermite_build": [("ffcalc.ffde", "CubicHermiteSpline")],
    "ffde.bvp": [("ffcalc.ffde", "solve_second_order_bvp")],
    "ffde.verify": [
        ("ffcalc.ffde", "verify_against_closed_form"),
        ("ffcalc.ffde", "ode_residual_max"),
    ],
    "ffde.csv_write": [("ffcalc.ffde", "solution_to_csv")],
    "ffde.csv_read": [("ffcalc.ffde", "solution_from_csv")],
    "problems.spec_load": [("ffcalc.problems", "problem_from_json")],
}

# span name -> (module, class, method)
METHODS = {
    "fractal_curve.refine": [("ffcalc.fractal_curve", "FractalCurve", "refine")],
    "fuzzy_core.construct": [("ffcalc.fuzzy_core", "FuzzyNumber", "__post_init__")],
    "ffde.dense_output": [
        ("ffcalc.ffde", "CrispTrajectory", "at"),
        ("ffcalc.ffde", "SecondOrderSolution", "crisp_at"),
    ],
}

# per-layer metric -> span whose self time per op it reports
SELF_TIME = {
    "fractal_curve.refine_s": "fractal_curve.refine",
    "fractal_curve.gamma_dimension_s": "fractal_curve.gamma_dimension",
    "fractal_curve.mass_function_s": "fractal_curve.mass_function",
    "fractal_curve.build_staircase_s": "fractal_curve.build_staircase",
    "fractal_curve.lookup_s": "fractal_curve.lookup",
    "fractal_curve.csv_write_s": "fractal_curve.csv_write",
    "fractal_calc.integral_s": "fractal_calc.integral",
    "fractal_calc.derivative_s": "fractal_calc.derivative",
    "fuzzy_core.construct_s": "fuzzy_core.construct",
    "fuzzy_core.arith_s": "fuzzy_core.arith",
    "fuzzy_fractal_calc.riemann_s": "fuzzy_fractal_calc.riemann",
    "fuzzy_fractal_calc.derivative_s": "fuzzy_fractal_calc.derivative",
    "ffde.rk4_linear_s": "ffde.rk4_linear",
    "ffde.rk4_func_s": "ffde.rk4_func",
    "ffde.hermite_build_s": "ffde.hermite_build",
    "ffde.dense_output_s": "ffde.dense_output",
    "ffde.assemble_s": "ffde.solve",
    "ffde.verify_s": "ffde.verify",
    "ffde.csv_write_s": "ffde.csv_write",
    "ffde.csv_read_s": "ffde.csv_read",
}

# per-layer metric -> span whose outermost calls' full duration per op it reports
INCLUSIVE_TIME = {
    "ffde.solve_s": "ffde.solve",
    "ffde.bvp_s": "ffde.bvp",
}

# per-layer metric -> count recorded on spans, summed per op
COUNTS = {
    "fractal_curve.vertices": "vertices",
    "fractal_curve.lookup_queries": "queries",
    "fractal_calc.cells": "cells",
    "fuzzy_core.numbers_built": "built",
    "fuzzy_fractal_calc.riemann_samples": "samples",
    "ffde.rk4_steps": "steps",
    "ffde.rhs_evals": "rhs_evals",
    "ffde.csv_bytes": "bytes",
}

# per-layer metric -> attempt marker on spans; share of attempts that returned
RATIOS = {
    "fuzzy_core.hukuhara_exist_frac": "hukuhara_diff",
    "fuzzy_fractal_calc.case_ok_frac": "hukuhara_derivative",
}


def _cells_in(table, a, b) -> int:
    """Cells of the vertex subdivision of [a, b]: the work an integral does."""
    lo, hi = table.domain
    a = lo if a is None else float(a)
    b = hi if b is None else float(b)
    inner = np.searchsorted(table.us, b, side="left") - np.searchsorted(table.us, a, side="right")
    return int(inner) + 1


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.stack: list[int] = []
        self.op_id = "setup"
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, counts: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, counts or {}])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _nearest(self, name: str):
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return self.spans[idx]
        return None

    def _wrap(self, span: str, fn):
        tracer = self
        special = getattr(self, "_call_" + span.replace(".", "_"), None)

        if special is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return special(fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

            if not isinstance(fn, type):
                wrapper = functools.wraps(fn)(wrapper)
        return wrapper

    # -- spans that record counts -------------------------------------------

    def _timed(self, span, fn, args, kwargs, counts, after=None):
        idx = self._open(span, counts)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.spans[idx][5]["ok"] = 0
            raise
        finally:
            self._close(idx)
        if after is not None:
            after(self.spans[idx][5], out)
        return out

    def _call_fractal_curve_refine(self, fn, args, kwargs):
        return self._timed(
            "fractal_curve.refine", fn, args, kwargs, {},
            lambda c, out: c.__setitem__("vertices", int(out.params.size)),
        )

    def _call_fractal_curve_lookup(self, fn, args, kwargs):
        query = args[1] if len(args) > 1 else kwargs.get("u", kwargs.get("J"))
        n = int(np.size(query))
        return self._timed("fractal_curve.lookup", fn, args, kwargs, {"queries": n})

    def _call_fractal_calc_integral(self, fn, args, kwargs):
        table = _arg(args, kwargs, 2, "table")
        cells = _cells_in(table, _arg(args, kwargs, 3, "a"), _arg(args, kwargs, 4, "b"))
        return self._timed("fractal_calc.integral", fn, args, kwargs, {"cells": cells})

    def _call_fuzzy_core_construct(self, fn, args, kwargs):
        counts = {"built": 1} if fn.__name__ == "__post_init__" else {}
        return self._timed("fuzzy_core.construct", fn, args, kwargs, counts)

    def _call_fuzzy_core_arith(self, fn, args, kwargs):
        counts = {"attempt": "hukuhara_diff", "ok": 1} if fn.__name__ == "hukuhara_diff" else {}
        return self._timed("fuzzy_core.arith", fn, args, kwargs, counts)

    def _call_fuzzy_fractal_calc_riemann(self, fn, args, kwargs):
        table = _arg(args, kwargs, 2, "table")
        cells = _cells_in(table, _arg(args, kwargs, 3, "a"), _arg(args, kwargs, 4, "b"))
        return self._timed("fuzzy_fractal_calc.riemann", fn, args, kwargs, {"samples": cells})

    def _call_fuzzy_fractal_calc_derivative(self, fn, args, kwargs):
        counts = {"attempt": "hukuhara_derivative", "ok": 1}
        return self._timed("fuzzy_fractal_calc.derivative", fn, args, kwargs, counts)

    def _call_ffde_solve(self, fn, args, kwargs):
        problem = _arg(args, kwargs, 0, "problem")
        rhs = type(getattr(problem, "rhs", None)).__name__
        return self._timed("ffde.solve", fn, args, kwargs, {"rhs": rhs})

    def _call_ffde_rk4(self, fn, args, kwargs):
        solve = self._nearest("ffde.solve")
        linear = solve is not None and solve[5].get("rhs") == "LinearRhs"
        counts = {"steps": int(_arg(args, kwargs, 3, "steps")), "rhs_evals": 0}
        rhs = _arg(args, kwargs, 0, "rhs")

        def counted(*a, **k):
            counts["rhs_evals"] += 1
            return rhs(*a, **k)

        args = (counted,) + tuple(args[1:]) if args else args
        if "rhs" in kwargs:
            kwargs = dict(kwargs, rhs=counted)
        span = "ffde.rk4_linear" if linear else "ffde.rk4_func"
        return self._timed(span, fn, args, kwargs, counts)

    def _call_ffde_csv_write(self, fn, args, kwargs):
        target = _arg(args, kwargs, 1, "target")
        start = target.tell() if hasattr(target, "tell") else None

        def size(c, _out):
            c["bytes"] = target.tell() - start if start is not None else os.path.getsize(target)

        return self._timed("ffde.csv_write", fn, args, kwargs, {}, size)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers everywhere the originals are bound in ffcalc."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ffcalc" or n.startswith("ffcalc.")]
        for span, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules.get(mod_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, name, value))
                            setattr(mod, name, wrapper)
        for span, targets in METHODS.items():
            for mod_name, cls_name, meth in targets:
                cls = getattr(sys.modules.get(mod_name), cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics over the spans of timed ops (not of set-up),
        times and counts per op."""
        child = defaultdict(float)
        for name, t0, t1, parent, _op, _c in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = defaultdict(float)
        inclusive = defaultdict(float)
        counts = defaultdict(float)
        attempts = defaultdict(int)
        oks = defaultdict(int)
        for idx, (name, t0, t1, parent, op, c) in enumerate(self.spans):
            if op == "setup":
                continue
            self_time[name] += (t1 - t0) - child[idx]
            if not self._has_ancestor(idx, name):
                inclusive[name] += t1 - t0
            for key in COUNTS.values():
                counts[key] += c.get(key, 0)
            if "attempt" in c:
                attempts[c["attempt"]] += 1
                oks[c["attempt"]] += c["ok"]
        out = {}
        for metric, span in SELF_TIME.items():
            out[metric] = self_time[span] / ops
        for metric, span in INCLUSIVE_TIME.items():
            out[metric] = inclusive[span] / ops
        for metric, key in COUNTS.items():
            out[metric] = counts[key] / ops
        for metric, marker in RATIOS.items():
            out[metric] = oks[marker] / attempts[marker] if attempts[marker] else 0.0
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def spec_load_seconds(self) -> float:
        """Mean seconds per ``problem_from_json`` call, set-up included."""
        times = [s[2] - s[1] for s in self.spans if s[0] == "problems.spec_load"]
        return sum(times) / len(times) if times else 0.0

    def dump(self, path) -> None:
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "counts"],
                    "spans": self.spans,
                },
                fh,
            )
