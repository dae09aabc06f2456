"""ivp_sweep: in-process solves of seeded linear fuzzy IVPs.

The RK4 loop and the Hermite dense output dominate here. Variants share one
problem so that each path shows on its own: LinearRhs against FuncRhs, the
full level grid against the 0/1-cut assembly, the unit segment against a
Koch staircase. A save/reload op runs the CSV writer beside the reader.
"""

from __future__ import annotations

import io

import numpy as np

import oracle
from harness import OpKind, require, within
from inputs import INPUTS, KOCH6, SEGMENT, linear_params, linear_spec, rng_for


def _arrays(sol):
    return (sol.us, sol.Js, sol.rs, sol.lower, sol.upper, sol.validity)


def _identity(u):
    return np.asarray(u, dtype=float)


class Workload:
    def __init__(self, ff, seed: int):
        self.ff = ff
        rng = rng_for(seed, "ivp_sweep")
        self.params = {}
        self.problems = {}
        for curve in ("seg", "koch"):
            for case in ("I", "II"):
                plist = [linear_params(rng, case) for _ in range(INPUTS)]
                if curve == "seg":
                    specs = [linear_spec(p, SEGMENT, 4096) for p in plist]
                else:
                    specs = [
                        linear_spec(p, KOCH6, 1024, (rng.uniform(0.0, 0.25), rng.uniform(0.75, 1.0)))
                        for p in plist
                    ]
                self.params[curve, case] = plist
                self.problems[curve, case] = [ff.problem_from_json(s) for s in specs]
        self.func_problems = {
            ("koch", "I"): [
                self._as_func(p, prm)
                for p, prm in zip(self.problems["koch", "I"], self.params["koch", "I"])
            ]
        }
        self.bvp = ff.SecondOrderFuzzyBvp(
            p=-4.0,
            q=4.0,
            forcing=lambda J: 1.0 - 2.0 * np.asarray(J, dtype=float) ** 2,
            boundary_start=ff.TriangularFuzzy(*oracle.EX2_START),
            boundary_end=ff.TriangularFuzzy(*oracle.EX2_END),
            steps=4096,
        )
        # sources of the save/reload and verify ops: a CLI-sized 257 x 101
        # case-II table on the segment, and the Koch case-II solutions
        self.csv_params = [linear_params(rng, "II") for _ in range(INPUTS)]
        self.csv_sources = [
            ff.solve_first_order(ff.problem_from_json(linear_spec(p, SEGMENT, 256)))
            for p in self.csv_params
        ]
        self.verify_sources = [ff.solve_first_order(p) for p in self.problems["koch", "II"]]
        self.bvp_source = ff.solve_second_order_bvp(self.bvp)

        self.kinds = [
            self._solve_kind("full_I_seg", "seg", "I", "full"),
            self._solve_kind("full_II_seg", "seg", "II", "full"),
            self._solve_kind("full_I_koch", "koch", "I", "full"),
            self._solve_kind("full_II_koch", "koch", "II", "full"),
            self._solve_kind("cuts_I_seg", "seg", "I", "cuts"),
            self._solve_kind("func_I_koch", "koch", "I", "func"),
            OpKind("bvp", self._run_bvp, self._check_bvp),
            OpKind("csv_roundtrip", self._run_csv, self._check_csv),
            OpKind("verify", self._run_verify, self._check_verify),
        ]
        self.kinds[0].run(0)  # warm-up op
        self.info = {"inputs_per_kind": INPUTS, "r_points": 101}

    def _as_func(self, problem, params):
        """The same right-hand side written as explicit endpoint callables."""
        a, c = params["a"], params["c"]

        def lower(J, lo, up, rs):
            return a * lo + (c[0] * (1.0 - rs) + c[1] * rs)

        def upper(J, lo, up, rs):
            return a * up + (c[2] * (1.0 - rs) + c[1] * rs)

        return self.ff.FirstOrderFfdeProblem(
            table=problem.table,
            rhs=self.ff.FuncRhs(lower, upper),
            x0=problem.x0,
            span=problem.span,
            case=problem.case,
            r_points=problem.r_points,
            j_steps=problem.j_steps,
        )

    def _solve_kind(self, name, curve, case, path):
        ff = self.ff
        problems = (self.func_problems if path == "func" else self.problems)[curve, case]
        method = "cuts" if path == "cuts" else "full"
        plist = self.params[curve, case]
        J_of_u = _identity if curve == "seg" else oracle.koch_J

        def run(i):
            return _arrays(ff.solve_first_order(problems[i % INPUTS], method=method))

        def check(i, out):
            return oracle.check_linear_solution(plist[i % INPUTS], *out, J_of_u)

        return OpKind(name, run, check)

    def _run_bvp(self, i):
        sol = self.ff.solve_second_order_bvp(self.bvp)
        return (sol.js, sol.crisp, sol.un_lower, sol.un_upper)

    def _check_bvp(self, i, out):
        return oracle.check_bvp(*out)

    def _run_csv(self, i):
        buf = io.StringIO()
        self.ff.solution_to_csv(self.csv_sources[i % INPUTS], buf)
        buf.seek(0)
        return _arrays(self.ff.solution_from_csv(buf))

    def _check_csv(self, i, out):
        src = _arrays(self.csv_sources[i % INPUTS])
        for name, got, want in zip(("u", "J", "r", "lower", "upper", "valid"), out, src):
            require(
                got.shape == want.shape and np.array_equal(got, want),
                f"column {name} changed on save/reload",
            )
        return None

    def _run_verify(self, i):
        sol = self.verify_sources[i % INPUTS]
        rep = self.ff.verify_against_closed_form(
            sol, self._band_fn(i, sol), tol=1e-6, restrict_to_valid=True
        )
        b = self.bvp_source
        residual = self.ff.ode_residual_max(b.js, b.crisp, -4.0, 4.0, self.bvp.forcing)
        return (rep.max_error, rep.rms_error, rep.n_points, residual)

    def _band_fn(self, i, sol):
        params = self.params["koch", "II"][i % INPUTS]
        J0 = float(sol.Js[0])
        return lambda J, r: oracle.linear_band(params, np.ravel(J) - J0, np.ravel(r))

    def _check_verify(self, i, out):
        max_error, _rms, n_points, residual = out
        sol = self.verify_sources[i % INPUTS]
        lo, up = self._band_fn(i, sol)(sol.Js, sol.rs)
        err = np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))[sol.validity]
        within("reported max error", abs(max_error - float(np.max(err))), 1e-12)
        require(n_points == err.size, f"verified {n_points} points, expected {err.size}")
        within("solution error", max_error, 1e-6)
        within("BVP residual", residual, 1e-5)
        return None
