"""curve_calculus: geometry and fuzzy calculus on Koch curves, in-process,
with no ODE solver and no CSV.

This is where per-object FuzzyNumber overhead shows: every field sample,
difference and sum builds and validates a number. The staircase is built
once on a Koch-4 table that fits in L1 and once on a Koch-10 table of
~17 MB, past L2.
"""

from __future__ import annotations

import numpy as np

import oracle
from harness import OpKind, require, within
from inputs import INPUTS, rng_for

# Batch sizes place stairs_koch10 (~65 ms) in the middle of the cycle with
# five kinds well below it and five well above, so op_p50_rel is one kind's
# median and does not hop between kinds that a busy host slows unequally.
F_CALC_POINTS = 8
HUKU_POINTS = 128
ARITH_PAIRS = 320
LOOKUP_BATCH = 4096


def _poly(coef, J):
    return coef[0] + coef[1] * J + coef[2] * J * J


def _poly_slope(coef, J):
    return coef[1] + 2.0 * coef[2] * J


class Workload:
    def __init__(self, ff, seed: int):
        self.ff = ff
        rng = rng_for(seed, "curve_calculus")
        alpha = oracle.KOCH_DIM
        self.koch4 = ff.generate_koch(4)
        self.koch5 = ff.generate_koch(5)
        self.koch6 = ff.generate_koch(6)
        self.koch10 = ff.generate_koch(10)
        self.table5 = ff.build_staircase(self.koch5, alpha)
        self.table6 = ff.build_staircase(self.koch6, alpha)
        self.table10 = ff.build_staircase(self.koch10, alpha)

        self.lookup_us = [rng.uniform(0.0, 1.0, LOOKUP_BATCH) for _ in range(INPUTS)]
        # increasing quadratics in J, so per-cell extremes sit at the cell ends
        self.fcalc = [
            (
                (rng.uniform(-1, 1), rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)),
                rng.uniform(0.05, 0.95, F_CALC_POINTS),
            )
            for _ in range(INPUTS)
        ]
        self.riemann_fields = [self._field_params(rng, +1) for _ in range(INPUTS)]
        self.huku = {
            "I": [self._huku_input(rng, +1) for _ in range(INPUTS)],
            "II": [self._huku_input(rng, -1) for _ in range(INPUTS)],
        }
        self.pairs = [self._pairs(rng) for _ in range(INPUTS)]

        self.kinds = [
            OpKind("dim_koch", self._run_dim_koch, self._check_dim("koch"), ref="stream"),
            OpKind("dim_segment", self._run_dim_segment, self._check_dim("segment")),
            OpKind("mass_koch8", self._run_mass, self._check_mass, ref="stream"),
            OpKind("stairs_koch4", self._stairs(self.koch4), self._check_stairs(4)),
            OpKind("stairs_koch10", self._stairs(self.koch10), self._check_stairs(10), ref="stream"),
            OpKind("lookup_koch10", self._run_lookup, self._check_lookup, ref="stream"),
            OpKind("f_calc_koch6", self._run_fcalc, self._check_fcalc),
            OpKind("riemann_koch5", self._run_riemann, self._check_riemann),
            OpKind("huku_I_koch6", self._huku_run("I"), self._huku_check("I")),
            OpKind("huku_II_koch6", self._huku_run("II"), self._huku_check("II")),
            OpKind("fuzzy_arith", self._run_arith, self._check_arith),
        ]
        self.kinds[0].run(0)  # warm-up op
        self.info = {
            "inputs_per_kind": INPUTS,
            # us and Js of a staircase table, float64 each (computed bytes)
            "table_bytes": {"koch4": 16 * (4**4 + 1), "koch10": 16 * (4**10 + 1)},
        }

    # -- geometry ------------------------------------------------------------

    def _run_dim_koch(self, i):
        return self.ff.gamma_dimension(self.ff.generate_koch(0), max_level=10)

    def _run_dim_segment(self, i):
        return self.ff.gamma_dimension(self.ff.generate_segment(level=0), max_level=10)

    def _check_dim(self, curve):
        def check(i, out):
            oracle.check_dimension(out, curve)

        return check

    def _run_mass(self, i):
        m = self.ff.mass_function(self.ff.generate_koch(0), oracle.KOCH_DIM, max_level=8)
        return (m.value, np.array(m.levels, dtype=float))

    def _check_mass(self, i, out):
        value, levels = out
        require(np.array_equal(levels[:, 0], np.arange(9)), "levels are not 0..8")
        for level, total in levels:
            within(f"mass at level {int(level)}", abs(total - oracle.KOCH_MASS),
                   oracle.sum_tol(4 ** int(level), oracle.KOCH_MASS))
        require(value == levels[-1, 1], "mass value is not the deepest level's sum")

    def _stairs(self, curve):
        def run(i):
            t = self.ff.build_staircase(curve, oracle.KOCH_DIM)
            return (t.us, t.Js)

        return run

    def _check_stairs(self, level):
        def check(i, out):
            oracle.check_koch_table(*out, level)

        return check

    def _run_lookup(self, i):
        J = self.ff.J_at(self.table10, self.lookup_us[i % INPUTS])
        return (J, self.ff.u_at(self.table10, J))

    def _check_lookup(self, i, out):
        J, back = out
        us = self.lookup_us[i % INPUTS]
        within("J_at", float(np.max(np.abs(J - oracle.koch_J(us)))),
               oracle.sum_tol(4**10, oracle.KOCH_MASS))
        within("u_at(J_at(u)) - u", float(np.max(np.abs(back - us))), 1e-12)

    # -- real-valued calculus --------------------------------------------------

    def _run_fcalc(self, i):
        ff = self.ff
        coef, points = self.fcalc[i % INPUTS]
        table = self.table6

        def f(u):
            return _poly(coef, ff.J_at(table, u))

        res = ff.f_integral(f, self.koch6, table)
        derivs = np.array([ff.f_derivative(f, table, float(u)) for u in points])
        return (res.value, res.lower_sum, res.upper_sum, res.n_cells, derivs)

    def _check_fcalc(self, i, out):
        value, lower, upper, n_cells, derivs = out
        coef, points = self.fcalc[i % INPUTS]
        n = 4**6
        require(n_cells == n, f"{n_cells} cells, expected {n}")
        J = oracle.koch_J(np.arange(n + 1) / n)
        dJ = np.diff(J)
        mid = oracle.koch_J((np.arange(n) + 0.5) / n)
        want = (
            np.sum(_poly(coef, mid) * dJ),
            np.sum(_poly(coef, J[:-1]) * dJ),
            np.sum(_poly(coef, J[1:]) * dJ),
        )
        for name, got, exp in zip(("value", "lower sum", "upper sum"), (value, lower, upper), want):
            within(f"integral {name}", abs(got - exp), 1e-10 * max(1.0, abs(exp)))
        slope = _poly_slope(coef, oracle.koch_J(points))
        within("derivative", float(np.max(np.abs(derivs - slope))), 1e-7 * max(1.0, np.max(np.abs(slope))))

    # -- fuzzy calculus ----------------------------------------------------------

    @staticmethod
    def _field_params(rng, direction):
        """Triangular field with a quadratic peak and linear spreads in J;
        direction +1 widens the band along the curve, -1 shrinks it."""
        peak = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        spreads = []
        for _ in range(2):
            slope = rng.uniform(0.2, 1.0)
            base = rng.uniform(0.2, 1.0) + (slope * oracle.KOCH_MASS if direction < 0 else 0.0)
            spreads.append((base, direction * slope))
        return peak, spreads[0], spreads[1]

    @staticmethod
    def _field_values(params, J):
        """(a, b, c) of the field at staircase values J."""
        peak, left, right = params
        b = _poly(peak, J)
        return b - (left[0] + left[1] * J), b, b + (right[0] + right[1] * J)

    def _field(self, params, table):
        ff = self.ff

        def part(k):
            return lambda u: self._field_values(params, ff.J_at(table, u))[k]

        return ff.triangular_field(part(0), part(1), part(2), table.domain)

    def _run_riemann(self, i):
        params = self.riemann_fields[i % INPUTS]
        res = self.ff.ff_riemann_integral(self._field(params, self.table5), self.koch5, self.table5)
        return (res.rs, res.lowers, res.uppers)

    def _check_riemann(self, i, out):
        rs, lowers, uppers = out
        n = 4**5
        J = oracle.koch_J(np.arange(n + 1) / n)
        dJ = np.diff(J)[:, None]
        a, b, c = self._field_values(self.riemann_fields[i % INPUTS], J[:-1, None])
        want_lo = np.sum((a * (1.0 - rs) + b * rs) * dJ, axis=0)
        want_up = np.sum((c * (1.0 - rs) + b * rs) * dJ, axis=0)
        scale = max(1.0, float(np.max(np.abs(want_lo))), float(np.max(np.abs(want_up))))
        oracle.check_cuts("riemann sum", lowers, uppers, want_lo, want_up, 1e-10 * scale)

    @staticmethod
    def _huku_input(rng, direction):
        return (
            Workload._field_params(rng, direction),
            rng.uniform(0.05, 0.9, HUKU_POINTS),
            rng.integers(1, 4, HUKU_POINTS) / 4**6,
        )

    def _huku_run(self, case):
        ff = self.ff
        other = "II" if case == "I" else "I"

        def run(i):
            params, points, steps = self.huku[case][i % INPUTS]
            f = self._field(params, self.table6)
            lowers, uppers, refused = [], [], []
            for u0, h in zip(points, steps):
                d = ff.fractal_hukuhara_derivative(f, self.table6, float(u0), case, h=float(h))
                lowers.append(d.lowers)
                uppers.append(d.uppers)
                try:
                    ff.fractal_hukuhara_derivative(f, self.table6, float(u0), other, h=float(h))
                    refused.append(False)
                except ff.CaseInapplicableError:
                    refused.append(True)
            return (np.array(lowers), np.array(uppers), np.array(refused), d.rs)

        return run

    def _huku_check(self, case):
        def check(i, out):
            lowers, uppers, refused, rs = out
            params, points, steps = self.huku[case][i % INPUTS]
            require(np.all(refused), f"case {'II' if case == 'I' else 'I'} accepted a band it cannot apply to")
            J0 = oracle.koch_J(points)[:, None]
            J1 = oracle.koch_J(points + steps)[:, None]
            q = [(v1 - v0) / (J1 - J0) for v0, v1 in
                 zip(self._field_values(params, J0), self._field_values(params, J1))]
            qa, qb, qc = q
            if case == "I":  # widening: ends move with their own side
                want_lo, want_up = qa + (qb - qa) * rs, qc - (qc - qb) * rs
            else:  # shrinking: the reversed difference swaps the ends
                want_lo, want_up = qc + (qb - qc) * rs, qa + (qb - qa) * rs
            scale = max(1.0, float(np.max(np.abs(want_lo))), float(np.max(np.abs(want_up))))
            oracle.check_cuts(f"case {case} derivative", lowers, uppers, want_lo, want_up, 1e-7 * scale)

        return check

    @staticmethod
    def _pairs(rng):
        """Triangle pairs (A, B); in half of them B's spreads are shrunk
        copies of A's so that A (-) B exists. Spread gaps stay clear of
        rounding, so existence is never borderline."""
        pairs = []
        while len(pairs) < ARITH_PAIRS:
            pa, pb = rng.uniform(-2, 2, 2)
            la, ra = rng.uniform(0.1, 2.0, 2)
            if rng.random() < 0.5:
                lb, rb = la * rng.uniform(0.1, 0.9), ra * rng.uniform(0.1, 0.9)
            else:
                lb, rb = rng.uniform(0.1, 2.0, 2)
            if min(abs(la - lb), abs(ra - rb)) < 1e-3:
                continue
            pairs.append(((pa - la, pa, pa + ra), (pb - lb, pb, pb + rb)))
        return pairs

    def _run_arith(self, i):
        ff = self.ff
        sums, backs, exists = [], [], []
        for A_t, B_t in self.pairs[i % INPUTS]:
            A = ff.make_triangular(*A_t)
            B = ff.make_triangular(*B_t)
            S = ff.add(A, B)
            sums.append((S.lowers, S.uppers))
            try:
                D = ff.hukuhara_diff(A, B)
            except ff.HukuharaNonexistenceError:
                exists.append(False)
                backs.append((np.full_like(A.lowers, np.nan), np.full_like(A.uppers, np.nan)))
                continue
            back = ff.add(B, D)
            exists.append(True)
            backs.append((back.lowers, back.uppers))
        return (np.array(sums), np.array(backs), np.array(exists), A.rs)

    def _check_arith(self, i, out):
        sums, backs, exists, rs = out
        pairs = self.pairs[i % INPUTS]
        want = np.array([oracle.hukuhara_exists(A, B) for A, B in pairs])
        require(np.array_equal(exists, want),
                f"Hukuhara existence wrong for {int(np.sum(exists != want))} pairs")
        for k, (A, B) in enumerate(pairs):
            a_lo, a_up = oracle.tri_cuts(A, rs)
            b_lo, b_up = oracle.tri_cuts(B, rs)
            tol = 1e-12 * max(1.0, *map(abs, A), *map(abs, B))
            oracle.check_cuts("A + B", sums[k, 0], sums[k, 1], a_lo + b_lo, a_up + b_up, tol)
            if exists[k]:
                oracle.check_cuts("B + (A - B)", backs[k, 0], backs[k, 1], a_lo, a_up, tol)
