"""First-order solvers against closed forms, the second-order BVP, and the
verification harness."""

import hashlib
import io
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ffcalc import (
    DivergenceError,
    DomainError,
    FirstOrderFfdeProblem,
    FuncRhs,
    FuzzyNumber,
    FuzzySolution,
    LinearRhs,
    MAX_GRID_CELLS,
    TriangularFuzzy,
    ValidationError,
    default_r_grid,
    EXAMPLE1_CASE2_HORIZON_J,
    example1_case1_band,
    example1_case2_band,
    example1_problem,
    example2_bvp,
    example2_crisp_closed_form,
    make_crisp,
    make_triangular,
    ode_residual_max,
    problem_from_json,
    solution_from_csv,
    solution_to_csv,
    solve_crisp_in_J,
    solve_first_order,
    solve_second_order_bvp,
    unit_segment_table,
    verify_against_closed_form,
)
from ffcalc import ffde
from ffcalc.ffde import CrispTrajectory

# closed forms restated independently of the library's copies
def band_case1(J, r):
    return np.exp(J) * (2 * r - 1) - r + 1, r - np.exp(J) * (2 * r - 3) - 1


def band_case2(J, r):
    return (
        np.exp(J) - r + (2 * r - 2) * np.exp(-J) + 1,
        r + np.exp(J) - (2 * r - 2) * np.exp(-J) - 1,
    )


class TestCrispIntegrator:
    def test_exponential(self):
        traj = solve_crisp_in_J(lambda J, y: y, 1.0, (0.0, 1.0), 256)
        assert traj.final[0] == pytest.approx(math.e, abs=1e-8)

    def test_constant_rhs(self):
        traj = solve_crisp_in_J(lambda J, y: np.zeros_like(y), [4.2], (0.0, 2.0), 32)
        assert np.all(traj.states == 4.2)

    def test_linear_inhomogeneous(self):
        # dx/dJ = x - 1, x(0) = 0 has solution 1 - e^J
        traj = solve_crisp_in_J(lambda J, y: y - 1.0, 0.0, (0.0, 1.0), 256)
        js = np.linspace(0.0, 1.0, 17)
        assert np.allclose(traj.at(js)[:, 0], 1.0 - np.exp(js), atol=1e-8)

    def test_dense_output_matches_nodes(self):
        traj = solve_crisp_in_J(lambda J, y: y, 1.0, (0.0, 1.0), 64)
        assert np.allclose(traj.at(traj.js), traj.states)

    def test_divergence_reported_with_location(self):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            solve_crisp_in_J(lambda J, y: y**3, 10.0, (0.0, 2.0), 64)
        assert exc.value.last_valid is not None

    def test_step_floor(self):
        with pytest.raises(ValidationError):
            solve_crisp_in_J(lambda J, y: y, 1.0, (0.0, 1.0), 8)


def _random_trajectory(seed, n=40, dim=3):
    rng = np.random.default_rng(seed)
    js = np.sort(rng.uniform(0.0, 3.0, n))
    return CrispTrajectory(js, rng.normal(size=(n, dim)), rng.normal(size=(n, dim)))


def _example1_bands_trajectory(case, steps=256, n_r=101):
    # dx/dJ = x + c with c = [r - 1, 1 - r]; case II drives each endpoint by
    # the opposite side's equation
    rs = np.linspace(0.0, 1.0, n_r)
    c_lo, c_up = rs - 1.0, 1.0 - rs

    def system(J, y):
        lo, up = y[:n_r], y[n_r:]
        if case == "I":
            return np.concatenate([lo + c_lo, up + c_up])
        return np.concatenate([up + c_up, lo + c_lo])

    return solve_crisp_in_J(system, np.concatenate([rs, 2.0 - rs]), (0.0, 1.0), steps)


class TestHermiteDenseOutput:
    def test_nodes_reproduced(self):
        traj = _random_trajectory(1)
        vals = traj.at(traj.js)
        # every node but the last is the left end of its interval: exact
        assert np.array_equal(vals[:-1], traj.states[:-1])
        # the last node is the right end of the last cubic: exact to rounding
        assert np.allclose(vals[-1], traj.states[-1], rtol=4e-16, atol=4e-16)
        assert np.array_equal(traj.at(traj.js[0]), traj.states[0])

    def test_reproduces_a_cubic(self):
        js = np.concatenate([[0.0], np.sort(np.random.default_rng(2).uniform(0, 2, 30)), [2.0]])
        coef = np.array([[0.3, -1.1], [1.7, 0.4], [-0.8, 2.2], [0.25, -0.6]])

        def poly(x):
            x = np.asarray(x)[..., None]
            return coef[0] + coef[1] * x + coef[2] * x**2 + coef[3] * x**3

        def dpoly(x):
            x = np.asarray(x)[..., None]
            return coef[1] + 2 * coef[2] * x + 3 * coef[3] * x**2

        traj = CrispTrajectory(js, poly(js), dpoly(js))
        q = np.linspace(0.0, 2.0, 1001)
        assert np.max(np.abs(traj.at(q) - poly(q))) <= 1e-13

    def test_output_shapes(self):
        traj = _random_trajectory(3, dim=4)
        assert traj.at(1.5).shape == (4,)
        assert traj.at(np.array([0.5, 1.0, 2.0])).shape == (3, 4)
        sol2 = solve_second_order_bvp(example2_bvp(steps=64))
        assert np.shape(sol2.crisp_at(0.5)) == ()
        assert sol2.crisp_at(np.array([0.1, 0.9])).shape == (2,)

    def test_outside_span_raises(self):
        traj = _random_trajectory(4)
        for j in (traj.js[0] - 1e-9, traj.js[-1] + 1e-9, np.array([traj.js[0], traj.js[-1] * 2])):
            with pytest.raises(DomainError):
                traj.at(j)
        sol2 = solve_second_order_bvp(example2_bvp(steps=64))
        with pytest.raises(DomainError):
            sol2.crisp_at(1.5)

    @pytest.mark.parametrize("in_array", [False, True])
    def test_nan_raises(self, in_array):
        def query(js):  # NaN alone, or between two J values inside the span
            return np.array([js[1], math.nan, js[-2]]) if in_array else math.nan

        traj = _random_trajectory(4)
        with pytest.raises(DomainError):
            traj.at(query(traj.js))
        sol2 = solve_second_order_bvp(example2_bvp(steps=64))
        with pytest.raises(DomainError):
            sol2.crisp_at(query(sol2.js))

    @given(u0=st.floats(0.0, 1.0), u1=st.floats(0.0, 1.0), n=st.integers(17, 4097))
    @example(u0=0.0, u1=1.0, n=4097)
    @settings(max_examples=200, deadline=None)
    def test_unit_segment_queries_are_the_rk4_nodes(self, u0, u1, n):
        # the condition the node copy rests on: on the unit segment at order
        # 1, the J values of solve_first_order's u-grid are its RK4 grid
        u0, u1 = sorted((u0, u1))
        table = unit_segment_table()
        try:
            js, _ = ffde._uniform_grid((ffde.J_at(table, u0), ffde.J_at(table, u1)), n - 1, "j_steps")
        except ValidationError:  # a span too narrow for n - 1 steps
            assume(False)
        got = ffde.J_at(table, np.linspace(u0, u1, n))
        assert got.dtype == js.dtype and got.tobytes() == js.tobytes()

    @pytest.mark.parametrize("case", ["I", "II"])
    @pytest.mark.parametrize("steps", [256, 4096])
    def test_bit_identical_to_scipy(self, case, steps):
        interpolate = pytest.importorskip("scipy.interpolate")
        traj = _example1_bands_trajectory(case, steps)
        ref = interpolate.CubicHermiteSpline(traj.js, traj.states, traj.slopes, axis=0)
        js = np.concatenate([traj.js, np.random.default_rng(5).uniform(0.0, 1.0, 3000)])
        assert np.array_equal(traj.at(0.37), ref(0.37))
        for _ in range(2):  # later calls see the same coefficients
            assert np.array_equal(traj.at(js), ref(js))
        sol2 = solve_second_order_bvp(example2_bvp())
        ref2 = interpolate.CubicHermiteSpline(sol2.js, sol2.crisp, sol2.crisp_slope)
        assert np.array_equal(sol2.crisp_at(js), ref2(js))


class TestCase1:
    def test_initial_band_is_exact(self):
        problem = example1_problem("I")
        sol = solve_first_order(problem)
        lo0, up0 = problem.x0.cuts_at(sol.rs)
        assert np.array_equal(sol.lower[0], lo0)  # copied, not integrated
        assert np.array_equal(sol.upper[0], up0)
        assert np.allclose(sol.lower[0], sol.rs, atol=1e-15)
        assert np.allclose(sol.upper[0], 2.0 - sol.rs, atol=1e-15)

    def test_matches_closed_form(self):
        sol = solve_first_order(example1_problem("I"))
        lo, up = band_case1(sol.Js[:, None], sol.rs[None, :])
        assert float(np.max(np.abs(sol.lower - lo))) < 1e-6
        assert float(np.max(np.abs(sol.upper - up))) < 1e-6

    def test_width_grows_and_stays_valid(self):
        sol = solve_first_order(example1_problem("I"))
        widths = sol.upper - sol.lower
        assert np.all(widths >= -1e-12)
        assert np.all(np.diff(widths, axis=0) >= -1e-9)  # non-decreasing in J
        assert np.all(sol.validity)
        assert sol.validity_horizon == sol.us[-1]

    def test_r1_slice_is_crisp_exponential(self):
        sol = solve_first_order(example1_problem("I"))
        assert np.allclose(sol.lower[:, -1], np.exp(sol.Js), atol=1e-6)
        assert np.allclose(sol.upper[:, -1], np.exp(sol.Js), atol=1e-6)

    def test_cut_assembly_agrees_with_full_grid(self):
        problem = example1_problem("I")
        full = solve_first_order(problem, method="full")
        cuts = solve_first_order(problem, method="cuts")
        assert np.allclose(full.lower, cuts.lower, atol=1e-12)
        assert np.allclose(full.upper, cuts.upper, atol=1e-12)

    @staticmethod
    def _with(rhs=None, x0=None):
        problem = example1_problem("I", r_points=11, j_steps=32)
        return FirstOrderFfdeProblem(
            table=problem.table,
            rhs=problem.rhs if rhs is None else rhs,
            x0=problem.x0 if x0 is None else x0,
            span=problem.span,
            case="I",
            r_points=11,
            j_steps=32,
        )

    class _Subclass(LinearRhs):
        pass

    # the cut assembly interpolates between the 0- and 1-cuts, which is the
    # solution only for a linear system with level-linear data; on each of
    # these it would return a band that differs from the full grid's
    @pytest.mark.parametrize(
        "rhs, x0",
        [
            (None, FuzzyNumber(np.linspace(0, 1, 11), np.linspace(0, 1, 11) ** 2, 2 - np.linspace(0, 1, 11) ** 2)),
            (LinearRhs(1.0, FuzzyNumber([0.0, 0.5, 1.0], [-1.0, -0.2, 0.0], [1.0, 0.2, 0.0])), None),
            (FuncRhs(lambda J, lo, up, rs: 0.1 * lo * lo, lambda J, lo, up, rs: 0.1 * up * up), None),
            (_Subclass(1.0, make_triangular(-1.0, 0.0, 1.0)), None),
        ],
        ids=["x0_quadratic", "c_kinked", "func_rhs", "linear_subclass"],
    )
    def test_cut_assembly_refuses_what_it_would_solve_wrongly(self, rhs, x0):
        problem = self._with(rhs, x0)
        with pytest.raises(ValidationError, match="method 'cuts' needs a LinearRhs with level-linear x0 and c; use 'full'"):
            solve_first_order(problem, method="cuts")
        solve_first_order(problem)  # the full grid solves it

    def test_cut_assembly_accepts_level_linear_tables(self):
        # a table on a grid of its own whose middle level is off the line by
        # rounding-sized 1e-12, within the constructor's tolerance
        x0 = FuzzyNumber([0.0, 0.3, 1.0], [0.0, 0.3 + 1e-12, 1.0], [2.0, 1.7, 1.0])
        sol = solve_first_order(self._with(x0=x0), method="cuts")
        assert sol.validity.all()

    def test_valid_rows_are_the_sliceable_rows(self):
        # the width defect 5e-8 at r = 1 is within the constructor's tolerance
        # at |x| ~ 100 and past it once the band has shifted down to |x| ~ 1
        x0 = FuzzyNumber([0.0, 0.5, 1.0], [99.0, 99.5, 100.0 + 5e-8], [101.0, 100.5, 100.0])

        def shift(J, lo, up, rs):
            return np.full_like(lo, -100.0)

        problem = FirstOrderFfdeProblem(
            table=unit_segment_table(),
            rhs=FuncRhs(shift, shift),
            x0=x0,
            span=(0.0, 1.0),
            case="I",
            r_points=3,
            j_steps=16,
        )
        sol = solve_first_order(problem)
        assert int(np.count_nonzero(sol.validity)) == 9
        assert sol.validity_horizon == 0.5
        for i, valid in enumerate(sol.validity):
            if valid:
                sol.r_slice(i)
            else:
                with pytest.raises(ValidationError):
                    sol.r_slice(i)
                with pytest.raises(ValidationError):
                    FuzzyNumber(sol.rs, sol.lower[i], sol.upper[i])


class TestCase2:
    def test_matches_closed_form_on_valid_region(self):
        sol = solve_first_order(example1_problem("II"))
        lo, up = band_case2(sol.Js[:, None], sol.rs[None, :])
        err = np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))[sol.validity]
        assert float(np.max(err)) < 1e-6

    def test_initial_band_matches_condition(self):
        problem = example1_problem("II")
        sol = solve_first_order(problem)
        lo0, up0 = problem.x0.cuts_at(sol.rs)
        assert np.array_equal(sol.lower[0], lo0)
        assert np.array_equal(sol.upper[0], up0)
        assert np.allclose(sol.lower[0], sol.rs, atol=1e-15)
        assert np.allclose(sol.upper[0], 2.0 - sol.rs, atol=1e-15)

    def test_validity_horizon_at_ln2(self):
        sol = solve_first_order(example1_problem("II"))
        cell = sol.us[1] - sol.us[0]
        assert abs(sol.validity_horizon - EXAMPLE1_CASE2_HORIZON_J) <= cell
        # flags actually flip: valid before, invalid after
        assert not np.all(sol.validity)

    def test_width_formula(self):
        sol = solve_first_order(example1_problem("II"))
        expected = (2.0 * sol.rs[None, :] - 2.0) * (1.0 - 2.0 * np.exp(-sol.Js[:, None]))
        widths = sol.upper - sol.lower
        assert np.allclose(widths, expected, atol=1e-6)

    def test_r1_slice_is_crisp_exponential(self):
        sol = solve_first_order(example1_problem("II"))
        assert np.allclose(sol.lower[:, -1], np.exp(sol.Js), atol=1e-6)

    def test_cut_assembly_agrees_with_full_grid(self):
        problem = example1_problem("II")
        full = solve_first_order(problem, method="full")
        cuts = solve_first_order(problem, method="cuts")
        assert np.allclose(full.lower, cuts.lower, atol=1e-12)
        assert np.allclose(full.upper, cuts.upper, atol=1e-12)

    def test_invalid_slice_cannot_be_extracted(self):
        sol = solve_first_order(example1_problem("II"))
        bad = int(np.flatnonzero(~sol.validity)[0])
        with pytest.raises(ValidationError):
            sol.r_slice(bad)
        good = sol.r_slice(0)
        assert good.support.lo == 0.0

    def test_everywhere_invalid_span_warns(self):
        # crisp initial value under shrinking-width dynamics: the width is
        # negative immediately after the start, so no slice past row 0 is valid
        table = unit_segment_table()
        problem = FirstOrderFfdeProblem(
            table=table,
            rhs=LinearRhs(1.0, make_triangular(-1.0, 0.0, 1.0)),
            x0=make_triangular(1.0, 1.0, 1.0),
            span=(0.0, 1.0),
            case="II",
            j_steps=64,
        )
        with pytest.warns(RuntimeWarning):
            sol = solve_first_order(problem)
        assert not np.any(sol.validity[1:])
        assert sol.validity_horizon == sol.us[0]

    def test_no_valid_slice_warning_points_at_the_caller(self):
        problem = FirstOrderFfdeProblem(
            table=unit_segment_table(),
            rhs=LinearRhs(1.0, make_triangular(-1.0, 0.0, 1.0)),
            x0=make_crisp(1.0),
            span=(0.0, 1.0),
            case="II",
            j_steps=16,
        )
        with pytest.warns(RuntimeWarning, match="no valid fuzzy slice") as record:
            solve_first_order(problem)
        assert [w.filename for w in record] == [__file__]


class TestOnFractalSupport:
    def test_case1_on_koch_staircase(self):
        # the closed form depends on J alone, so solving over a genuinely
        # fractal staircase must still match it after the u -> J map
        from ffcalc import build_staircase, generate_koch

        table = build_staircase(generate_koch(6), math.log(4.0) / math.log(3.0), p0=0.0)
        problem = example1_problem("I", r_points=41, j_steps=256, table=table)
        sol = solve_first_order(problem)
        assert sol.Js[-1] == pytest.approx(table.Js[-1])  # < 1: sub-unit total mass
        lo, up = band_case1(sol.Js[:, None], sol.rs[None, :])
        assert float(np.max(np.abs(sol.lower - lo))) < 1e-6
        assert float(np.max(np.abs(sol.upper - up))) < 1e-6

    def test_case2_horizon_in_j_on_koch_staircase(self):
        from ffcalc import J_at, build_staircase, generate_koch

        # at the critical order the total mass (~0.877) exceeds ln 2, so the
        # horizon is crossed inside the span; it must sit at J = ln 2
        table = build_staircase(generate_koch(6), math.log(4.0) / math.log(3.0), p0=0.0)
        problem = example1_problem("II", r_points=41, j_steps=256, table=table)
        sol = solve_first_order(problem)
        horizon_J = J_at(table, sol.validity_horizon)
        j_cell = float(np.max(np.diff(sol.Js)))
        assert abs(horizon_J - math.log(2.0)) <= j_cell


class TestNonLinearStaircase:
    # a straight segment whose first half in u carries a fifth of its length:
    # J = 0.4 u up to u = 0.5 and 0.2 + 1.6 (u - 0.5) after it, so the
    # u -> J map is not linear and only a correct one meets the closed forms
    @staticmethod
    def _solve(case):
        from ffcalc import build_staircase, generate_polyline

        uneven = generate_polyline([0.0, 0.5, 1.0], [(0.0, 0.0), (0.2, 0.0), (1.0, 0.0)])
        table = build_staircase(uneven, alpha=1.0, p0=0.0)
        return solve_first_order(example1_problem(case, j_steps=256, table=table))

    @pytest.mark.parametrize("case, band, tol", [("I", band_case1, 2.5e-11), ("II", band_case2, 5e-12)])
    def test_closed_form_through_the_map(self, case, band, tol):
        sol = self._solve(case)
        us = sol.us
        assert np.array_equal(sol.Js, np.where(us <= 0.5, 0.4 * us, 0.2 + 1.6 * (us - 0.5)))
        lo, up = band(sol.Js[:, None], sol.rs[None, :])
        ok = sol.validity
        assert float(np.max(np.abs(sol.lower[ok] - lo[ok]))) <= tol
        assert float(np.max(np.abs(sol.upper[ok] - up[ok]))) <= tol

    def test_case2_horizon_is_the_last_node_below_the_mapped_ln2(self):
        sol = self._solve("II")
        u_star = 0.5 + (math.log(2.0) - 0.2) / 1.6  # J^-1(ln 2) = 0.8082
        assert sol.validity_horizon == sol.us[sol.us <= u_star][-1] == 206 / 256


class TestConvergence:
    def test_fourth_order_in_j_steps(self):
        errs = {}
        for steps in (128, 256):
            sol = solve_first_order(example1_problem("I", j_steps=steps, u_points=129))
            lo, up = band_case1(sol.Js[:, None], sol.rs[None, :])
            errs[steps] = float(np.max(np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))))
        assert errs[128] / errs[256] >= 12.0


class TestGeneralRhs:
    def test_coupled_rhs_signature(self):
        # lower equation reads the upper band: dx_lo/dJ = x_up, dx_up/dJ = x_lo
        # (case I); for a crisp initial value both endpoints stay equal to e^J
        table = unit_segment_table()
        rhs = FuncRhs(lambda J, lo, up, rs: up, lambda J, lo, up, rs: lo)
        problem = FirstOrderFfdeProblem(
            table=table,
            rhs=rhs,
            x0=make_triangular(1.0, 1.0, 1.0),
            span=(0.0, 1.0),
            case="I",
            r_points=11,
            j_steps=128,
        )
        sol = solve_first_order(problem)
        assert np.allclose(sol.lower[-1], math.e, atol=1e-7)
        assert np.allclose(sol.upper[-1], math.e, atol=1e-7)

    def test_negative_coefficient_swaps_endpoints(self):
        # dx/dJ = -x: interval arithmetic couples the endpoint equations
        table = unit_segment_table()
        problem = FirstOrderFfdeProblem(
            table=table,
            rhs=LinearRhs(-1.0, make_triangular(0.0, 0.0, 0.0)),
            x0=make_triangular(-1.0, 0.0, 1.0),
            span=(0.0, 1.0),
            case="I",
            r_points=21,
            j_steps=128,
        )
        sol = solve_first_order(problem)
        # closed form: x_lo = -w e^J, x_up = w e^J with w = 1 - r
        w = 1.0 - sol.rs[None, :]
        assert np.allclose(sol.lower, -w * np.exp(sol.Js[:, None]), atol=1e-6)
        assert np.allclose(sol.upper, w * np.exp(sol.Js[:, None]), atol=1e-6)

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_callback_sees_level_k_at_index_k(self, case):
        seen = []

        def record(J, lo, up, rs):
            seen.append((J, lo.copy(), up.copy(), rs.copy()))
            return lo + up

        problem = _func_problem(case, record, record)
        solve_first_order(problem)
        J, lo, up, rs = seen[0]
        x0_lo, x0_up = problem.x0.cuts_at(rs)
        assert J == 0.0 and np.array_equal(rs, default_r_grid(21))
        assert np.array_equal(lo, x0_lo) and np.array_equal(up, x0_up)

    @pytest.mark.parametrize(
        "bad, shape",
        [
            (lambda J, lo, up, rs: 1.0, "()"),
            (lambda J, lo, up, rs: np.float64(1.0), "()"),
            (lambda J, lo, up, rs: lo[1:], "(20,)"),
        ],
        ids=["float", "0-d", "one-short"],
    )
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("case", ["I", "II"])
    def test_callback_of_the_wrong_shape_raises_value_error(self, case, side, bad, shape):
        def good(J, lo, up, rs):
            return lo + up

        fns = (bad, good) if side == "lower" else (good, bad)
        # the side named is the callable's, also where case II swaps the bands
        message = f"FuncRhs {side} returned shape {shape}, expected (21,)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            solve_first_order(_func_problem(case, *fns))

    def test_short_lower_with_long_upper_is_refused(self):
        # n - 1 and n + 1 values make one 2n row, which the generic loop took
        problem = _func_problem(
            "I", lambda J, lo, up, rs: lo[1:], lambda J, lo, up, rs: np.append(up, 0.0)
        )
        with pytest.raises(ValidationError, match=re.escape("lower returned shape (20,)")):
            solve_first_order(problem)

    # calls 0 and 4 get stored rows (steps 0 and 1), call 1 a stage row
    @pytest.mark.parametrize("call", [0, 1, 4], ids=["first-row", "stage-row", "next-row"])
    @pytest.mark.parametrize("arg", ["lo", "up", "rs"])
    @pytest.mark.parametrize("case", ["I", "II"])
    def test_callback_writing_into_its_input_raises(self, case, arg, call):
        # the bands are views of the solver's rows, and rs is the solution's
        # level grid: the write must raise before it reaches them, and the
        # problem's data stays as it was
        views, before = [], []

        def lower(J, lo, up, rs):
            target = {"lo": lo, "up": up, "rs": rs}[arg]
            views.append(target)
            before.append(target.copy())
            if len(views) > call:
                target[0] = 123.0
            return lo + up

        problem = _func_problem(case, lower, lambda J, lo, up, rs: up - lo)
        rs = default_r_grid(21)
        x0_lo, x0_up = (band.copy() for band in problem.x0.cuts_at(rs))
        with pytest.raises(ValueError, match="read-only"):
            solve_first_order(problem)
        assert len(views) == call + 1
        assert np.array_equal(views[-1], before[-1])
        assert np.array_equal(problem.x0.cuts_at(rs)[0], x0_lo)
        assert np.array_equal(problem.x0.cuts_at(rs)[1], x0_up)


def _generic_band_solve(problem, rs, swap):
    """The band system driven through LinearRhs.lower/upper by the generic
    loop, as every first-order solve ran before the linear kernel, with its
    rows in band order: the lowers, then the uppers, each by rising level."""
    rhs, n = problem.rhs, rs.size

    def system(J, y):
        lo, up = y[:n], y[n:]
        if swap:
            dlo, dup = rhs.upper(J, lo, up, rs), rhs.lower(J, lo, up, rs)
        else:
            dlo, dup = rhs.lower(J, lo, up, rs), rhs.upper(J, lo, up, rs)
        return np.concatenate([np.asarray(dlo, dtype=float), np.asarray(dup, dtype=float)])

    lo0, up0 = problem.x0.cuts_at(rs)
    span = (ffde.J_at(problem.table, problem.span[0]), ffde.J_at(problem.table, problem.span[1]))
    return solve_crisp_in_J(system, np.concatenate([lo0, up0]), span, problem.j_steps)


def _linear_problem(a, c, x0, span, case, r_points, j_steps):
    return FirstOrderFfdeProblem(
        table=unit_segment_table(),
        rhs=LinearRhs(a, make_triangular(*sorted(c))),
        x0=make_triangular(*sorted(x0)),
        span=span,
        case=case,
        r_points=r_points,
        j_steps=j_steps,
    )


_moderate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _refuse(monkeypatch, name):
    """Make ``ffde.<name>`` raise instead of running; returns the exception type."""

    class Refused(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Refused(name)

    monkeypatch.setattr(ffde, name, refuse)
    return Refused


_FLOAT_LEVELS = ffde._FLOAT_LEVELS


class TestLinearKernel:
    """The LinearRhs kernels against the generic RK4 loop: bands of at most
    _FLOAT_LEVELS levels take the float kernel, wider ones the in-place
    kernel. Both are reached through _integrate_bands, so the case and sign
    wiring is covered too; TestSolverPaths pins which path takes which
    kernel."""

    @given(
        a=st.one_of(st.floats(min_value=-4.0, max_value=4.0), st.sampled_from([0.0, -0.0])),
        c=st.tuples(_moderate, _moderate, _moderate),
        x0=st.tuples(_moderate, _moderate, _moderate),
        u0=st.floats(min_value=0.0, max_value=0.4),
        u1=st.floats(min_value=0.6, max_value=1.0),
        case=st.sampled_from(["I", "II"]),
        r_points=st.integers(min_value=2, max_value=41),
        j_steps=st.integers(min_value=16, max_value=128),
    )
    @settings(max_examples=60, deadline=None)
    # the widest float band and the narrowest in-place band, with and without the swap P
    @example(a=-1.5, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.1, u1=0.9, case="I",
             r_points=_FLOAT_LEVELS, j_steps=32)
    @example(a=-1.5, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.1, u1=0.9, case="I",
             r_points=_FLOAT_LEVELS + 1, j_steps=32)
    @example(a=2.0, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.1, u1=0.9, case="I",
             r_points=_FLOAT_LEVELS, j_steps=32)
    @example(a=2.0, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.1, u1=0.9, case="I",
             r_points=_FLOAT_LEVELS + 1, j_steps=32)
    # the benchmark's 101 levels: a < 0 in case I and a > 0 in case II swap
    # the bands (P reverses the path-order row), a < 0 in case II does not
    @example(a=-1.5, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.0, u1=1.0, case="I",
             r_points=101, j_steps=64)
    @example(a=1.5, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.0, u1=1.0, case="II",
             r_points=101, j_steps=64)
    @example(a=-1.5, c=(-1.0, 0.5, 2.0), x0=(0.0, 1.0, 2.5), u0=0.0, u1=1.0, case="II",
             r_points=101, j_steps=64)
    def test_bit_identical_to_generic_loop(self, a, c, x0, u0, u1, case, r_points, j_steps):
        problem = _linear_problem(a, c, x0, (u0, u1), case, r_points, j_steps)
        rs = np.linspace(0.0, 1.0, r_points)
        swap = case == "II"
        fast = ffde._integrate_bands(problem, rs, swap)
        slow = _generic_band_solve(problem, rs, swap)
        assert np.array_equal(fast.js, slow.js)
        # the kernels' rows are in path order, the reference's in band order
        for table in (slow.states, slow.slopes):
            table[:, r_points:] = table[:, : r_points - 1 : -1]
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.slopes, slow.slopes)

    @pytest.mark.parametrize("r_points", [_FLOAT_LEVELS, _FLOAT_LEVELS + 1])
    @pytest.mark.parametrize("case", ["I", "II"])
    @pytest.mark.parametrize("a", [1e5, -1e5])
    def test_divergence_reported_identically(self, case, a, r_points):
        # |R(h a)| ~ 4e12 per step: the bands overflow part-way through
        problem = _linear_problem(
            a, (-1.0, 0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0), case, r_points, 32
        )
        rs = np.linspace(0.0, 1.0, r_points)
        errors = []
        for solve in (ffde._integrate_bands, _generic_band_solve):
            with pytest.raises(DivergenceError) as exc:
                solve(problem, rs, case == "II")
            errors.append(exc.value)
        fast, slow = errors
        assert 0.0 < fast.last_valid < 1.0
        assert fast.last_valid == slow.last_valid
        assert str(fast) == str(slow)


# endpoint callables of the band-kernel equivalence test, each of
# (J, lo, up, rs, p, q): linear and coupled, nonlinear but of bounded growth,
# J-dependent, and ones that return a band argument as it is
_BAND_FNS = {
    "linear": lambda J, lo, up, rs, p, q: p * lo + q * up + rs,
    "coupled_cos": lambda J, lo, up, rs, p, q: p * up * np.cos(J) - q * lo,
    "tanh": lambda J, lo, up, rs, p, q: p * lo * np.tanh(up) + q * np.sin(lo - up),
    "cos_forced": lambda J, lo, up, rs, p, q: q * rs * lo + np.cos(p * J),
    "own_lo": lambda J, lo, up, rs, p, q: lo,
    "own_up": lambda J, lo, up, rs, p, q: up,
}


def _recorded_func_rhs(lower, upper, p, q, seen):
    """A FuncRhs of two _BAND_FNS entries that logs each call's side and J."""

    def side(name, fn, coef):
        def call(J, lo, up, rs):
            seen.append((name, J, type(J)))
            return _BAND_FNS[fn](J, lo, up, rs, *coef)

        return call

    return FuncRhs(side("lower", lower, (p, q)), side("upper", upper, (q, p)))


class TestFuncKernel:
    """The FuncRhs band kernel, _rk4_func, against the generic RK4 loop
    driven through the same callbacks: the same tables bit for bit, the
    same J values in the same order, and the same divergence report."""

    @given(
        lower=st.sampled_from(sorted(_BAND_FNS)),
        upper=st.sampled_from(sorted(_BAND_FNS)),
        p=st.floats(min_value=-2.0, max_value=2.0),
        q=st.floats(min_value=-2.0, max_value=2.0),
        x0=st.tuples(_moderate, _moderate, _moderate),
        u0=st.floats(min_value=0.0, max_value=0.4),
        u1=st.floats(min_value=0.6, max_value=1.0),
        case=st.sampled_from(["I", "II"]),
        r_points=st.integers(min_value=2, max_value=25),
        j_steps=st.integers(min_value=16, max_value=128),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_generic_loop(self, lower, upper, p, q, x0, u0, u1, case, r_points, j_steps):
        rs = np.linspace(0.0, 1.0, r_points)
        swap = case == "II"
        runs = []
        for solve in (ffde._integrate_bands, _generic_band_solve):
            seen = []
            problem = FirstOrderFfdeProblem(
                table=unit_segment_table(),
                rhs=_recorded_func_rhs(lower, upper, p, q, seen),
                x0=make_triangular(*sorted(x0)),
                span=(u0, u1),
                case=case,
                r_points=r_points,
                j_steps=j_steps,
            )
            runs.append((solve(problem, rs, swap), seen))
        (fast, fast_seen), (slow, slow_seen) = runs
        assert fast_seen == slow_seen
        assert len(fast_seen) == 2 * (4 * j_steps + 1)
        assert np.array_equal(fast.js, slow.js)
        # the kernel's rows are in path order, the reference's in band order
        for table in (slow.states, slow.slopes):
            table[:, r_points:] = table[:, : r_points - 1 : -1]
        assert np.array_equal(fast.states, slow.states)
        assert np.array_equal(fast.slopes, slow.slopes)

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_divergence_reported_identically(self, case):
        # past J = 0.5 each slope is 1.5e308: every stage state stays finite
        # (h/2 of it is ~1e306), and the RK4 sum k1 + 2 k2 overflows
        rs = np.linspace(0.0, 1.0, 11)
        runs = []
        for solve in (ffde._integrate_bands, _generic_band_solve):
            seen = []

            def steep(J, lo, up, rs, seen=seen):
                seen.append(np.concatenate((lo, up)))
                return np.full(lo.shape, 1.5e308) if J >= 0.5 else np.cos(J) * up + lo

            problem = _func_problem(case, steep, steep)
            with pytest.raises(DivergenceError) as exc:
                solve(problem, rs, case == "II")
            runs.append((exc.value, seen))
        (fast, fast_seen), (slow, slow_seen) = runs
        assert 0.0 < fast.last_valid < 1.0
        assert fast.last_valid == slow.last_valid
        assert str(fast) == str(slow)
        assert len(fast_seen) == len(slow_seen)
        assert all(np.isfinite(band).all() for band in fast_seen + slow_seen)


class TestSolverPaths:
    """No solve reaches the generic loop: LinearRhs solves take the linear
    kernels, every other right-hand side (a FuncRhs or a LinearRhs
    subclass) the band kernel _rk4_func, and the BVP its own. A LinearRhs
    band of at most _FLOAT_LEVELS levels takes the float kernel, a wider
    one the in-place kernel."""

    @pytest.fixture()
    def no_generic_loop(self, monkeypatch):
        return _refuse(monkeypatch, "solve_crisp_in_J")

    @pytest.mark.parametrize("method", ["full", "cuts"])
    @pytest.mark.parametrize("case", ["I", "II"])
    def test_linear_rhs_skips_generic_loop(self, no_generic_loop, case, method):
        sol = ffde.solve_first_order(example1_problem(case, r_points=11, j_steps=64), method=method)
        assert sol.lower.shape == (65, 11)

    @pytest.mark.parametrize(
        "method, r_points, refused",
        [
            ("cuts", 101, "_linear_steps_inplace"),  # the 0/1-cut band has 2 levels
            ("full", 2, "_linear_steps_inplace"),
            ("full", _FLOAT_LEVELS, "_linear_steps_inplace"),
            ("full", _FLOAT_LEVELS + 1, "_linear_steps_floats"),
            ("full", 101, "_linear_steps_floats"),
        ],
    )
    @pytest.mark.parametrize("case", ["I", "II"])
    def test_band_width_selects_kernel(self, monkeypatch, case, method, r_points, refused):
        _refuse(monkeypatch, refused)
        problem = example1_problem(case, r_points=r_points, j_steps=64)
        sol = ffde.solve_first_order(problem, method=method)
        assert sol.lower.shape == (65, r_points)

    @pytest.mark.parametrize("method", ["full", "cuts"])
    @pytest.mark.parametrize("case", ["I", "II"])
    def test_unit_segment_dense_output_copies_its_nodes(self, monkeypatch, case, method):
        # the u-grid's J values are the RK4 nodes, so the dense output copies
        # every node but the last, which goes through the last cubic
        sizes = []
        cubic = ffde._cubic

        def counted(x, y, m, q, i, out):
            sizes.append(q.size)
            cubic(x, y, m, q, i, out)

        monkeypatch.setattr(ffde, "_cubic", counted)
        ffde.solve_first_order(example1_problem(case, r_points=101, j_steps=256), method=method)
        assert sizes == [1]

    @pytest.mark.parametrize("case, kind", [("I", "FuncRhs"), ("II", "FuncRhs"), ("I", "subclass")])
    def test_other_rhs_takes_band_kernel(self, monkeypatch, no_generic_loop, case, kind):
        if kind == "FuncRhs":
            rhs = FuncRhs(lambda J, lo, up, rs: lo, lambda J, lo, up, rs: up)
        else:
            rhs = _Damped(1.0, make_triangular(-1.0, 0.0, 1.0))
        problem = FirstOrderFfdeProblem(
            table=unit_segment_table(),
            rhs=rhs,
            x0=make_triangular(0.0, 1.0, 2.0),
            span=(0.0, 1.0),
            case=case,
            r_points=5,
            j_steps=32,
        )
        # solves with the generic loop refused, and reaches _rk4_func
        assert ffde.solve_first_order(problem).lower.shape == (33, 5)
        with pytest.raises(_refuse(monkeypatch, "_rk4_func")):
            ffde.solve_first_order(problem)

    def test_bvp_skips_generic_loop(self, no_generic_loop):
        sol = ffde.solve_second_order_bvp(example2_bvp(steps=64))
        assert sol.crisp.shape == (65,)


def _solution_digest(sol):
    digest = hashlib.sha256()
    for arr in (sol.us, sol.Js, sol.rs, sol.lower, sol.upper, sol.validity):
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TestGoldenCutsBytes:
    """sha256 of (us, Js, rs, lower, upper, validity) of three 0/1-cut
    solves at the default 101 levels and 256 steps, recorded while every
    linear band ran the in-place kernel. Case II with a > 0 and case I with
    a < 0 both run under the swap P."""

    CASES = {
        "example1_I": (
            lambda: example1_problem("I"),
            "10262eec29c22740d93eb9c2b643d9fae802b612dbc244fc1a624e2d1049356c",
        ),
        "example1_II": (
            lambda: example1_problem("II"),
            "976bbf1e519499a97167134e56a40e9914b8b6ed7ed8d4f767c3c449be6514ae",
        ),
        "negative_a_I": (
            lambda: _linear_problem(
                -1.5, (-0.5, 0.25, 1.0), (0.5, 1.0, 2.0), (0.0, 1.0), "I", 101, 256
            ),
            "7ddd3f9f7499b24e37c8add0bbdc6c43585041e769a19886e106eac1297e8ba7",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cuts_solution_bytes(self, name):
        make_problem, expected = self.CASES[name]
        assert _solution_digest(solve_first_order(make_problem(), method="cuts")) == expected


def _koch5_example1_II():
    from ffcalc import build_staircase, generate_koch

    table = build_staircase(generate_koch(5), math.log(4.0) / math.log(3.0), p0=0.0)
    return example1_problem("II", table=table)


def _band_problem(a, case, r_points):
    return _linear_problem(a, (-0.5, 0.25, 1.0), (0.5, 1.0, 2.0), (0.0, 1.0), case, r_points, 256)


def _func_problem(case, lower_fn, upper_fn):
    return FirstOrderFfdeProblem(
        table=unit_segment_table(),
        rhs=FuncRhs(lower_fn, upper_fn),
        x0=make_triangular(0.5, 1.0, 2.0),
        span=(0.0, 1.0),
        case=case,
        r_points=21,
        j_steps=64,
    )


def _koch5_func(case):
    """The benchmark's FuncRhs form, x' = a x + c written as endpoint
    callables, at 101 levels on a Koch-5 staircase over a sub-span."""
    from ffcalc import build_staircase, generate_koch

    a, (c0, c1, c2) = 0.9, (-0.4, 0.1, 0.7)

    def lower(J, lo, up, rs):
        return a * lo + (c0 * (1.0 - rs) + c1 * rs)

    def upper(J, lo, up, rs):
        return a * up + (c2 * (1.0 - rs) + c1 * rs)

    return FirstOrderFfdeProblem(
        table=build_staircase(generate_koch(5), math.log(4.0) / math.log(3.0), p0=0.0),
        rhs=FuncRhs(lower, upper),
        x0=make_triangular(-0.6, 0.2, 1.1),
        span=(0.15, 0.85),
        case=case,
        r_points=101,
        j_steps=256,
    )


class TestLinearRhsSides:
    """Each side of a LinearRhs interpolates only its own band of c."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("both bands interpolated")

    @pytest.mark.parametrize("a", [1.5, -0.5])
    def test_each_side_interpolates_one_band(self, monkeypatch, a):
        c = make_triangular(-1.0, -0.0, 2.0)
        rhs = LinearRhs(a, c)
        rs = default_r_grid()
        lo, up = rs - 2.0, 3.0 - rs
        clo, cup = c.cuts_at(rs)
        want = [
            (a * lo if a >= 0.0 else a * up) + clo,
            (a * up if a >= 0.0 else a * lo) + cup,
        ]
        calls = []
        interp = np.interp
        monkeypatch.setattr(np, "interp", lambda *args: calls.append(args[2]) or interp(*args))
        monkeypatch.setattr(FuzzyNumber, "cuts_at", self._refuse)
        got = [rhs.lower(0.0, lo, up, rs.view()), rhs.upper(0.0, lo, up, rs.view())]
        assert [band.tolist() for band in calls] == [c.lowers.tolist(), c.uppers.tolist()]
        for g, w in zip(got, want):
            assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()

    def test_other_levels_are_interpolated(self):
        c = make_triangular(-1.0, 0.25, 2.0)
        rs = default_r_grid(7)
        lo, up = rs - 2.0, 3.0 - rs
        rhs = LinearRhs(1.5, c)
        want_lo = 1.5 * lo + np.interp(rs, c.rs, c.lowers)
        want_up = 1.5 * up + np.interp(rs, c.rs, c.uppers)
        assert rhs.lower(0.0, lo, up, rs).tolist() == want_lo.tolist()
        assert rhs.upper(0.0, lo, up, rs).tolist() == want_up.tolist()
        with pytest.raises(DomainError, match=r"^membership levels outside \[0, 1\]$"):
            rhs.lower(0.0, lo, up, rs + 0.5)


class _Damped(LinearRhs):
    """A LinearRhs subclass: its own lower/upper override the linear form."""

    def lower(self, J, lo, up, rs):
        return super().lower(J, lo, up, rs) - 0.5 * lo


class TestGoldenBandBytes:
    """sha256 of (us, Js, rs, lower, upper, validity) of first-order solves
    through every band path: both linear kernels with the swap P (a < 0 in
    case I, a > 0 in case II) and without it, a 0/1-cut solve, a Koch-5
    staircase and the band kernel that a FuncRhs takes. Recorded while
    only swapped bands wider than _FLOAT_LEVELS ran in path order; the
    func_koch5_*, func_own_inputs_*, func_opposite_bands_I and
    linear_subclass_101_I digests were recorded while every FuncRhs and
    LinearRhs subclass solve ran the generic loop, solve_crisp_in_J."""

    CASES = {
        # P from a < 0 alone, and case II's swap with no P
        "full_101_negative_a_I": (
            lambda: _band_problem(-1.5, "I", 101),
            "full",
            "f96539eeaeacc0c8322023324a01344d21180905648c5b2f8b8a37804c79cfa5",
        ),
        "full_101_negative_a_II": (
            lambda: _band_problem(-1.5, "II", 101),
            "full",
            "0992f16190ee7490facef2db4cbab0a0c1fbb84e412a6d99955710c457d81f09",
        ),
        "full_8_negative_a_I": (
            lambda: _band_problem(-1.5, "I", 8),
            "full",
            "d6b3302d47d2d1057b860d0779d485e58dcaf027b9557dea6054d386113943ab",
        ),
        "full_8_positive_a_I": (
            lambda: _band_problem(1.5, "I", 8),
            "full",
            "d8d69c6b4387a6a6a065b0dfaca6037161f9c0683d40ce4fbd5c83ba96627078",
        ),
        "full_8_negative_a_II": (
            lambda: _band_problem(-1.5, "II", 8),
            "full",
            "13c3e47c7c17715e0f71118297075f7c0bbe9fa8abde558e38aabdc712573fe6",
        ),
        "full_8_example1_II": (
            lambda: example1_problem("II", r_points=8),
            "full",
            "bc1c6bd2576e829175479f3d87cbaed501e07d563b0995b14e4f8d38a48c9233",
        ),
        "cuts_negative_a_II": (
            lambda: _band_problem(-1.5, "II", 101),
            "cuts",
            "b40adb27ab48d8e4bb162b2c5cededc8156b65dc83a8266ad1afd20afab40d81",
        ),
        "full_koch5_example1_II": (
            _koch5_example1_II,
            "full",
            "27c300bcfaf91c91db60485248931ce88fe2b9226448479e5ceeb71b388c108d",
        ),
        # level k of each band is read at index k and weighted by rs[k]
        "func_I": (
            lambda: _func_problem(
                "I",
                lambda J, lo, up, rs: 0.5 * lo - 0.25 * rs * up + np.cos(J),
                lambda J, lo, up, rs: 0.75 * up + 0.125 * rs * lo,
            ),
            "full",
            "9d0a525ba2d23caaa7306f2e6a573a5b8791a043c4c282f5cf9f3be3f27c3750",
        ),
        "func_II": (
            lambda: _func_problem(
                "II",
                lambda J, lo, up, rs: -0.5 * up + 0.25 * rs * lo,
                lambda J, lo, up, rs: -0.75 * lo - 0.125 * rs * up + np.sin(J),
            ),
            "full",
            "d2e442b67f53a4aa37c645855d0531651abc959b91b33679436b2808a056e23a",
        ),
        "func_koch5_101_I": (lambda: _koch5_func("I"), "full", "4ae1e2102cb2865ec2b3781b6070a8b968850a1fbbddc374e13282c830177431"),
        "func_koch5_101_II": (lambda: _koch5_func("II"), "full", "da26a56ee98bdd0e196e18adcd7817dcd35e287d1a6fc4c3640eead20cce02de"),
        # callbacks that hand back their own band arguments, or the other
        # side's; case II's swap makes own_inputs_II the system of
        # opposite_bands_I, so the two share a digest
        "func_own_inputs_I": (
            lambda: _func_problem("I", lambda J, lo, up, rs: lo, lambda J, lo, up, rs: up),
            "full",
            "773a34354e39d97f92fe518c301e5bbc4e4ab776da0d4363a9788feab290d01d",
        ),
        "func_own_inputs_II": (
            lambda: _func_problem("II", lambda J, lo, up, rs: lo, lambda J, lo, up, rs: up),
            "full",
            "8653355a27b9dc35d1ce7c37bcff0349837e67ae628ec1b9030a22d8fd4caeca",
        ),
        "func_opposite_bands_I": (
            lambda: _func_problem("I", lambda J, lo, up, rs: up, lambda J, lo, up, rs: lo),
            "full",
            "8653355a27b9dc35d1ce7c37bcff0349837e67ae628ec1b9030a22d8fd4caeca",
        ),
        "linear_subclass_101_I": (
            lambda: FirstOrderFfdeProblem(
                table=unit_segment_table(),
                rhs=_Damped(1.0, make_triangular(-1.0, 0.0, 1.0)),
                x0=make_triangular(0.0, 1.0, 2.0),
                span=(0.0, 1.0),
                case="I",
                r_points=101,
                j_steps=256,
            ),
            "full",
            "de6d884d60868537ddbbfc6a45ffebcd7b363d9077bf16b65fc0a547c2a1cb6f",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_solution_bytes(self, name):
        make_problem, method, expected = self.CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_first_order(make_problem(), method=method)
        assert _solution_digest(sol) == expected


class TestVerificationHarness:
    def test_solver_passes_against_own_closed_form(self):
        sol = solve_first_order(example1_problem("I"))
        report = verify_against_closed_form(sol, example1_case1_band, tol=1e-6)
        assert report.passed and report.max_error < 1e-6

    def test_perturbed_formula_calibrates_harness(self):
        sol = solve_first_order(example1_problem("I"))

        def shifted(J, r):
            lo, up = example1_case1_band(J, r)
            return lo + 0.1, up
        report = verify_against_closed_form(sol, shifted, tol=1e-6)
        assert not report.passed
        assert report.max_error == pytest.approx(0.1, abs=1e-6)

    def test_restrict_to_valid_flag(self):
        sol = solve_first_order(example1_problem("II"))
        full = verify_against_closed_form(sol, example1_case2_band, tol=1e-6)
        valid_only = verify_against_closed_form(
            sol, example1_case2_band, tol=1e-6, restrict_to_valid=True
        )
        assert valid_only.passed
        assert valid_only.n_points < full.n_points
        # the closed form still solves the swapped system past the horizon,
        # so even the full-grid error stays small; the flag governs coverage
        assert full.n_points == sol.lower.size

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        sol = solve_first_order(example1_problem("I", r_points=3, j_steps=16))
        with pytest.raises(ValidationError, match="tol must be a finite non-negative number"):
            verify_against_closed_form(sol, example1_case1_band, tol=tol)


@pytest.fixture(scope="module")
def solution():
    return solve_second_order_bvp(example2_bvp())


class TestSecondOrder:

    def test_boundary_values(self, solution):
        assert solution.crisp[0] == pytest.approx(3.0, abs=1e-12)
        assert solution.crisp[-1] == pytest.approx(2.0, abs=1e-9)

    def test_crisp_matches_closed_form(self, solution):
        err = np.max(np.abs(solution.crisp - example2_crisp_closed_form(solution.js)))
        assert err < 1e-6

    def test_ode_residual(self, solution):
        res = ode_residual_max(solution.js, solution.crisp, -4.0, 4.0, solution.problem.forcing)
        assert res < 1e-5

    def test_interpolation_identities(self, solution):
        assert np.allclose(solution.q_at(0.0), [1.0, 0.0], atol=1e-10)
        assert np.allclose(solution.q_at(1.0), [0.0, 1.0], atol=1e-10)

    def test_fundamental_pair_matches_double_root(self, solution):
        # operator (d/dJ - 2)^2: basis e^{2J}, J e^{2J}; boundary matrix
        # [[1, 0], [e^2, e^2]]
        M = solution.boundary_matrix
        assert np.allclose(M, [[1.0, 0.0], [math.e**2, math.e**2]], rtol=1e-12)

    def test_uncertainty_weights(self, solution):
        # q1 = (1 - J) e^{2J}, q2 = J e^{2(J-1)}
        js = solution.js
        assert np.allclose(solution.q1, (1.0 - js) * np.exp(2.0 * js), atol=1e-12)
        assert np.allclose(solution.q2, js * np.exp(2.0 * (js - 1.0)), atol=1e-12)

    def test_kappa_one_collapses_exactly(self, solution):
        lo, up = solution.kappa_band(1.0)
        assert np.array_equal(lo, solution.crisp)
        assert np.array_equal(up, solution.crisp)

    def test_kappa_bands_nested(self, solution):
        kappas = [0.0, 0.25, 0.5, 0.75, 1.0]
        bands = [solution.kappa_band(k) for k in kappas]
        for (lo_outer, up_outer), (lo_inner, up_inner) in zip(bands, bands[1:]):
            assert np.all(lo_inner >= lo_outer - 1e-15)
            assert np.all(up_inner <= up_outer + 1e-15)

    def test_uncertainty_band_formula(self, solution):
        # q1 (-1, 1) + q2 (-1, 0.5) with q1, q2 >= 0 on [0, 1]
        assert np.allclose(solution.un_lower, -solution.q1 - solution.q2, atol=1e-12)
        assert np.allclose(solution.un_upper, solution.q1 + 0.5 * solution.q2, atol=1e-12)

    @pytest.mark.parametrize("j", [5.0, -0.1, np.array([0.5, 1.0 + 1e-9])])
    def test_q_at_outside_span_raises(self, solution, j):
        with pytest.raises(DomainError):
            solution.q_at(j)

    @pytest.mark.parametrize("j", [math.nan, np.array([0.5, math.nan])])
    def test_q_at_nan_raises(self, solution, j):
        with pytest.raises(DomainError):
            solution.q_at(j)

    def test_q_at_accepts_the_span_ends_and_arrays(self, solution):
        q = solution.q_at(np.array([0.0, 0.5, 1.0]))
        assert q.shape == (2, 3)
        assert np.allclose(q[:, 0], [1.0, 0.0], atol=1e-10)
        assert np.allclose(q[:, 2], [0.0, 1.0], atol=1e-10)

    def test_to_solution_needs_two_levels(self):
        with pytest.raises(ValidationError, match="r_points must be >= 2"):
            example2_bvp(r_points=1)

    def test_to_solution_checks_the_grid_cap_first(self, solution):
        over = MAX_GRID_CELLS // solution.js.size + 1  # one level past the cap
        message = f"grid too large: (steps + 1) x r_points = {solution.js.size * over:.4g} cells"
        with pytest.raises(ValidationError, match=re.escape(message)):
            example2_bvp(r_points=over)
        with pytest.raises(ValidationError, match="grid too large"):
            example2_bvp(r_points=MAX_GRID_CELLS)

    def test_to_solution_layout(self):
        solution = solve_second_order_bvp(example2_bvp(r_points=5))
        sol = solution.to_solution()
        assert sol.rs.size == 5
        assert np.array_equal(sol.rs, np.linspace(0.0, 1.0, 5))
        assert np.all(sol.validity)
        assert np.allclose(sol.lower[:, -1], solution.crisp)

    def test_to_solution_flags_non_finite_rows(self):
        # a finite foot near the float limit overflows the envelope; the
        # overflow is flagged in the rows, never printed as a numpy warning
        bvp = example2_bvp(steps=64)
        huge = ffde.SecondOrderFuzzyBvp(
            **{**vars(bvp), "boundary_start": TriangularFuzzy(2.0, 3.0, 1.7e308)}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_second_order_bvp(huge).to_solution()
        finite = np.isfinite(sol.lower).all(axis=1) & np.isfinite(sol.upper).all(axis=1)
        assert not finite.all()
        assert np.array_equal(sol.validity, finite)
        for i in range(sol.us.size):
            if sol.validity[i]:
                sol.r_slice(i)
            else:
                with pytest.raises(ValidationError):
                    sol.r_slice(i)

    def test_complex_and_distinct_roots_paths(self):
        # distinct real roots: x'' - x = 0 -> e^J, e^-J
        from ffcalc.ffde import _fundamental_pair

        x1, x2 = _fundamental_pair(0.0, -1.0)
        assert x1(1.0) == pytest.approx(math.e) and x2(1.0) == pytest.approx(1.0 / math.e)
        # complex pair: x'' + x = 0 -> cos J, sin J
        c1, c2 = _fundamental_pair(0.0, 1.0)
        assert c1(0.5) == pytest.approx(math.cos(0.5))
        assert c2(0.5) == pytest.approx(math.sin(0.5))


def _generic_shooting(problem):
    """solve_second_order_bvp as it ran before the shooting kernel: the
    forced and the homogeneous solve each through the generic loop."""
    p, q, g = problem.p, problem.q, problem.forcing
    j0, j1 = problem.j_span
    peak0 = problem.boundary_start.b
    peak1 = problem.boundary_end.b

    def forced(J, y):
        return np.array([y[1], float(g(J)) - p * y[1] - q * y[0]])

    def homogeneous(J, y):
        return np.array([y[1], -p * y[1] - q * y[0]])

    base = solve_crisp_in_J(forced, [peak0, 0.0], (j0, j1), problem.steps)
    hom = solve_crisp_in_J(homogeneous, [0.0, 1.0], (j0, j1), problem.steps)
    den = float(hom.final[0])
    if abs(den) <= 1e-12 * max(1.0, abs(peak1), abs(float(base.final[0]))):
        raise DivergenceError("shooting failed: homogeneous solution vanishes at the far end")
    c = (peak1 - float(base.final[0])) / den
    states = base.states + c * hom.states

    x1, x2 = ffde._fundamental_pair(p, q)
    M = np.array([[float(x1(j0)), float(x2(j0))], [float(x1(j1)), float(x2(j1))]])
    scale = max(1.0, float(np.max(np.abs(M))))
    if abs(float(np.linalg.det(M))) <= 1e-12 * scale * scale:
        raise ffde.ConditioningError("boundary matrix of the fundamental pair is singular")
    js = base.js
    P = np.stack([np.asarray(x1(js), dtype=float), np.asarray(x2(js), dtype=float)], axis=1)
    W = np.linalg.solve(M.T, P.T).T
    q1, q2 = W[:, 0], W[:, 1]
    b0, b1 = problem.boundary_start, problem.boundary_end
    lo0, hi0 = b0.a - b0.b, b0.c - b0.b
    lo1, hi1 = b1.a - b1.b, b1.c - b1.b
    un_lower = np.minimum(q1 * lo0, q1 * hi0) + np.minimum(q2 * lo1, q2 * hi1)
    un_upper = np.maximum(q1 * lo0, q1 * hi0) + np.maximum(q2 * lo1, q2 * hi1)
    return js, states[:, 0], states[:, 1], q1, q2, un_lower, un_upper


def _shooting_outcome(solve, problem):
    """The solution arrays, or the error with its message and last_valid."""
    try:
        out = solve(problem)
    except (DivergenceError, ffde.ConditioningError) as exc:
        return (type(exc), str(exc), getattr(exc, "last_valid", None))
    if isinstance(out, ffde.SecondOrderSolution):
        out = (out.js, out.crisp, out.crisp_slope, out.q1, out.q2, out.un_lower, out.un_upper)
    return tuple(np.asarray(a) for a in out)


def _assert_same_shooting(problem):
    fast = _shooting_outcome(solve_second_order_bvp, problem)
    slow = _shooting_outcome(_generic_shooting, problem)
    if isinstance(slow[0], type):
        assert fast == slow
    else:
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)


def _forcing(kind, c0, c1, c2):
    """Forcings written through np.asarray, so arrays and scalars give the same bits."""
    if kind == "polynomial":
        return lambda J: c0 + c1 * np.asarray(J, dtype=float) + c2 * np.asarray(J, dtype=float) ** 2
    if kind == "sin":
        return lambda J: c0 * np.sin(c1 * np.asarray(J, dtype=float) + c2)
    if kind == "exp":
        return lambda J: c0 * np.exp(0.5 * c1 * np.asarray(J, dtype=float))
    return lambda J: c0


_coeff = st.floats(min_value=-20.0, max_value=20.0)
_peak = st.floats(min_value=-5.0, max_value=5.0)


class TestShootingKernel:
    """The one-loop shooting kernel against the two generic-loop solves it
    replaced, through solve_second_order_bvp."""

    @given(
        p=_coeff,
        q=_coeff,
        j0=st.floats(min_value=-2.0, max_value=2.0),
        width=st.floats(min_value=0.05, max_value=5.0),
        steps=st.integers(min_value=16, max_value=600),
        peaks=st.tuples(_peak, _peak),
        kind=st.sampled_from(["polynomial", "sin", "exp", "constant"]),
        c=st.tuples(_peak, _peak, _peak),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_generic_loop(self, p, q, j0, width, steps, peaks, kind, c):
        problem = ffde.SecondOrderFuzzyBvp(
            p=p,
            q=q,
            forcing=_forcing(kind, *c),
            boundary_start=TriangularFuzzy(peaks[0] - 1.0, peaks[0], peaks[0] + 0.5),
            boundary_end=TriangularFuzzy(peaks[1] - 0.25, peaks[1], peaks[1] + 2.0),
            j_span=(j0, j0 + width),
            steps=steps,
        )
        _assert_same_shooting(problem)

    @pytest.mark.parametrize("steps", [256, 4096])
    def test_example2_bit_identical(self, steps):
        _assert_same_shooting(example2_bvp(steps=steps))
        _assert_same_shooting(
            ffde.SecondOrderFuzzyBvp(**{**vars(example2_bvp(777)), "j_span": (0.1, 1.3)})
        )

    @pytest.mark.parametrize(
        "forcing, start, diverges",
        [
            # both solves overflow; the forced one is reported
            (lambda J: 1.0 - 2.0 * np.asarray(J, dtype=float) ** 2, (2.0, 3.0, 4.0), "both"),
            # zero peak and forcing keep the forced solve at 0: only the homogeneous overflows
            (lambda J: 0.0, (-1.0, 0.0, 1.0), "homogeneous"),
            # a NaN forcing past J = 5 breaks only the forced solve
            (lambda J: np.where(np.asarray(J) > 5.0, np.nan, 1.0), (2.0, 3.0, 4.0), "forced"),
        ],
    )
    def test_divergence_reported_identically(self, forcing, start, diverges):
        p = 0.0 if diverges == "forced" else -400.0
        problem = ffde.SecondOrderFuzzyBvp(
            p=p,
            q=4.0,
            forcing=forcing,
            boundary_start=TriangularFuzzy(*start),
            boundary_end=TriangularFuzzy(1.0, 2.0, 2.5),
            j_span=(0.0, 10.0),
            steps=500,
        )
        with pytest.raises(DivergenceError) as exc:
            solve_second_order_bvp(problem)
        assert 0.0 < exc.value.last_valid < 10.0
        _assert_same_shooting(problem)

    @pytest.mark.parametrize(
        "result",
        [
            lambda J: np.zeros(3),
            lambda J: np.zeros(1),
            lambda J: np.zeros((np.size(J), 1)),
            lambda J: "one",
            lambda J: None,
        ],
    )
    def test_bad_forcing_result_rejected(self, result):
        problem = ffde.SecondOrderFuzzyBvp(**{**vars(example2_bvp(64)), "forcing": result})
        with pytest.raises(ValidationError, match="forcing must map"):
            solve_second_order_bvp(problem)


class TestSolutionCsv:
    def test_round_trip_preserves_error_report(self):
        sol = solve_first_order(example1_problem("II", r_points=21, j_steps=64))
        buf = io.StringIO()
        solution_to_csv(sol, buf)
        buf.seek(0)
        reloaded = solution_from_csv(buf, case="II")
        direct = verify_against_closed_form(sol, example1_case2_band, tol=1e-6, restrict_to_valid=True)
        loaded = verify_against_closed_form(
            reloaded, example1_case2_band, tol=1e-6, restrict_to_valid=True
        )
        assert abs(direct.max_error - loaded.max_error) <= 1e-15
        assert abs(direct.rms_error - loaded.rms_error) <= 1e-15
        assert np.array_equal(reloaded.validity, sol.validity)

    def test_header_and_shape(self):
        sol = solve_first_order(example1_problem("I", r_points=3, j_steps=16, u_points=4))
        buf = io.StringIO()
        solution_to_csv(sol, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "u,J,r,lower,upper,valid"
        assert len(lines) == 1 + 4 * 3

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError):
            solution_from_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_round_trip_exact_at_extreme_magnitudes(self):
        rng = np.random.default_rng(7)
        n_u, n_r = 9, 5
        tiny_huge = np.array([1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308])
        lower = rng.normal(size=(n_u, n_r)) * 10.0 ** rng.integers(-300, 301, size=(n_u, n_r))
        lower.flat[: tiny_huge.size] = tiny_huge
        sol = FuzzySolution(
            us=np.linspace(0.0, 1.0, n_u) / 3.0,
            Js=np.linspace(0.0, 1e-300, n_u),
            rs=np.linspace(0.0, 1.0, n_r),
            lower=lower,
            upper=-lower[::-1],
            validity=np.arange(n_u) % 2 == 0,
            case="I",
        )
        buf = io.StringIO()
        solution_to_csv(sol, buf)
        buf.seek(0)
        back = solution_from_csv(buf, case="I")
        for name in ("us", "Js", "rs", "lower", "upper", "validity"):
            assert np.array_equal(getattr(back, name), getattr(sol, name)), name

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "\n\n",
            "0,0,0,1,2,1\n0,0,1,x,1,1\n",
            "0,0,0,1,2,1\n0,0,1,1\n",
            "0,0,0,1\n",
            "0,0,0,1,2,1,7\n",
        ],
        ids=["empty", "blank", "non_numeric", "ragged", "narrow", "wide"],
    )
    def test_malformed_body_rejected(self, body):
        with pytest.raises(ValidationError):
            solution_from_csv(io.StringIO("u,J,r,lower,upper,valid\n" + body))

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (4, 2, "0.75", "do not share one r column"),
            (5, 0, "0.5", "differ in u, J or valid"),
            (5, 1, "0.5", "differ in u, J or valid"),
            (5, 5, "0", "differ in u, J or valid"),
            (3, 2, "nan", "do not share one r column"),
            (4, 0, "nan", "differ in u, J or valid"),
        ],
        ids=["second_block_r", "u_in_block", "J_in_block", "flag_in_block", "nan_r", "nan_u"],
    )
    def test_inconsistent_grid_rejected(self, row, column, value, message):
        # two u-blocks of three levels: rows 0-2 and 3-5
        lines = ["0,0,0,1,2,1", "0,0,0.5,1,2,1", "0,0,1,1,2,1",
                 "1,2,0,1,2,1", "1,2,0.5,1,2,1", "1,2,1,1,2,1"]
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        body = "u,J,r,lower,upper,valid\n" + "\n".join(lines) + "\n"
        with pytest.raises(ValidationError, match=message):
            solution_from_csv(io.StringIO(body))

    @pytest.mark.parametrize(
        "levels, rule",
        [
            (("0", "0", "0.5"), "rs must be strictly increasing with >= 2 levels"),
            (("0", "1.5"), "the r-grid must include the levels 0 and 1"),
            (("-0.5", "0.5"), "the r-grid must include the levels 0 and 1"),
            (("1.25",), "rs must be strictly increasing with >= 2 levels"),
            (("0.5", "0.5"), "rs must be strictly increasing with >= 2 levels"),
        ],
        ids=["repeated", "above_one", "below_zero", "alone_above_one", "all_equal"],
    )
    def test_r_column_must_increase_within_unit_interval(self, levels, rule):
        # two u-blocks that share the r column, all rows flagged valid
        rows = [f"{u},{u},{r},1,2,1" for u in (0, 1) for r in levels]
        body = "u,J,r,lower,upper,valid\n" + "\n".join(rows) + "\n"
        message = "^solution CSV r column: " + re.escape(rule) + "$"
        with pytest.raises(ValidationError, match=message):
            solution_from_csv(io.StringIO(body))

    @pytest.mark.parametrize("levels", [("nan",), ("0", "nan", "1"), ("nan", "0.5")])
    def test_nan_levels_are_refused(self, levels):
        # NaN equals no r, so the u-blocks cannot share the r column
        rows = [f"{u},{u},{r},1,2,1" for u in (0, 1) for r in levels]
        with pytest.raises(ValidationError, match="do not share one r column"):
            solution_from_csv(io.StringIO("u,J,r,lower,upper,valid\n" + "\n".join(rows) + "\n"))

    @pytest.mark.parametrize("levels", [("0.25", "0.75"), ("0.1", "0.2", "0.9")])
    def test_r_column_must_hold_both_ends(self, levels):
        # FuzzyNumber, and so r_slice, needs the levels 0 and 1
        rows = [f"{u},{u},{r},1,2,1" for u in (0, 1) for r in levels]
        message = r"^solution CSV r column: the r-grid must include the levels 0 and 1$"
        with pytest.raises(ValidationError, match=message):
            solution_from_csv(io.StringIO("u,J,r,lower,upper,valid\n" + "\n".join(rows) + "\n"))

    def test_r_column_of_both_ends_loads(self):
        rows = [f"{u},{u},{r},1,2,1" for u in (0, 1) for r in ("0", "1")]
        sol = solution_from_csv(io.StringIO("u,J,r,lower,upper,valid\n" + "\n".join(rows) + "\n"))
        assert sol.rs.tolist() == [0.0, 1.0]
        assert sol.r_slice(1).core.lo == 1.0

    @pytest.mark.parametrize("flag", ["7", "nan", "-1", "0.5"])
    def test_valid_column_must_be_zero_or_one(self, flag):
        body = f"u,J,r,lower,upper,valid\n0,0,0,1,2,{flag}\n0,0,1,1,2,{flag}\n"
        with pytest.raises(ValidationError, match="must hold 0 or 1"):
            solution_from_csv(io.StringIO(body))


# every FuzzySolution the library makes, on small grids
_PRODUCERS = {
    **{
        f"case{case}_{method}": (
            lambda case=case, method=method: solve_first_order(
                example1_problem(case, r_points=11, j_steps=64), method=method
            )
        )
        for case in ("I", "II")
        for method in ("full", "cuts")
    },
    **{
        f"to_solution_{n}": (
            lambda n=n: solve_second_order_bvp(example2_bvp(steps=64, r_points=n)).to_solution()
        )
        for n in (2, 5)
    },
}


class TestPeakMemory:
    """Peaks traced by tracemalloc for the largest solve in the tests, a
    4096-step, 101-level segment problem, and for writing it out. The dense
    output, the validity flags and the CSV body are formed a block of rows
    at a time, so no full-size temporary sits beside the result."""

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_solve_peaks_below_five_results(self):
        problem = example1_problem("I", r_points=101, j_steps=4096)
        solve_first_order(example1_problem("I", r_points=5, j_steps=16))  # first-call caches
        sol, peak = self._peak(lambda: solve_first_order(problem))
        assert peak < 5 * (sol.lower.nbytes + sol.upper.nbytes)

    def test_csv_write_peaks_below_40_mb(self, tmp_path):
        sol = solve_first_order(example1_problem("I", r_points=101, j_steps=4096))
        _, peak = self._peak(lambda: solution_to_csv(sol, tmp_path / "big.csv"))
        assert peak < 40e6
        with open(tmp_path / "big.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + 4097 * 101


class TestRSliceInvariant:
    @pytest.mark.parametrize("reload", [False, True], ids=["direct", "csv"])
    @pytest.mark.parametrize("producer", sorted(_PRODUCERS))
    def test_every_valid_row_slices(self, producer, reload):
        sol = _PRODUCERS[producer]()
        if reload:
            buf = io.StringIO()
            solution_to_csv(sol, buf)
            buf.seek(0)
            sol = solution_from_csv(buf, case=sol.case)
        valid = np.flatnonzero(sol.validity)
        assert valid.size > 1
        for i in valid:
            assert isinstance(sol.r_slice(i), FuzzyNumber)


class TestProblemJson:
    def test_builtin_example1(self):
        problem = problem_from_json(
            {"rhs": {"kind": "builtin", "name": "example1"}, "case": "II", "j_steps": 64}
        )
        assert isinstance(problem, FirstOrderFfdeProblem)
        assert problem.case == "II" and problem.j_steps == 64

    def test_builtin_example2(self):
        bvp = problem_from_json({"rhs": {"kind": "builtin", "name": "example2"}})
        assert bvp.boundary_start == TriangularFuzzy(2.0, 3.0, 4.0)

    _LINEAR = {
        "curve": {"kind": "polyline", "params": [0, 1], "points": [[0, 0], [1, 0]]},
        "rhs": {"kind": "linear", "a": 1.0, "c": {"kind": "triangular", "a": -1, "b": 0, "c": 1}},
        "x0": {"kind": "triangular", "a": 0, "b": 1, "c": 2},
    }
    _EXAMPLE1 = {"rhs": {"kind": "builtin", "name": "example1"}}
    _EXAMPLE2 = {"rhs": {"kind": "builtin", "name": "example2"}}
    _GIVEN = {"case": "II", "r_points": 7, "j_steps": 32}

    # the BVP's step count is its j_steps, and it takes no case
    @pytest.mark.parametrize(
        "spec, fields",
        [
            (_EXAMPLE1, {"case": "I", "r_points": 101, "j_steps": 256}),
            ({**_EXAMPLE1, **_GIVEN}, _GIVEN),
            (_LINEAR, {"case": "I", "r_points": 101, "j_steps": 256}),
            ({**_LINEAR, **_GIVEN}, _GIVEN),
            (_EXAMPLE2, {"r_points": 101, "steps": 256}),
            ({**_EXAMPLE2, "r_points": 7, "j_steps": 32}, {"r_points": 7, "steps": 32}),
        ],
        ids=["example1_defaults", "example1_given", "linear_defaults", "linear_given",
             "example2_defaults", "example2_given"],
    )
    def test_run_fields_reach_the_problem(self, spec, fields):
        problem = problem_from_json(spec)
        assert {name: getattr(problem, name) for name in fields} == fields

    def test_custom_linear_problem(self):
        spec = {
            "curve": {"kind": "polyline", "params": [0, 1], "points": [[0, 0], [1, 0]]},
            "alpha": 1.0,
            "case": "I",
            "rhs": {"kind": "linear", "a": 1.0, "c": {"kind": "triangular", "a": -1, "b": 0, "c": 1}},
            "x0": {"kind": "triangular", "a": 0, "b": 1, "c": 2},
            "span": [0.0, 1.0],
            "r_points": 11,
            "j_steps": 64,
        }
        problem = problem_from_json(json.loads(json.dumps(spec)))
        sol = solve_first_order(problem)
        lo, up = band_case1(sol.Js[:, None], sol.rs[None, :])
        assert float(np.max(np.abs(sol.lower - lo))) < 1e-5

    def test_unknown_builtin(self):
        with pytest.raises(ValidationError):
            problem_from_json({"rhs": {"kind": "builtin", "name": "example9"}})

    def test_missing_rhs(self):
        with pytest.raises(ValidationError):
            problem_from_json({"case": "I"})


class TestProblemValidation:
    def test_span_outside_table(self):
        with pytest.raises(DomainError):
            FirstOrderFfdeProblem(
                table=unit_segment_table(),
                rhs=LinearRhs(1.0, make_triangular(0, 0, 0)),
                x0=make_triangular(0, 1, 2),
                span=(0.0, 2.0),
                case="I",
            )

    @pytest.mark.parametrize(
        "span", [(0.0, 1.0, 7.0), (0.5,), (), 0.5, [0.0, 0.5, 1.0], np.array([0.0, 0.5, 1.0])]
    )
    def test_span_must_be_a_pair(self, span):
        p = example1_problem("I", j_steps=16)
        message = f"span must be a pair (u0, u1), got {span!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FirstOrderFfdeProblem(p.table, p.rhs, p.x0, span, "I")

    @pytest.mark.parametrize(
        "j_span", [(0.0, 1.0, 7.0), (0.0, 1.0, 9.0), (0.5,), (), 0.5, np.array([0.0, 0.5, 1.0])]
    )
    def test_j_span_must_be_a_pair(self, j_span):
        message = f"j_span must be a pair (j0, j1), got {j_span!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ffde.SecondOrderFuzzyBvp(**{**vars(example2_bvp(steps=16)), "j_span": j_span})
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            solve_crisp_in_J(lambda J, y: y, 1.0, j_span, 16)

    @pytest.mark.parametrize("j_span", [[0.0, 1.0], np.array([0.0, 1.0])])
    def test_a_pair_of_any_kind_is_a_j_span(self, j_span):
        bvp = ffde.SecondOrderFuzzyBvp(**{**vars(example2_bvp(steps=16)), "j_span": j_span})
        assert bvp.j_span == (0.0, 1.0)
        assert solve_crisp_in_J(lambda J, y: y, 1.0, j_span, 16).js[-1] == 1.0

    @pytest.mark.parametrize("span", [[0.0, 1.0], np.array([0.0, 1.0]), (None, None)])
    def test_a_pair_of_any_kind_is_a_span(self, span):
        p = example1_problem("I", j_steps=16)
        assert FirstOrderFfdeProblem(p.table, p.rhs, p.x0, span, "I").span == (0.0, 1.0)

    @pytest.mark.parametrize(
        "r_points, j_steps, u_points",
        [
            (101, MAX_GRID_CELLS // 101 + 1, None),
            (MAX_GRID_CELLS // 16 + 1, 16, None),
            (101, 256, MAX_GRID_CELLS // 101 + 1),
        ],
        ids=["j_steps", "r_points", "u_points"],
    )
    def test_grid_just_over_cap_rejected(self, r_points, j_steps, u_points):
        with pytest.raises(ValidationError, match="grid too large"):
            example1_problem("I", r_points=r_points, j_steps=j_steps, u_points=u_points)

    def test_grid_at_cap_accepted(self):
        problem = example1_problem("I", r_points=101, j_steps=MAX_GRID_CELLS // 101)
        assert problem.j_steps * problem.r_points <= MAX_GRID_CELLS

    def test_bvp_steps_just_over_cap_rejected(self):
        # the kappa table has steps + 1 rows of 101 levels
        largest = MAX_GRID_CELLS // 101 - 1
        assert largest == 41_526
        with pytest.raises(ValidationError, match=re.escape("(steps + 1) x r_points")):
            example2_bvp(steps=largest + 1)
        assert example2_bvp(steps=largest).steps == largest

    @pytest.mark.parametrize("value", [16.0, 16.5, True, np.float64(32.0)])
    @pytest.mark.parametrize(
        "name, build",
        [
            ("r_points", lambda v: example1_problem("I", r_points=v)),
            ("j_steps", lambda v: example1_problem("I", j_steps=v)),
            ("u_points", lambda v: example1_problem("I", u_points=v)),
            ("steps", lambda v: example2_bvp(steps=v)),
            ("r_points", lambda v: example2_bvp(r_points=v)),
            ("steps", lambda v: solve_crisp_in_J(lambda J, y: y, 1.0, (0.0, 1.0), v)),
            ("n_levels", default_r_grid),
        ],
        ids=["r_points", "j_steps", "u_points", "bvp_steps", "bvp_r_points", "crisp_steps", "r_grid"],
    )
    def test_counts_must_be_integers(self, name, build, value):
        # a float count was truncated (16.7 BVP steps solved as 16) or failed
        # deep in numpy; every one is now refused before any solve
        with pytest.raises(ValidationError, match=re.escape(f"'{name}' must be an integer, got {value!r}")):
            build(value)

    def test_integer_counts_of_numpy_type_accepted(self):
        problem = example1_problem("I", r_points=np.int64(5), j_steps=np.int32(16), u_points=np.int16(9))
        assert solve_first_order(problem).lower.shape == (9, 5)
        assert solve_second_order_bvp(example2_bvp(steps=np.int64(16))).js.size == 17

    def test_flat_staircase_span_refused_when_built(self):
        from ffcalc import build_staircase, generate_polyline

        # the first half of the parameter range has no length, so J stays 0
        flat = generate_polyline([0.0, 0.5, 1.0], [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        problem = example1_problem("I")
        with pytest.raises(ValidationError, match=re.escape("does not advance over the span (flat J)")):
            FirstOrderFfdeProblem(
                table=build_staircase(flat, alpha=1.0, p0=0.0),
                rhs=problem.rhs,
                x0=problem.x0,
                span=(0.0, 0.5),
                case="I",
            )

    @staticmethod
    def _example1_on(span, case, steps):
        problem = example1_problem(case)
        return FirstOrderFfdeProblem(
            table=problem.table,
            rhs=problem.rhs,
            x0=problem.x0,
            span=span,
            case=case,
            r_points=5,
            j_steps=steps,
        )

    # 1e-15 is ~9 ulps of 0.5: 256 linspace nodes would repeat, and the dense
    # output would divide by the zero gaps. Over [0, 1e-160] the 16 nodes are
    # distinct, but the square of the step underflows and the dense output's
    # coefficients overflow to NaN rows
    NARROW = [((0.5, 0.5 + 1e-15), 256), ((0.0, 1e-160), 16), ((0.0, 1e-300), 16)]
    NARROW_IDS = ["coincident_nodes", "step_squared_1e-160", "step_squared_1e-300"]

    @pytest.mark.parametrize("span, steps", NARROW, ids=NARROW_IDS)
    @pytest.mark.parametrize("case", ["I", "II"])
    @pytest.mark.parametrize("method", ["full", "cuts"])
    def test_span_too_narrow_for_step_count(self, case, method, span, steps):
        # refused when the problem is built, before any solve
        with pytest.raises(ValidationError, match=f"too narrow for {steps} steps"):
            ffde.solve_first_order(self._example1_on(span, case, steps), method=method)

    @pytest.mark.parametrize("case", ["I", "II"])
    @pytest.mark.parametrize("method", ["full", "cuts"])
    def test_tiny_span_with_representable_step_solves(self, case, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "no valid slice" warning
            sol = ffde.solve_first_order(self._example1_on((0.0, 1e-150), case, 16), method=method)
        assert sol.validity.all() and sol.validity.size == 17
        assert np.isfinite(sol.lower).all() and np.isfinite(sol.upper).all()

    @pytest.mark.parametrize("span, steps", NARROW, ids=NARROW_IDS)
    def test_narrow_span_rejected_by_bvp_and_crisp_solver(self, span, steps):
        with pytest.raises(ValidationError, match=f"too narrow for {steps} steps"):
            solve_crisp_in_J(lambda J, y: y, 1.0, span, steps)
        bvp = example2_bvp(steps=steps)
        with pytest.raises(ValidationError, match=f"too narrow for {steps} steps"):
            narrow = ffde.SecondOrderFuzzyBvp(
                p=bvp.p,
                q=bvp.q,
                forcing=bvp.forcing,
                boundary_start=bvp.boundary_start,
                boundary_end=bvp.boundary_end,
                j_span=span,
                steps=steps,
            )
            solve_second_order_bvp(narrow)

    @pytest.mark.parametrize("span, steps", NARROW, ids=NARROW_IDS)
    def test_narrow_span_refused_when_built(self, span, steps):
        with pytest.raises(ValidationError, match=f"too narrow for {steps} steps"):
            self._example1_on(span, "I", steps)
        with pytest.raises(ValidationError, match=f"too narrow for {steps} steps"):
            ffde.SecondOrderFuzzyBvp(**{**vars(example2_bvp(steps=steps)), "j_span": span})

    def test_narrowest_resolvable_span_accepted(self):
        # 16 steps over 16 ulps: every node distinct
        j0 = 0.5
        j1 = j0 + 16 * np.spacing(j0)
        traj = solve_crisp_in_J(lambda J, y: y, 1.0, (j0, j1), 16)
        assert np.all(np.diff(traj.js) > 0.0)
        assert np.all(np.isfinite(traj.at(traj.js)))

    def test_bad_case_label(self):
        with pytest.raises(ValidationError):
            FirstOrderFfdeProblem(
                table=unit_segment_table(),
                rhs=LinearRhs(1.0, make_triangular(0, 0, 0)),
                x0=make_triangular(0, 1, 2),
                span=(0.0, 1.0),
                case="III",
            )
