"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed assertion marks the corresponding criterion FAIL.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ffcalc import (
    EXAMPLE1_CASE2_HORIZON_J,
    HukuharaNonexistenceError,
    J_at,
    add,
    build_staircase,
    example1_case1_band,
    example1_case2_band,
    example1_problem,
    example2_bvp,
    example2_crisp_closed_form,
    f_derivative,
    f_integral,
    FuzzyNumber,
    gamma_dimension,
    generate_koch,
    generate_segment,
    hausdorff_distance,
    hukuhara_diff,
    make_triangular,
    ode_residual_max,
    scale,
    solve_first_order,
    solve_second_order_bvp,
    validate,
)

KOCH_DIM = math.log(4.0) / math.log(3.0)


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_1_example1_case1_closed_form():
    """Case-I solve (256 J-steps, 101 r-levels) within 1e-6 of the closed
    form over J in [0, 1], in at most 1 second."""
    t0 = time.perf_counter()
    sol = solve_first_order(example1_problem("I", r_points=101, j_steps=256))
    elapsed = time.perf_counter() - t0
    J, r = sol.Js[:, None], sol.rs[None, :]
    lo = np.exp(J) * (2 * r - 1) - r + 1
    up = r - np.exp(J) * (2 * r - 3) - 1
    err = float(np.max(np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))))
    assert err <= 1e-6, f"max endpoint error {err:g} above 1e-6"
    assert elapsed <= 1.0, f"solve took {elapsed:.3f}s"
    report(1, f"case I max error {err:.3g} (tol 1e-6), runtime {elapsed * 1e3:.1f} ms")


def test_criterion_2_example1_case2_closed_form_and_horizon():
    """Case-II solve within 1e-6 on the valid region; validity horizon at
    ln 2 within one J-grid cell."""
    sol = solve_first_order(example1_problem("II", r_points=101, j_steps=256))
    J, r = sol.Js[:, None], sol.rs[None, :]
    lo = np.exp(J) - r + (2 * r - 2) * np.exp(-J) + 1
    up = r + np.exp(J) - (2 * r - 2) * np.exp(-J) - 1
    err_grid = np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))
    err = float(np.max(err_grid[sol.validity]))
    assert err <= 1e-6, f"max endpoint error {err:g} above 1e-6 on the valid region"
    cell = float(sol.us[1] - sol.us[0])
    gap = abs(sol.validity_horizon - math.log(2.0))
    assert gap <= cell, f"horizon off by {gap:g}, more than one cell ({cell:g})"
    report(2, f"case II max error {err:.3g}, horizon {sol.validity_horizon:.6f} vs ln2 (gap {gap:.4f} <= cell {cell:.4f})")


def test_criterion_3_example2_bvp():
    """Second-order BVP: crisp closed form to 1e-6, exact boundaries,
    residual to 1e-5, interpolation identities to 1e-10, nested kappa
    bands with exact collapse at kappa = 1."""
    sol = solve_second_order_bvp(example2_bvp())
    crisp_err = float(np.max(np.abs(sol.crisp - example2_crisp_closed_form(sol.js))))
    assert crisp_err <= 1e-6, f"crisp error {crisp_err:g}"
    assert abs(sol.crisp[0] - 3.0) <= 1e-12
    assert abs(sol.crisp[-1] - 2.0) <= 1e-9
    residual = ode_residual_max(sol.js, sol.crisp, -4.0, 4.0, sol.problem.forcing)
    assert residual <= 1e-5, f"ODE residual {residual:g}"
    assert np.allclose(sol.q_at(0.0), [1.0, 0.0], atol=1e-10)
    assert np.allclose(sol.q_at(1.0), [0.0, 1.0], atol=1e-10)
    bands = [sol.kappa_band(k) for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for (lo_o, up_o), (lo_i, up_i) in zip(bands, bands[1:]):
        assert np.all(lo_i >= lo_o - 1e-15) and np.all(up_i <= up_o + 1e-15)
    lo1, up1 = bands[-1]
    assert np.array_equal(lo1, sol.crisp) and np.array_equal(up1, sol.crisp)
    report(3, f"crisp error {crisp_err:.3g}, residual {residual:.3g}, identities exact, bands nested")


def test_criterion_4_gamma_dimension():
    """Koch dimension within 0.05 of ln4/ln3 using levels <= 10; straight
    segment within 0.01 of 1; both in at most 5 seconds."""
    t0 = time.perf_counter()
    koch_est = gamma_dimension(generate_koch(0), tol=0.01, max_level=10)
    seg_est = gamma_dimension(generate_segment(), tol=0.01, max_level=10)
    elapsed = time.perf_counter() - t0
    assert abs(koch_est - KOCH_DIM) <= 0.05, f"koch estimate {koch_est:g}"
    assert abs(seg_est - 1.0) <= 0.01, f"segment estimate {seg_est:g}"
    assert elapsed <= 5.0, f"estimation took {elapsed:.2f}s"
    report(4, f"koch {koch_est:.4f} (target {KOCH_DIM:.4f}), segment {seg_est:.4f}, runtime {elapsed:.2f}s")


def _random_fuzzy(rng):
    """Random triangular or random valid table instance."""
    if rng.random() < 0.5:
        a, b, c = np.sort(rng.uniform(-50.0, 50.0, size=3))
        return make_triangular(a, b, c, rs=np.linspace(0.0, 1.0, 21))
    rs = np.linspace(0.0, 1.0, 21)
    core_lo = rng.uniform(-50.0, 50.0)
    core_hi = core_lo + rng.uniform(0.0, 5.0)
    # expand outward from the core so the table is nested by construction
    lo = core_lo - np.concatenate([np.cumsum(rng.uniform(0.0, 2.0, rs.size - 1))[::-1], [0.0]])
    up = core_hi + np.concatenate([np.cumsum(rng.uniform(0.0, 2.0, rs.size - 1))[::-1], [0.0]])
    return FuzzyNumber(rs, lo, up)


def test_criterion_5_fuzzy_property_suite():
    """>= 1000 randomized instances: Hukuhara round-trip exact on the grid,
    metric axioms to 1e-12, arithmetic preserves the shape invariants."""
    rng = np.random.default_rng(20240817)
    instances = [_random_fuzzy(rng) for _ in range(1200)]
    assert len(instances) >= 1000

    round_trips = 0
    for A, B in zip(instances[0::2], instances[1::2]):
        # construct a guaranteed-existing difference alongside the raw pair
        S = add(A, B)
        D = hukuhara_diff(S, A)
        scale_ = 1.0 + float(np.max(np.abs(S.uppers)))
        assert np.allclose(D.lowers, B.lowers, rtol=0.0, atol=1e-12 * scale_)
        assert np.allclose(D.uppers, B.uppers, rtol=0.0, atol=1e-12 * scale_)
        round_trips += 1
        try:
            C = hukuhara_diff(A, B)
        except HukuharaNonexistenceError:
            continue
        back = add(B, C)
        scale_ = 1.0 + float(np.max(np.abs(A.uppers)))
        assert np.allclose(back.lowers, A.lowers, rtol=0.0, atol=1e-12 * scale_)
        assert np.allclose(back.uppers, A.uppers, rtol=0.0, atol=1e-12 * scale_)
        round_trips += 1

    for A, B, C in zip(instances[0::3], instances[1::3], instances[2::3]):
        dAB = hausdorff_distance(A, B)
        assert dAB >= 0.0
        assert dAB == hausdorff_distance(B, A)
        assert hausdorff_distance(A, A) == 0.0
        assert hausdorff_distance(A, C) <= dAB + hausdorff_distance(B, C) + 1e-12

    lams = rng.uniform(-3.0, 3.0, size=len(instances) // 2)
    for (A, B), lam in zip(zip(instances[0::2], instances[1::2]), lams):
        S = add(scale(lam, A), B)  # constructors re-validate every invariant
        assert validate(S).ok

    report(5, f"{len(instances)} randomized instances; {round_trips} Hukuhara round-trips exact")


def test_criterion_6_crisp_fundamental_theorem():
    """Integral of the staircase derivative recovers f(b) - f(a) within
    1e-5 for f in {J, J^2, exp(J)}; interval additivity to 1e-12."""
    curve = generate_segment(level=12)
    table = build_staircase(curve, 1.0, 0.0)
    cell = 1.0 / curve.n_segments
    cases = {
        "J": (lambda u: J_at(table, u), 1.0),
        "J^2": (lambda u: J_at(table, u) ** 2, 1.0),
        "exp(J)": (lambda u: np.exp(J_at(table, u)), math.e - 1.0),
    }
    worst = 0.0
    # h = cell/2 telescopes exactly; h = 0.3 cell is a genuine numeric check
    for h in (0.5 * cell, 0.3 * cell):
        for name, (f, expected) in cases.items():
            deriv = lambda u: np.array(
                [f_derivative(f, table, min(max(ui, h), 1.0 - h), h=h) for ui in np.atleast_1d(u)]
            )
            got = f_integral(deriv, curve, table, 0.0, 1.0).value
            err = abs(got - expected)
            assert err <= 1e-5, f"fundamental theorem failed for {name} (h={h:g}): error {err:g}"
            worst = max(worst, err)
    f = lambda u: np.exp(J_at(table, u))
    whole = f_integral(f, curve, table, 0.0, 1.0).value
    split = f_integral(f, curve, table, 0.0, 0.5).value + f_integral(f, curve, table, 0.5, 1.0).value
    assert abs(whole - split) <= 1e-12
    report(6, f"fundamental theorem worst error {worst:.3g} (tol 1e-5), additivity exact to 1e-12")


def test_criterion_7_convergence_order():
    """Doubling J-steps from 128 to 256 shrinks the case-I closed-form
    error by at least 12x."""
    errs = {}
    for steps in (128, 256):
        sol = solve_first_order(example1_problem("I", j_steps=steps, u_points=129))
        J, r = sol.Js[:, None], sol.rs[None, :]
        lo = np.exp(J) * (2 * r - 1) - r + 1
        up = r - np.exp(J) * (2 * r - 3) - 1
        errs[steps] = float(np.max(np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))))
    ratio = errs[128] / errs[256]
    assert ratio >= 12.0, f"error ratio {ratio:.2f} below 12"
    report(7, f"error {errs[128]:.3g} -> {errs[256]:.3g}, ratio {ratio:.1f} (>= 12)")


def test_criterion_8_determinism(tmp_path, cli_env):
    """Two case-II solve runs, each in a fresh process, produce
    byte-identical CSV."""
    blobs = []
    for k in range(2):
        out = tmp_path / f"sol_{k}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ffcalc", "solve", "--builtin", "example1",
             "--case", "II", "--out", str(out)],
            capture_output=True,
            text=True,
            env=cli_env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "CSV bytes differ between two runs"
    report(8, f"byte-identical CSV across two fresh runs ({len(blobs[0])} bytes)")


@pytest.mark.parametrize("level", [4, 6, 8])
@pytest.mark.parametrize("case", ["I", "II"])
def test_criterion_9_example1_on_koch_staircase(case, level):
    """Example 1 solved in the staircase coordinate of Koch level 4, 6 and 8
    (alpha = ln4/ln3, J ending at ~0.877): the closed forms are functions of
    J alone, so they must hold within 1e-6 at the solution's J values, for
    case II below its horizon, and the case-II horizon must lie within one
    J cell of J = ln 2, which is inside the span."""
    table = build_staircase(generate_koch(level), KOCH_DIM)
    sol = solve_first_order(example1_problem(case, table=table))
    assert sol.Js[-1] == pytest.approx(table.Js[-1])  # < 1: sub-unit total mass
    J, r = sol.Js[:, None], sol.rs[None, :]
    lo, up = (example1_case1_band if case == "I" else example1_case2_band)(J, r)
    rows = slice(None)
    if case == "II":
        assert table.Js[-1] > EXAMPLE1_CASE2_HORIZON_J
        horizon_J = J_at(table, sol.validity_horizon)
        cell = float(np.max(np.diff(sol.Js)))
        gap = abs(horizon_J - EXAMPLE1_CASE2_HORIZON_J)
        assert gap <= cell, f"horizon at J={horizon_J:g}, {gap:g} from ln 2 (cell {cell:g})"
        rows = sol.Js <= horizon_J
    err = float(np.max(np.maximum(np.abs(sol.lower - lo), np.abs(sol.upper - up))[rows]))
    assert err <= 1e-6, f"max endpoint error {err:g} above 1e-6"
    J_top = float(sol.Js[rows][-1])
    report(9, f"Koch-{level} case {case}: max error {err:.3g} over J in [0, {J_top:.4f}]")
