"""Derivative and integral in the staircase coordinate."""

import math

import numpy as np
import pytest

from ffcalc import (
    DegenerateDenominatorError,
    DomainError,
    J_at,
    StaircaseTable,
    ValidationError,
    build_staircase,
    f_derivative,
    f_integral,
    generate_koch,
    generate_segment,
)

KOCH_DIM = math.log(4.0) / math.log(3.0)


class TestDerivative:
    def test_constant_has_zero_derivative(self, segment_table_12):
        _, table = segment_table_12
        f = lambda u: np.full_like(np.asarray(u, dtype=float), 3.7)
        assert f_derivative(f, table, 0.5) == 0.0

    def test_J_differentiates_to_one(self, segment_table_12):
        _, table = segment_table_12
        f = lambda u: J_at(table, u)
        assert f_derivative(f, table, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_J_squared_on_unit_segment(self, segment_table_12):
        _, table = segment_table_12
        f = lambda u: J_at(table, u) ** 2
        assert f_derivative(f, table, 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_J_differentiates_to_one_on_koch(self):
        table = build_staircase(generate_koch(7), KOCH_DIM, p0=0.0)
        f = lambda u: J_at(table, u)
        assert f_derivative(f, table, 0.25) == pytest.approx(1.0, abs=1e-8)

    def test_flat_staircase_rejected(self):
        table = StaircaseTable(
            alpha=1.0, p0=0.0, us=np.array([0.0, 1.0, 2.0, 3.0]), Js=np.array([0.0, 1.0, 1.0, 2.0])
        )
        with pytest.raises(DegenerateDenominatorError):
            f_derivative(lambda u: np.asarray(u, dtype=float), table, 1.5, h=0.25)

    def test_nan_step_rejected(self, segment_table_12):
        _, table = segment_table_12
        with pytest.raises(ValidationError, match="^step h must be positive$"):
            f_derivative(lambda u: J_at(table, u), table, 0.5, h=math.nan)

    def test_nan_point_is_a_domain_error(self, segment_table_12):
        _, table = segment_table_12
        with pytest.raises(DomainError):
            f_derivative(lambda u: J_at(table, u), table, math.nan)

    def test_stencil_must_stay_in_domain(self, segment_table_12):
        _, table = segment_table_12
        with pytest.raises(DomainError):
            f_derivative(lambda u: u, table, 0.0, h=0.1)

    @pytest.mark.parametrize(
        "g,dg",
        [(np.exp, np.exp), (lambda J: J**2, lambda J: 2.0 * J)],
    )
    def test_conjugacy_with_smooth_functions(self, segment_table_12, g, dg):
        # f(u) = g(J(u)) differentiates to g'(J) at second order in h
        _, table = segment_table_12
        f = lambda u: g(J_at(table, u))
        u0 = 0.375
        h = 1e-4
        err = abs(f_derivative(f, table, u0, h=h) - dg(J_at(table, u0)))
        assert err < 10.0 * h**2


class TestIntegral:
    def test_constant_telescopes(self):
        curve = generate_koch(5)
        table = build_staircase(curve, KOCH_DIM, p0=0.0)
        res = f_integral(lambda u: np.ones_like(np.asarray(u, dtype=float)), curve, table, 0.25, 0.75)
        assert res.value == pytest.approx(J_at(table, 0.75) - J_at(table, 0.25), rel=1e-12)

    def test_J_integrates_to_half(self, segment_table_12):
        curve, table = segment_table_12
        res = f_integral(lambda u: J_at(table, u), curve, table, bracket_tol=1e-3)
        assert res.value == pytest.approx(0.5, abs=1e-6)  # analytic: J^2/2 over [0, 1]
        assert res.converged  # bracket width is dJ * total variation = 2**-12

    def test_bracket_orders_midpoint_value(self, segment_table_12):
        curve, table = segment_table_12
        res = f_integral(lambda u: np.exp(J_at(table, u)), curve, table)
        assert res.lower_sum <= res.value <= res.upper_sum

    @pytest.mark.parametrize("bracket_tol", [math.nan, math.inf, -1.0])
    def test_bracket_tol_must_be_finite_and_non_negative(self, bracket_tol):
        curve = generate_segment(level=2)
        table = build_staircase(curve, 1.0)
        message = f"^bracket_tol must be a finite non-negative number, got {bracket_tol!r}$"
        with pytest.raises(ValidationError, match=message):
            f_integral(lambda u: J_at(table, u), curve, table, bracket_tol=bracket_tol)

    def test_wide_bracket_flagged_on_coarse_curve(self):
        curve = generate_segment(level=2)
        table = build_staircase(curve, 1.0, 0.0)
        res = f_integral(lambda u: np.exp(J_at(table, u)), curve, table)
        assert not res.converged

    def test_linearity(self, segment_table_12):
        curve, table = segment_table_12
        f = lambda u: J_at(table, u)
        g = lambda u: np.exp(J_at(table, u))
        combo = lambda u: 2.0 * f(u) - 3.0 * g(u)
        lhs = f_integral(combo, curve, table).value
        rhs = 2.0 * f_integral(f, curve, table).value - 3.0 * f_integral(g, curve, table).value
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_interval_additivity(self, segment_table_12):
        curve, table = segment_table_12
        f = lambda u: np.exp(J_at(table, u))
        whole = f_integral(f, curve, table, 0.0, 1.0).value
        split = f_integral(f, curve, table, 0.0, 0.5).value + f_integral(f, curve, table, 0.5, 1.0).value
        assert whole == pytest.approx(split, abs=1e-12)

    def test_fundamental_theorem_for_J_squared(self, segment_table_12):
        curve, table = segment_table_12
        f = lambda u: J_at(table, u) ** 2
        h = 0.5 / curve.n_segments  # half a cell so midpoint stencils stay inside
        # clamp so the bracket's boundary-knot samples stay evaluable
        deriv = lambda u: np.array(
            [f_derivative(f, table, min(max(ui, h), 1.0 - h), h=h) for ui in np.atleast_1d(u)]
        )
        res = f_integral(deriv, curve, table, 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-5)  # f(1) - f(0)

    def test_domain_errors(self, segment_table_12):
        curve, table = segment_table_12
        with pytest.raises(DomainError):
            f_integral(lambda u: u, curve, table, 0.5, 0.25)
        with pytest.raises(DomainError):
            f_integral(lambda u: u, curve, table, -0.5, 0.5)
