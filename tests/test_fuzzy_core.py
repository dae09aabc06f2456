"""Fuzzy-number arithmetic, metric, Hukuhara difference and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffcalc import (
    DomainError,
    FuzzyNumber,
    HukuharaNonexistenceError,
    Interval,
    TriangularFuzzy,
    ValidationError,
    add,
    default_r_grid,
    fuzzy_from_json,
    fuzzy_to_json,
    hausdorff_distance,
    hukuhara_diff,
    make_crisp,
    make_triangular,
    scale,
    validate,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def triangular_numbers(draw):
    a, b, c = sorted(draw(st.tuples(finite, finite, finite)))
    return make_triangular(a, b, c)


class TestConstruction:
    def test_triangular_peak_cut(self):
        A = make_triangular(2.0, 3.0, 4.0)
        cut = A.r_cut(1.0)
        assert cut.lo == 3.0 and cut.hi == 3.0

    def test_crisp_zero(self):
        Z = make_triangular(0.0, 0.0, 0.0)
        assert Z.is_crisp
        for r in (0.0, 0.3, 1.0):
            assert Z.r_cut(r) == Interval(0.0, 0.0)

    def test_half_cut_interpolates(self):
        cut = make_triangular(0.0, 1.0, 2.0).r_cut(0.5)
        assert cut.lo == pytest.approx(0.5) and cut.hi == pytest.approx(1.5)

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            make_triangular(1.0, 0.0, 2.0)
        with pytest.raises(ValidationError):
            TriangularFuzzy(3.0, 2.0, 1.0)

    @pytest.mark.parametrize("feet", [(1.0, 2.0, math.inf), (-math.inf, 0.0, 1.0), (0.0, math.nan, 1.0)])
    def test_triangular_feet_must_be_finite(self, feet):
        # as Interval and FuzzyNumber: an infinite foot never reaches a solver
        with pytest.raises(ValidationError, match="must be finite"):
            TriangularFuzzy(*feet)

    def test_grid_must_span_01(self):
        with pytest.raises(ValidationError):
            FuzzyNumber(np.array([0.0, 0.5]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_invalid_table_rejected(self):
        rs = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValidationError):
            FuzzyNumber(rs, np.array([0.0, -1.0, 0.0]), np.array([2.0, 2.0, 2.0]))

    def test_triangular_type_exact_cuts(self):
        t = TriangularFuzzy(0.0, 1.0, 4.0)
        assert t.r_cut(0.25) == Interval(0.25, 3.25)
        assert t.to_fuzzy().r_cut(0.25) == Interval(0.25, 3.25)

    @given(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), st.floats(0.0, 1.0))
    def test_triangular_type_cuts_are_make_triangulars(self, feet, r):
        # a + (b - a) r missed the core by an ulp, so r_cut(1) could raise
        a, b, c = sorted(feet)
        t = TriangularFuzzy(a, b, c)
        assert t.r_cut(1.0) == Interval(b, b)
        assert t.r_cut(r) == make_triangular(a, b, c, rs=np.unique([0.0, r, 1.0])).r_cut(r)

    def test_default_grid_needs_two_levels(self):
        with pytest.raises(ValidationError):
            default_r_grid(1)

    def test_operator_sugar(self):
        A = make_triangular(0.0, 1.0, 2.0)
        B = make_triangular(1.0, 2.0, 3.0)
        assert (A + B).core.lo == pytest.approx(3.0)
        assert (2.0 * A).support.hi == pytest.approx(4.0)

    def test_sub_tolerance_inversion_collapses_cut(self):
        # a 1e-12 crossing passes construction (rounding scale) and the cut
        # collapses to its midpoint instead of producing a reversed interval
        rs = np.array([0.0, 1.0])
        A = FuzzyNumber(rs, np.array([0.0, 1.0 + 1e-12]), np.array([2.0, 1.0]))
        cut = A.r_cut(1.0)
        assert cut.lo == cut.hi == pytest.approx(1.0, abs=1e-11)


class TestCuts:
    def test_crisp_cut_any_level(self):
        A = make_crisp(5.0)
        for r in (0.0, 0.17, 1.0):
            assert A.r_cut(r) == Interval(5.0, 5.0)

    def test_band_family_r_zero(self):
        # endpoints r and 2 - r give support [0, 2]
        A = make_triangular(0.0, 1.0, 2.0)
        assert A.r_cut(0.0) == Interval(0.0, 2.0)

    def test_centered_family_collapses_at_one(self):
        # endpoints r - 1 and 1 - r collapse to {0}
        C = make_triangular(-1.0, 0.0, 1.0)
        cut = C.r_cut(1.0)
        assert cut.lo == 0.0 and cut.hi == 0.0

    def test_out_of_range_level(self):
        A = make_crisp(0.0)
        with pytest.raises(DomainError):
            A.r_cut(1.5)
        with pytest.raises(DomainError):
            A.r_cut(-0.1)

    @pytest.mark.parametrize("rs", [np.nan, [0.5, np.nan]], ids=["scalar", "array"])
    def test_nan_level_is_a_domain_error(self, rs):
        with pytest.raises(DomainError, match=r"^membership levels outside \[0, 1\]$"):
            make_triangular(0.0, 1.0, 2.0).cuts_at(rs)


class TestArithmetic:
    def test_add_triangulars(self):
        S = add(make_triangular(0.0, 1.0, 2.0), make_triangular(1.0, 2.0, 3.0))
        expected = make_triangular(1.0, 3.0, 5.0)
        assert np.allclose(S.lowers, expected.lowers) and np.allclose(S.uppers, expected.uppers)

    def test_zero_scalar_gives_crisp_zero(self):
        Z = scale(0.0, make_triangular(-3.0, 1.0, 7.0))
        assert np.all(Z.lowers == 0.0) and np.all(Z.uppers == 0.0)

    def test_negative_scalar_swaps_endpoints(self):
        N = scale(-1.0, make_triangular(0.0, 1.0, 2.0))
        expected = make_triangular(-2.0, -1.0, 0.0)
        assert np.allclose(N.lowers, expected.lowers) and np.allclose(N.uppers, expected.uppers)

    def test_mixed_grids_resampled_to_union(self):
        A = make_triangular(0.0, 1.0, 2.0, rs=np.linspace(0, 1, 5))
        B = make_triangular(1.0, 2.0, 3.0, rs=np.linspace(0, 1, 7))
        S = add(A, B)
        assert S.rs.size == np.union1d(A.rs, B.rs).size
        assert S.r_cut(0.5).lo == pytest.approx(2.0)

    @given(triangular_numbers(), finite)
    @settings(max_examples=100)
    def test_scale_preserves_invariants(self, A, lam):
        S = scale(lam, A)  # constructor re-validates
        assert S.support.width == pytest.approx(abs(lam) * A.support.width, rel=1e-9, abs=1e-9)

    @given(triangular_numbers(), triangular_numbers())
    @settings(max_examples=100)
    def test_add_preserves_invariants(self, A, B):
        S = add(A, B)
        assert S.support.width == pytest.approx(
            A.support.width + B.support.width, rel=1e-9, abs=1e-9
        )


class TestHausdorff:
    def test_identity(self):
        A = make_triangular(0.0, 1.0, 2.0)
        assert hausdorff_distance(A, A) == 0.0

    def test_crisp_shift(self):
        A = make_triangular(0.0, 1.0, 2.0)
        assert hausdorff_distance(A, add(A, make_crisp(2.5))) == pytest.approx(2.5, rel=1e-12)

    def test_zero_iff_same_endpoint_functions(self):
        A = make_triangular(0.0, 1.0, 2.0, rs=np.linspace(0, 1, 11))
        finer = A.resample(np.linspace(0, 1, 41))  # same number, different grid
        assert hausdorff_distance(A, finer) == 0.0
        assert hausdorff_distance(A, make_triangular(0.0, 1.1, 2.0)) > 0.0

    def test_unit_shift_of_triangular(self):
        d = hausdorff_distance(make_triangular(0.0, 1.0, 2.0), make_triangular(1.0, 2.0, 3.0))
        assert d == pytest.approx(1.0, rel=1e-12)

    @given(triangular_numbers(), triangular_numbers())
    @settings(max_examples=150)
    def test_symmetry(self, A, B):
        assert hausdorff_distance(A, B) == hausdorff_distance(B, A)

    @given(triangular_numbers(), triangular_numbers(), triangular_numbers())
    @settings(max_examples=150)
    def test_triangle_inequality(self, A, B, C):
        dAC = hausdorff_distance(A, C)
        dAB = hausdorff_distance(A, B)
        dBC = hausdorff_distance(B, C)
        assert dAC <= dAB + dBC + 1e-12

    @given(triangular_numbers(), triangular_numbers(), finite)
    @settings(max_examples=150)
    def test_translation_invariance(self, A, B, c):
        C = make_crisp(c)
        d0 = hausdorff_distance(A, B)
        d1 = hausdorff_distance(add(A, C), add(B, C))
        assert d1 == pytest.approx(d0, abs=1e-12 * (1.0 + abs(c)))


class TestHukuhara:
    def test_known_difference(self):
        C = hukuhara_diff(make_triangular(1.0, 3.0, 5.0), make_triangular(0.0, 1.0, 2.0))
        expected = make_triangular(1.0, 2.0, 3.0)
        assert np.allclose(C.lowers, expected.lowers) and np.allclose(C.uppers, expected.uppers)
        # defining identity: B + C = A
        back = add(make_triangular(0.0, 1.0, 2.0), C)
        assert np.allclose(back.lowers, make_triangular(1.0, 3.0, 5.0).lowers, atol=1e-12)

    def test_self_difference_is_crisp_zero(self):
        A = make_triangular(-2.0, 0.5, 9.0)
        C = hukuhara_diff(A, A)
        assert np.all(C.lowers == 0.0) and np.all(C.uppers == 0.0)

    def test_wider_subtrahend_fails_at_its_smallest_level(self):
        with pytest.raises(HukuharaNonexistenceError) as exc:
            hukuhara_diff(make_triangular(0.0, 1.0, 2.0), make_triangular(0.0, 2.0, 4.0))
        assert exc.value.failing_r == 0.0

    def test_monotonicity_failure_detected(self):
        # A is wider at every level, but its lower leg is flatter than B's,
        # so the difference's lower endpoint decreases in r
        A = make_triangular(0.0, 0.0, 3.0)
        B = make_triangular(0.0, 1.0, 1.0)
        with pytest.raises(HukuharaNonexistenceError, match="monotonicity"):
            hukuhara_diff(A, B)

    @given(triangular_numbers(), triangular_numbers())
    @settings(max_examples=200)
    def test_round_trip_when_difference_exists(self, A, B):
        try:
            C = hukuhara_diff(A, B)
        except HukuharaNonexistenceError:
            return  # nonexistence is the other tested path
        back = add(B, C)
        scale_ = 1.0 + max(abs(float(np.max(np.abs(A.lowers)))), abs(float(np.max(np.abs(A.uppers)))))
        assert np.allclose(back.lowers, A.lowers, rtol=0.0, atol=1e-12 * scale_)
        assert np.allclose(back.uppers, A.uppers, rtol=0.0, atol=1e-12 * scale_)

    @given(triangular_numbers(), triangular_numbers())
    @settings(max_examples=200)
    def test_constructed_sum_always_subtracts_back(self, B, C):
        A = add(B, C)
        D = hukuhara_diff(A, B)
        scale_ = 1.0 + float(np.max(np.abs(A.uppers)))
        assert np.allclose(D.lowers, C.lowers, rtol=0.0, atol=1e-12 * scale_)
        assert np.allclose(D.uppers, C.uppers, rtol=0.0, atol=1e-12 * scale_)


class TestValidate:
    def test_valid_triangular_clean(self):
        report = validate(make_triangular(0.0, 1.0, 2.0))
        assert report.ok

    def test_decreasing_lowers_flagged(self):
        rs = np.array([0.0, 0.5, 1.0])
        report = validate(rs, np.array([0.0, -0.5, 0.0]), np.array([3.0, 2.5, 2.0]))
        assert "lower_monotone" in report.conditions()

    def test_crossed_band_flagged(self):
        # case-II style band past its horizon: lower above upper at r < 1
        rs = default_r_grid(11)
        J = 1.0  # beyond ln 2
        lo = np.exp(J) - rs + (2 * rs - 2) / np.exp(J) + 1
        up = rs + np.exp(J) - (2 * rs - 2) / np.exp(J) - 1
        report = validate(rs, lo, up)
        assert "lower_le_upper" in report.conditions()
        worst = min(v.r for v in report.violations if v.condition == "lower_le_upper")
        assert worst < 1.0

    def test_violation_locations_reported(self):
        rs = np.array([0.0, 0.5, 1.0])
        report = validate(rs, np.array([0.0, 0.2, 0.1]), np.array([1.0, 0.9, 0.8]))
        locs = [(v.condition, v.r) for v in report.violations]
        assert ("lower_monotone", 1.0) in locs

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance made every comparison false and the report clean
        rs = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValidationError, match="tol must be"):
            validate(rs, np.array([0.0, 5.0, 0.0]), np.array([1.0, 0.0, 9.0]), tol=tol)
        with pytest.raises(ValidationError, match="tol must be"):
            validate(make_triangular(0.0, 1.0, 2.0), tol=tol)


class TestJson:
    def test_triangular_spec(self):
        A = fuzzy_from_json({"kind": "triangular", "a": 2, "b": 3, "c": 4})
        assert A.r_cut(1.0).lo == 3.0

    def test_table_round_trip(self):
        A = make_triangular(0.0, 1.0, 2.0, rs=np.linspace(0, 1, 5))
        B = fuzzy_from_json(fuzzy_to_json(A))
        assert A.data_equal(B)

    def test_bad_specs(self):
        with pytest.raises(ValidationError):
            fuzzy_from_json({"kind": "gaussian"})
        with pytest.raises(ValidationError):
            fuzzy_from_json({"kind": "triangular", "a": 1, "b": 2})
