"""Fuzzy-number arithmetic, metric, Hukuhara difference and diagnostics."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffcalc import (
    CaseInapplicableError,
    DomainError,
    FuzzyNumber,
    HukuharaNonexistenceError,
    Interval,
    TriangularFuzzy,
    ValidationError,
    J_at,
    add,
    build_staircase,
    default_r_grid,
    example1_problem,
    fractal_hukuhara_derivative,
    fuzzy_from_json,
    fuzzy_to_json,
    generate_koch,
    hausdorff_distance,
    hukuhara_diff,
    make_crisp,
    make_triangular,
    scale,
    solve_first_order,
    triangular_field,
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

    @pytest.mark.parametrize(
        "number",
        [TriangularFuzzy(0, 1, 2), make_triangular(0.0, 1.0, 2.0)],
        ids=["triangular", "fuzzy_number"],
    )
    @pytest.mark.parametrize("r", [np.array([0.2, 0.5]), [0.5], np.array(0.5)])
    def test_an_array_level_is_refused_alike(self, number, r):
        message = f"membership level must be a scalar, got {r!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            number.r_cut(r)

    @pytest.mark.parametrize("rs", [np.nan, [0.5, np.nan]], ids=["scalar", "array"])
    def test_nan_level_is_a_domain_error(self, rs):
        with pytest.raises(DomainError, match=r"^membership levels outside \[0, 1\]$"):
            make_triangular(0.0, 1.0, 2.0).cuts_at(rs)

    @pytest.mark.parametrize("grid", ["shared", "own"])
    def test_cuts_on_the_own_grid_are_the_interpolated_bits(self, grid):
        # np.interp returns fp[j] itself where x == xp[j]: -0.0 keeps its
        # sign and +-1e300 entries make no inf - inf; the cuts are new arrays
        rs = None if grid == "shared" else np.linspace(0.0, 1.0, 101) ** 2
        A = make_triangular(-1e300, -0.0, 1e300, rs=rs)
        B = FuzzyNumber(A.rs, np.minimum(A.lowers, -0.0), np.maximum(A.uppers, 0.0))
        for X in (A, B, make_crisp(-0.0, rs=rs)):
            got = X.cuts_at(X.rs)
            want = (np.interp(X.rs, X.rs, X.lowers), np.interp(X.rs, X.rs, X.uppers))
            for g, w, band in zip(got, want, (X.lowers, X.uppers)):
                assert g.flags.c_contiguous and g.flags.writeable
                assert not np.shares_memory(g, band)
                assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()
        lo, up = make_crisp(-0.0, rs=rs).cuts_at(A.rs)
        assert np.signbit(lo).all() and np.signbit(up).all()

    def test_cuts_on_another_grid_are_interpolated(self):
        A = make_triangular(-1.0, 0.25, 2.0)
        levels = np.array([0.0, 0.005, 0.333, 0.5, 0.9999, 1.0])
        lo, up = A.cuts_at(levels)
        assert lo.tolist() == np.interp(levels, A.rs, A.lowers).tolist()
        assert up.tolist() == np.interp(levels, A.rs, A.uppers).tolist()
        assert lo[1] == np.interp(0.005, A.rs, A.lowers) != A.lowers[0]


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

    def test_existence_is_judged_on_the_differences_own_scale(self):
        # equal widths near 1e9 wobble by an ulp of 1e9 in a difference of
        # scale 1: past the constructor's tolerance, so no difference exists
        A = make_triangular(1e9 - 0.5, 1e9 + 0.5, 1e9 + 1.5)
        B = make_triangular(1e9 - 1.0, 1e9, 1e9 + 1.0)
        with pytest.raises(HukuharaNonexistenceError) as exc:
            hukuhara_diff(A, B)
        assert exc.value.failing_r == 0.03

    def test_a_difference_within_the_constructors_tolerance_exists(self):
        A, B = make_triangular(-1.0, 0.0, 1.0), make_triangular(-1.0, 0.0, 1.0 + 5e-10)
        C = hukuhara_diff(A, B)
        assert np.array_equal(C.lowers, A.lowers - B.lowers)
        assert np.array_equal(C.uppers, A.uppers - B.uppers)
        with pytest.raises(HukuharaNonexistenceError):
            hukuhara_diff(A, make_triangular(-1.0, 0.0, 1.0 + 5e-9))

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


# ---------------------------------------------------------------------------
# golden bytes of the number operations

OWN_GRID = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
KOCH_ALPHA = math.log(4.0) / math.log(3.0)


def _number_digest(X) -> str:
    parts = (np.ascontiguousarray(a).tobytes() for a in (X.rs, X.lowers, X.uppers))
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _pair():
    return make_triangular(-1.25, 0.5, 2.0), make_triangular(-0.75, 0.25, 1.0)


def _koch6_field(spreads):
    """A triangular field on Koch-6 with a quadratic peak in J and spreads
    (left, right), each a function of J."""
    table = build_staircase(generate_koch(6), KOCH_ALPHA)
    left, right = spreads

    def peak(u):
        J = J_at(table, u)
        return 0.2 + 0.4 * J - 0.3 * J * J

    f = triangular_field(
        lambda u: peak(u) - left(J_at(table, u)),
        peak,
        lambda u: peak(u) + right(J_at(table, u)),
        table.domain,
    )
    return f, table


WIDENING = (lambda J: 0.5 + 0.3 * J, lambda J: 0.4 + 0.6 * J)
SHRINKING = (lambda J: 1.5 - 0.5 * J, lambda J: 1.2 - 0.4 * J)


def _derivative(spreads, case):
    f, table = _koch6_field(spreads)
    return fractal_hukuhara_derivative(f, table, 0.37, case, h=3.0 / 4**6)


class TestGoldenNumberBytes:
    """sha256 of (rs, lowers, uppers) of the number operations, each array
    taken C-contiguous, and the exact messages of their refusals. Recorded
    while a number held its lowers and uppers as two arrays of its own."""

    CASES = {
        "triangular_default": (
            lambda: make_triangular(-1.25, 0.5, 2.0),
            "27515af4d3c6962bac4f425e53c1ccf3290d12dcfbf81dd66667115e6039359a",
        ),
        "triangular_own_grid": (
            lambda: make_triangular(-1.25, 0.5, 2.0, rs=OWN_GRID),
            "3c1cddaf4abfbaa0dc0c7da39a7284702001d283ff424af3f39ab0227e2acad7",
        ),
        "crisp": (
            lambda: make_crisp(0.3),
            "49c0777cd3cb0e37f2128f6df70152df8a025ace9d8641d5094ac89992581478",
        ),
        "crisp_negative_zero": (
            lambda: make_crisp(-0.0),
            "89585de6aa231363e6070a2088d640255db52a69fa704ea69f36cb5a639b605b",
        ),
        "add": (
            lambda: add(*_pair()),
            "1ba77bbb2d0480eb18686451a65a23889258544908fc8c2765f7b8b156438bb1",
        ),
        "add_mixed_grids": (
            lambda: add(_pair()[0], make_triangular(-0.75, 0.25, 1.0, rs=OWN_GRID)),
            "fdcff21539e9a34e5155470df3b86d347b66f0e43bfdc5609269d3601d281deb",
        ),
        "scale_2.5": (
            lambda: scale(2.5, _pair()[0]),
            "2827e5b2d86f41fac26d19a0ebe900613d68b3d4fcab1b619ab590d8ff06906c",
        ),
        "scale_0.0": (
            lambda: scale(0.0, _pair()[0]),
            "b6ffbea4467a19f98d57d8a6573b451f911541312f3aee3dcbb0d67c8d0f290b",
        ),
        "scale_-0.0": (
            lambda: scale(-0.0, _pair()[0]),
            "ac7411c149b4d67e54415c795cbefc0258f24a483eccf9330c1ceb9d1c8fc7b5",
        ),
        "scale_-1.5": (
            lambda: scale(-1.5, _pair()[0]),
            "b260e06c6ba510b7569121f696cff1992d81cd7ec87b91659f4c14f1c76fb4c5",
        ),
        "hukuhara_exists": (
            lambda: hukuhara_diff(*_pair()),
            "a62f0618eb0549690762658ea55d2833ef43a7e7586fc8b33a36b43fba52fc40",
        ),
        # equal widths: the difference is crisp 0.9 up to an ulp's wobble,
        # which only the constructor's tolerance accepts
        "hukuhara_tie": (
            lambda: hukuhara_diff(
                make_triangular(-1.42, 0.05, 1.8), make_triangular(-0.52, 0.95, 2.7)
            ),
            "f473a1d20772433076143f955c5fdba23881bc0862812f576312ce43e288a3ed",
        ),
        "derivative_I_koch6": (
            lambda: _derivative(WIDENING, "I"),
            "51eeb88e6ffa77ba00faba3ed16ac666ec383418fce4d95386cbcf361c704c0f",
        ),
        "derivative_II_koch6": (
            lambda: _derivative(SHRINKING, "II"),
            "6555d7dbff44e462e45f44da7edf6dab6517c4a960aa37500f69def7ac177c0a",
        ),
        "r_slice": (
            lambda: solve_first_order(example1_problem("I", j_steps=64)).r_slice(40),
            "658bc29fc6c0449ae4af2cafd6808110a06236d2343da602e6cccfc8092d90df",
        ),
    }

    REFUSED_DIFFERENCES = {
        "width": (
            lambda: hukuhara_diff(_pair()[1], _pair()[0]),
            "difference not a fuzzy number: cut of the subtrahend wider at r=0.0",
            0.0,
        ),
        "monotonicity": (
            lambda: hukuhara_diff(make_triangular(-1.0, 0.0, 3.0), make_triangular(-2.0, 0.0, 0.5)),
            "difference endpoints lose monotonicity at r=0.01",
            0.01,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_number_bytes(self, name):
        build, expected = self.CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _number_digest(build()) == expected

    def test_hausdorff_distance_repr(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = hausdorff_distance(_pair()[0], make_triangular(-0.7, 0.31, 1.13))
        assert repr(d) == "0.8700000000000001"

    @pytest.mark.parametrize("name", sorted(REFUSED_DIFFERENCES))
    def test_refused_difference(self, name):
        refuse, message, failing_r = self.REFUSED_DIFFERENCES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HukuharaNonexistenceError) as exc:
                refuse()
        assert (str(exc.value), repr(exc.value.failing_r)) == (message, repr(failing_r))

    def test_refused_case(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CaseInapplicableError) as exc:
                _derivative(WIDENING, "II")
        message = "case II difference does not exist at u0=0.37 (failing level r=0.0)"
        assert (str(exc.value), repr(exc.value.failing_r)) == (message, "0.0")
