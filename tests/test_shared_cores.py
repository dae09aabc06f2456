"""The shared band-shape check, vertex-knot path and curve-geometry kernels
against the separate implementations they replaced.

Each reference below is the code a caller ran before the callers shared
one helper, copied unchanged unless its docstring says otherwise. The
library must give the same reports, flags, messages, exceptions and bits on
every input.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffcalc import (
    FuzzyNumber,
    HukuharaNonexistenceError,
    ValidationError,
    generate_koch,
    generate_segment,
    hukuhara_diff,
    mass_function,
    build_staircase,
    gamma_dimension,
    validate,
)
from ffcalc import fractal_calc, fractal_curve
from ffcalc.ffde import _validity_flags
from ffcalc.fuzzy_core import (
    _SHAPE_TOL,
    ValidationReport,
    Violation,
    _common_grid,
    _endpoint_table,
    _scale_of,
)

# ---------------------------------------------------------------------------
# references


def ref_violations(rs, lo, hi, tol):
    violations = []
    dlo = np.diff(lo)
    for i in np.flatnonzero(dlo < -tol):
        violations.append(Violation("lower_monotone", int(i + 1), float(rs[i + 1]), float(-dlo[i])))
    dhi = np.diff(hi)
    for i in np.flatnonzero(dhi > tol):
        violations.append(Violation("upper_monotone", int(i + 1), float(rs[i + 1]), float(dhi[i])))
    gap = lo - hi
    for i in np.flatnonzero(gap > tol):
        violations.append(Violation("lower_le_upper", int(i), float(rs[i]), float(gap[i])))
    out_lo = lo[:-1] - lo[1:]
    out_hi = hi[1:] - hi[:-1]
    for i in np.flatnonzero(np.maximum(out_lo, out_hi) > tol):
        violations.append(
            Violation("nested", int(i + 1), float(rs[i + 1]), float(max(out_lo[i], out_hi[i])))
        )
    violations.sort(key=lambda v: (v.index, v.condition))
    return violations


def ref_validate(rs, lowers, uppers, tol):
    return ValidationReport(ref_violations(*_endpoint_table(rs, lowers, uppers), tol))


def ref_fuzzy_number(rs, lowers, uppers):
    rs, lowers, uppers = _endpoint_table(rs, lowers, uppers)
    found = ref_violations(rs, lowers, uppers, _SHAPE_TOL * _scale_of(lowers, uppers))
    if found:
        v = found[0]
        raise ValidationError(
            f"not a valid fuzzy number: {v.condition} violated at r={v.r} by {v.magnitude:g}"
        )
    return FuzzyNumber(rs, lowers, uppers)


def ref_validity_flags(lower, upper):
    """The separate flag code, with two changes for non-finite endpoints:
    they do not enter the scale, and a row holding one is not valid."""
    finite_lo, finite_up = np.isfinite(lower), np.isfinite(upper)
    scale = max(
        1.0,
        float(np.max(np.abs(lower[finite_lo]), initial=0.0)),
        float(np.max(np.abs(upper[finite_up]), initial=0.0)),
    )
    tol = 1e-9 * scale
    ok_lo = np.all(np.diff(lower, axis=1) >= -tol, axis=1)
    ok_up = np.all(np.diff(upper, axis=1) <= tol, axis=1)
    ok_w = np.all(upper - lower >= -tol, axis=1)
    return ok_lo & ok_up & ok_w & np.all(finite_lo, axis=1) & np.all(finite_up, axis=1)


def ref_hukuhara_diff(A, B):
    rs, (alo, ahi), (blo, bhi) = _common_grid(A, B)
    clo = alo - blo
    chi = ahi - bhi
    tol = 1e-12 * _scale_of(alo, ahi, blo, bhi)
    bad = clo - chi > tol
    if np.any(bad):
        r = float(rs[np.argmax(bad)])
        raise HukuharaNonexistenceError(
            f"difference not a fuzzy number: cut of the subtrahend wider at r={r}", failing_r=r
        )
    bad_lo = np.diff(clo) < -tol
    bad_hi = np.diff(chi) > tol
    if np.any(bad_lo) or np.any(bad_hi):
        i_lo = int(np.argmax(bad_lo)) + 1 if np.any(bad_lo) else rs.size
        i_hi = int(np.argmax(bad_hi)) + 1 if np.any(bad_hi) else rs.size
        r = float(rs[min(i_lo, i_hi)])
        raise HukuharaNonexistenceError(
            f"difference endpoints lose monotonicity at r={r}", failing_r=r
        )
    return FuzzyNumber(rs, clo, chi)


def ref_sub_polyline_lengths(curve, a, b):
    t = curve.params
    i0 = int(np.searchsorted(t, a, side="right"))
    i1 = int(np.searchsorted(t, b, side="left"))
    knots = np.concatenate([[a], t[i0:i1], [b]])
    pts = curve.point_at(knots)
    d = np.diff(pts, axis=0)
    return np.sqrt(np.sum(d * d, axis=1))


def ref_segment_lengths(points):
    d = np.diff(points, axis=0)
    return np.sqrt(np.sum(d * d, axis=1))


def ref_build_staircase(curve, alpha, p0=None):
    """us and Js of the row-wise staircase build; the argument checks are left out."""
    p0 = curve.a0 if p0 is None else float(p0)
    masses = ref_segment_lengths(curve.points) ** alpha / math.gamma(alpha + 1.0)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum -= np.interp(p0, curve.params, cum)
    return curve.params.copy(), cum


def ref_cells(table, a, b):
    knots = np.concatenate(
        [
            [a],
            table.us[
                int(np.searchsorted(table.us, a, side="right")) : int(
                    np.searchsorted(table.us, b, side="left")
                )
            ],
            [b],
        ]
    )
    Jk = np.interp(knots, table.us, table.Js)
    return knots, np.diff(Jk)


def outcome(fn, *args):
    """What a call returned or raised, in a form that compares by value."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the subtractions
        try:
            value = fn(*args)
        except (ValidationError, HukuharaNonexistenceError) as exc:
            return (type(exc), str(exc), getattr(exc, "failing_r", None))
    if isinstance(value, FuzzyNumber):
        return ("number", value.rs.tobytes(), value.lowers.tobytes(), value.uppers.tobytes())
    return ("value", value)


# ---------------------------------------------------------------------------
# endpoint tables with defects at the tolerance boundary

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def sound_tables(draw, m):
    """Levels, lowers and uppers of a valid fuzzy number, and its magnitude."""
    magnitude = draw(st.sampled_from([1.0, 1e-6, 3.0, 1e9, 1e300]))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    lo = np.sort(np.array(draw(st.lists(unit, min_size=m, max_size=m)))) * magnitude
    widths = np.sort(np.abs(draw(st.lists(unit, min_size=m, max_size=m))))[::-1] * magnitude
    return np.linspace(0.0, 1.0, m), lo, lo[-1] + widths, magnitude


def boundary_steps(tol, magnitude):
    """Defect sizes at and just across tol, both signed zeros, and gross ones."""
    return st.sampled_from(
        [
            tol,
            -tol,
            np.nextafter(tol, np.inf),
            np.nextafter(-tol, -np.inf),
            0.0,
            -0.0,
            0.5 * magnitude,
            -0.5 * magnitude,
        ]
    )


def place_defects(draw, lo, up, tol, magnitude, nonfinite=True):
    m = lo.size
    kinds = ["drop", "rise", "gap"] + (["nonfinite"] if nonfinite else [])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        i = draw(st.integers(1 if kind in ("drop", "rise") else 0, m - 1))
        if kind == "nonfinite":
            (lo if draw(st.booleans()) else up)[i] = draw(NON_FINITE)
            continue
        d = draw(boundary_steps(tol, magnitude))
        if kind == "drop":
            lo[i] = lo[i - 1] - d
        elif kind == "rise":
            up[i] = up[i - 1] + d
        else:
            lo[i] = up[i] + d


@st.composite
def defective_tables(draw, nonfinite=True):
    rs, lo, up, magnitude = draw(sound_tables(draw(st.integers(2, 8))))
    scale = max(1.0, magnitude)
    tol = draw(st.sampled_from([0.0, 1e-12 * scale, _SHAPE_TOL * scale, 1e-3 * scale]))
    place_defects(draw, lo, up, tol, magnitude, nonfinite)
    return rs, lo, up, tol


@st.composite
def defective_bands(draw):
    m = draw(st.integers(2, 6))
    rows = [draw(sound_tables(m)) for _ in range(draw(st.integers(1, 5)))]
    lower = np.array([r[1] for r in rows])
    upper = np.array([r[2] for r in rows])
    magnitude = max(r[3] for r in rows)
    tol = _SHAPE_TOL * max(1.0, float(np.max(np.abs(lower))), float(np.max(np.abs(upper))))
    for k in range(lower.shape[0]):
        place_defects(draw, lower[k], upper[k], tol, magnitude)
    return lower, upper


@st.composite
def hukuhara_pairs(draw):
    """A valid number and a second one near it, far from it, or overflowing against it."""
    rs, alo, aup, magnitude = draw(sound_tables(draw(st.integers(2, 8))))
    mode = draw(st.sampled_from(["tweak", "independent", "other_grid", "overflow"]))
    if mode == "overflow":
        # |endpoints| up to 1.6e308: sums of two of them overflow to inf
        alo = alo / magnitude * 0.8e308
        aup = aup / magnitude * 0.8e308
        with np.errstate(over="ignore"):  # lower - upper of B overflows; B is still valid
            return FuzzyNumber(rs, alo, aup), FuzzyNumber(rs, -aup, -alo)
    A = FuzzyNumber(rs, alo, aup)
    if mode == "tweak":
        blo, bup = alo.copy(), aup.copy()
        tol = 1e-12 * _scale_of(alo, aup)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, rs.size - 1))
            target = blo if draw(st.booleans()) else bup
            target[i] += draw(st.sampled_from([tol, -tol, 2.0 * tol, -2.0 * tol, 0.0, -0.0]))
        brs = rs
    else:
        m = rs.size if mode == "independent" else draw(st.integers(2, 8))
        brs, blo, bup, _ = draw(sound_tables(m))
    try:
        B = FuzzyNumber(brs, blo, bup)
    except ValidationError:
        B = A
    return A, B


# ---------------------------------------------------------------------------
# the band-shape check


class TestBandShapeCheck:
    @given(defective_tables())
    @settings(max_examples=400, deadline=None)
    def test_validate_matches_reference(self, table):
        rs, lo, up, tol = table
        assert outcome(validate, rs, lo, up, tol) == outcome(ref_validate, rs, lo, up, tol)

    @given(defective_tables())
    @settings(max_examples=400, deadline=None)
    def test_fuzzy_number_matches_reference(self, table):
        rs, lo, up, _ = table
        assert outcome(FuzzyNumber, rs, lo, up) == outcome(ref_fuzzy_number, rs, lo, up)

    @given(defective_tables(nonfinite=False))
    @settings(max_examples=100, deadline=None)
    def test_validate_of_number_matches_reference(self, table):
        rs, lo, up, tol = table
        try:
            A = FuzzyNumber(rs, lo, up)
        except ValidationError:
            return
        assert validate(A, tol=tol) == ref_validate(rs, lo, up, tol)

    @given(defective_bands())
    @settings(max_examples=300, deadline=None)
    def test_validity_flags_match_reference(self, bands):
        lower, upper = bands
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _validity_flags(lower, upper)
            want = ref_validity_flags(lower, upper)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(hukuhara_pairs())
    @settings(max_examples=400, deadline=None)
    def test_hukuhara_diff_matches_reference(self, pair):
        # the reference leaves an overflowed difference to the constructor;
        # the library reports it as one overflow error at the first bad level
        A, B = pair
        for X, Y in ((A, B), (B, A)):
            rs, (xlo, xhi), (ylo, yhi) = _common_grid(X, Y)
            with np.errstate(over="ignore"):
                finite = np.isfinite(xlo - ylo) & np.isfinite(xhi - yhi)
            if finite.all():
                assert outcome(hukuhara_diff, X, Y) == outcome(ref_hukuhara_diff, X, Y)
            else:
                r = float(rs[np.argmin(finite)])
                message = f"Hukuhara difference overflows at r={r}: A - B is not finite"
                assert outcome(hukuhara_diff, X, Y) == (ValidationError, message, None)

    def test_infinite_endpoint_does_not_validate_other_rows(self):
        # row 0 is a fuzzy number; row 1 breaks all three conditions
        lower = np.array([[0.0, 1.0], [5.0, 4.0]])
        upper = np.array([[3.0, 2.0], [3.0, 4.5]])
        assert _validity_flags(lower, upper).tolist() == [True, False]
        for value in (-np.inf, np.inf, np.nan):
            bad = lower.copy()
            bad[0, 0] = value
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert _validity_flags(bad, upper).tolist() == [False, False]

    def test_overflowing_difference_is_one_error(self):
        rs = np.linspace(0.0, 1.0, 3)
        A = FuzzyNumber(rs, np.array([1e308, 1.2e308, 1.5e308]), np.full(3, 1.6e308))
        B = FuzzyNumber(rs, np.full(3, -1.6e308), np.full(3, -1.5e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning on the way
            with pytest.raises(ValidationError, match=r"overflows at r=0\.0: A - B is not finite"):
                hukuhara_diff(A, B)

    def test_width_failure_precedes_monotonicity_failure(self):
        rs = np.linspace(0.0, 1.0, 3)
        A = FuzzyNumber(rs, np.array([0.0, 1.0, 2.0]), np.array([6.0, 5.0, 2.0]))
        B = FuzzyNumber(rs, np.array([0.0, 1.5, 1.5]), np.array([3.0, 3.0, 2.0]))
        # A - B has lowers [0, -0.5, 0.5] and uppers [3, 2, 0]: its lower
        # falls at r = 0.5 and crosses its upper at r = 1; the crossing wins
        with pytest.raises(HukuharaNonexistenceError, match="wider at r=1.0") as exc:
            hukuhara_diff(A, B)
        assert exc.value.failing_r == 1.0
        assert outcome(hukuhara_diff, A, B) == outcome(ref_hukuhara_diff, A, B)


# ---------------------------------------------------------------------------
# vertex knots and sub-polyline lengths

KOCH_DIM = math.log(4.0) / math.log(3.0)
KOCH5 = generate_koch(5)


@st.composite
def sub_intervals(draw, params):
    """[a, b] with each end on a vertex, between vertices, or at the domain ends."""

    def end():
        kind = draw(st.sampled_from(["vertex", "between", "domain"]))
        if kind == "vertex":
            return float(params[draw(st.integers(0, params.size - 1))])
        if kind == "between":
            return draw(st.floats(min_value=float(params[0]), max_value=float(params[-1])))
        return float(params[draw(st.sampled_from([0, -1]))])

    a, b = sorted((end(), end()))
    if a == b:
        a, b = float(params[0]), float(params[-1])
    return a, b


class TestVertexKnots:
    @given(sub_intervals(KOCH5.params))
    @settings(max_examples=150, deadline=None)
    def test_sub_polyline_lengths_match_point_at_knots(self, interval):
        a, b = interval
        for curve in (KOCH5, generate_segment(level=4)):
            got = fractal_curve._sub_polyline_lengths(curve, a, b)
            want = ref_sub_polyline_lengths(curve, a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(sub_intervals(KOCH5.params), st.sampled_from([1.0, KOCH_DIM, 1.7]))
    @settings(max_examples=60, deadline=None)
    def test_mass_levels_match_reference(self, interval, alpha):
        a, b = interval
        base = generate_koch(0)
        want = []
        cur = base
        while True:
            lens = ref_sub_polyline_lengths(cur, a, b)
            want.append((cur.level, float(np.sum(lens**alpha) / math.gamma(alpha + 1.0))))
            if cur.level >= 5:
                break
            cur = cur.refine()
        assert mass_function(base, alpha, a, b, max_level=5).levels == want

    @pytest.mark.parametrize(
        "interval",
        [(None, None), (0.0, 1.0), (0.25, 0.75), (1 / 3, 0.9), (0.123456, 0.654321), (0.5, 1.0)],
    )
    def test_gamma_dimension_matches_reference(self, monkeypatch, interval):
        base = generate_koch(0)
        got = gamma_dimension(base, *interval, max_level=7)
        monkeypatch.setattr(fractal_curve, "_sub_polyline_lengths", ref_sub_polyline_lengths)
        assert got == gamma_dimension(base, *interval, max_level=7)

    @given(sub_intervals(KOCH5.params))
    @settings(max_examples=100, deadline=None)
    def test_cells_match_reference(self, interval):
        a, b = interval
        table = build_staircase(KOCH5, KOCH_DIM)
        knots, dJ = fractal_calc._cells(KOCH5, table, a, b)
        ref_knots, ref_dJ = ref_cells(table, a, b)
        assert knots.tobytes() == ref_knots.tobytes() and dJ.tobytes() == ref_dJ.tobytes()


# ---------------------------------------------------------------------------
# column-wise curve-geometry kernels

KOCHS = [generate_koch(k) for k in range(9)]
SEGMENTS = [generate_segment(level=k) for k in range(7)] + [
    generate_segment((0.3, -1.7), (2.5, 9.1), level=5),
    generate_segment((1e-150, 3.0, -2.0), (5e-151, -1e3, 7.0), level=4),
]


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def polylines(draw, columns=st.integers(1, 4)):
    """Params and points of a polyline at a magnitude from 1e-150 to 1e150.

    Entries stay within a few decades of each other, so that the order in
    which squared differences are summed changes the rounding.
    """
    m = draw(st.integers(2, 40))
    n = draw(columns)
    base = draw(st.integers(-148, 148))
    mantissa = st.floats(min_value=-10.0, max_value=10.0)
    spread = st.integers(-2, 2)
    points = np.array(
        [[draw(mantissa) * 10.0 ** (base + draw(spread)) for _ in range(n)] for _ in range(m)]
    )
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=m, max_size=m))
    return np.cumsum(steps), points


def anchors(params):
    """p0 on a vertex, between two vertices, and at both ends."""
    k = params.size // 2
    between = 0.5 * float(params[k - 1] + params[k])
    return [float(params[k]), between, float(params[0]), float(params[-1])]


def reference_table(curve, alpha, p0):
    us, Js = ref_build_staircase(curve, alpha, p0)
    return fractal_curve.StaircaseTable(alpha=float(alpha), p0=float(p0), us=us, Js=Js)


def staircase_outcome(build, curve, alpha, p0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lengths ** alpha may overflow
        try:
            table = build(curve, alpha, p0)
        except ValidationError as exc:
            return ("error", str(exc))
    return ("table", table.us.tobytes(), table.Js.tobytes())


class TestGeometryKernels:
    @given(polylines())
    @settings(max_examples=300, deadline=None)
    def test_segment_lengths_match_row_wise_reduce(self, polyline):
        params, points = polyline
        curve = fractal_curve.generate_polyline(params, points)
        assert same_bytes(curve.segment_lengths(), ref_segment_lengths(curve.points))

    @given(polylines(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_staircase_matches_reference_on_polylines(self, polyline, t):
        params, points = polyline
        curve = fractal_curve.generate_polyline(params, points)
        alpha = 1.0 + t * (curve.ndim - 1)
        for p0 in anchors(params):
            assert staircase_outcome(build_staircase, curve, alpha, p0) == staircase_outcome(
                reference_table, curve, alpha, p0
            )

    @pytest.mark.parametrize("curve", KOCHS + SEGMENTS, ids=lambda c: f"{c.ndim}d_level{c.level}")
    def test_staircase_matches_reference_on_refined_curves(self, curve):
        for alpha in sorted({1.0, KOCH_DIM, 1.7, 2.0}):
            if alpha > curve.ndim:
                continue
            for p0 in anchors(curve.params):
                got = build_staircase(curve, alpha, p0)
                us, Js = ref_build_staircase(curve, alpha, p0)
                assert same_bytes(got.us, us) and same_bytes(got.Js, Js)
        assert same_bytes(curve.segment_lengths(), ref_segment_lengths(curve.points))

    def test_lengths_sum_columns_left_to_right_at_any_width(self):
        # the row-wise reduce sums a row's squares left to right only below
        # 8 columns; from 8 on it takes another order, and lengths may move
        # by a few ulps (never seen above 4, at 40 columns)
        points = np.random.default_rng(0).standard_normal((200, 8))
        narrow = points[:, :7]
        assert same_bytes(fractal_curve._polyline_lengths(narrow), ref_segment_lengths(narrow))
        got = fractal_curve._polyline_lengths(points)
        d = np.diff(points, axis=0)
        left_to_right = d[:, 0] * d[:, 0]
        for k in range(1, 8):
            left_to_right = left_to_right + d[:, k] * d[:, k]
        assert same_bytes(got, np.sqrt(left_to_right))
        row_wise = ref_segment_lengths(points)
        assert np.any(got != row_wise)
        assert np.all(np.abs(got - row_wise) <= 4 * np.spacing(row_wise))
