"""The shared band-shape check, vertex-knot path, curve-geometry kernels, the
shared default r-grid, the binned dimension estimate, the band-valued
fuzzy fields and the blocked passes (dense output, validity flags, CSV
body, Koch refinement, length binning, staircase masses and staircase CSV)
against the implementations they replaced, the levels below a built-in
curve's own, read from its refiner's similarity ratio, against references
built from the refined vertices, the per-number floor (the one-band
shape test and scale, the scalar J_at, overflow watched only where the
operands' r = 0 ends call for it) against the table and array forms, and
numbers that own one path-order row (triangular rows, sums, differences,
multiples and distances) against the operations on two rows.

Each reference below is the code a caller ran before the callers shared
one helper, copied unchanged unless its docstring says otherwise. The
library must give the same reports, flags, messages, exceptions and bits on
every input.
"""

import collections
import contextlib
import copy
import hashlib
import io
import itertools
import math
import pickle
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffcalc import (
    CaseInapplicableError,
    DomainError,
    EstimationError,
    FractalCurve,
    FuzzyCurveFunction,
    FuzzyNumber,
    HukuharaNonexistenceError,
    TriangularFuzzy,
    ValidationError,
    J_at,
    add,
    default_r_grid,
    fuzzy_from_json,
    generate_koch,
    generate_segment,
    hukuhara_diff,
    make_crisp,
    make_triangular,
    mass_function,
    build_staircase,
    crisp_embedding,
    example1_problem,
    ff_riemann_integral,
    gamma_dimension,
    hausdorff_distance,
    fractal_hukuhara_derivative,
    scale,
    solve_first_order,
    triangular_field,
    u_at,
    validate,
)
from ffcalc import cli, ffde, fractal_calc, fractal_curve, fuzzy_core
from ffcalc._textio import _block_rows, sub_interval
from ffcalc.fuzzy_core import (
    DEFAULT_R_LEVELS,
    _DEFAULT_RS,
    _SHAPE_TOL,
    ValidationReport,
    Violation,
    _band_defects,
    _rejected_rows,
    _violations,
)

# ---------------------------------------------------------------------------
# references


def ref_endpoint_table(rs, lowers, uppers):
    rs = np.asarray(rs, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    for name, arr in (("rs", rs), ("lowers", lowers), ("uppers", uppers)):
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be a finite 1-d array")
    if not (rs.size == lowers.size == uppers.size):
        raise ValidationError("rs, lowers and uppers must have equal length")
    if rs.size < 2 or np.any(np.diff(rs) <= 0.0):
        raise ValidationError("rs must be strictly increasing with >= 2 levels")
    if rs[0] != 0.0 or rs[-1] != 1.0:
        raise ValidationError("the r-grid must include the levels 0 and 1")
    return rs, lowers, uppers


def ref_scale_of(*arrays) -> float:
    return max(1.0, *(float(np.max(np.abs(a))) if a.size else 0.0 for a in arrays))


def ref_common_grid(A, B):
    if A.rs.size == B.rs.size and np.array_equal(A.rs, B.rs):
        return A.rs, (A.lowers, A.uppers), (B.lowers, B.uppers)
    rs = np.union1d(A.rs, B.rs)
    return rs, A.cuts_at(rs), B.cuts_at(rs)


def ref_constructor_check(rs, lowers, uppers):
    """FuzzyNumber.__post_init__ before the shared default grid: every table
    goes through _endpoint_table. Returns the arrays the number would hold."""
    rs, lowers, uppers = ref_endpoint_table(rs, lowers, uppers)
    defects = _band_defects(lowers, uppers, _SHAPE_TOL * ref_scale_of(lowers, uppers))
    if any(bad.any() for bad in defects):
        v = _violations(rs, lowers, uppers, defects)[0]
        raise ValidationError(
            f"not a valid fuzzy number: {v.condition} violated at r={v.r} by {v.magnitude:g}"
        )
    return rs, lowers, uppers


def ref_checked_hukuhara_diff(A, B):
    """hukuhara_diff before the shared default grid, ending in the
    constructor check above."""
    rs, (alo, ahi), (blo, bhi) = ref_common_grid(A, B)
    with np.errstate(over="ignore"):  # overflow is reported below
        clo = alo - blo
        chi = ahi - bhi
    # both operands have finite endpoints, so a non-finite one here is overflow
    overflow = ~(np.isfinite(clo) & np.isfinite(chi))
    if overflow.any():
        r = float(rs[np.argmax(overflow)])
        raise ValidationError(f"Hukuhara difference overflows at r={r}: A - B is not finite")
    # the constructor's tolerance on the difference's own scale
    bad_lo, bad_up, bad_w = _band_defects(clo, chi, _SHAPE_TOL * ref_scale_of(clo, chi))
    if bad_w.any():
        r = float(rs[np.argmax(bad_w)])
        raise HukuharaNonexistenceError(
            f"difference not a fuzzy number: cut of the subtrahend wider at r={r}", failing_r=r
        )
    bad_mono = bad_lo | bad_up
    if bad_mono.any():
        r = float(rs[np.argmax(bad_mono) + 1])
        raise HukuharaNonexistenceError(
            f"difference endpoints lose monotonicity at r={r}", failing_r=r
        )
    return ref_constructor_check(rs, clo, chi)


def ref_J_at(table, u):
    u_arr = np.asarray(u, dtype=float)
    lo, hi = table.domain
    if np.any(u_arr < lo) or np.any(u_arr > hi):
        raise DomainError(f"parameter outside [{lo}, {hi}]")
    out = np.interp(u_arr, table.us, table.Js)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def ref_u_at(table, J):
    """u_at as it searched the table in the batch's own order."""
    J_arr = np.asarray(J, dtype=float)
    Jlo, Jhi = table.J_range
    if not ((J_arr >= Jlo) & (J_arr <= Jhi)).all():
        raise DomainError(f"staircase value outside [{Jlo}, {Jhi}]")
    scalar = np.isscalar(J) or J_arr.ndim == 0
    J_arr = np.atleast_1d(J_arr)
    idx = np.searchsorted(table.Js, J_arr, side="left")
    idx = np.clip(idx, 0, table.Js.size - 1)
    exact = table.Js[idx] == J_arr
    left = np.clip(idx - 1, 0, table.Js.size - 1)
    dJ = table.Js[idx] - table.Js[left]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(dJ > 0.0, (J_arr - table.Js[left]) / np.where(dJ > 0.0, dJ, 1.0), 0.0)
    interp = table.us[left] + frac * (table.us[idx] - table.us[left])
    out = np.where(exact, table.us[idx], interp)
    return float(out[0]) if scalar else out


def ref_point_at(curve, u):
    """FractalCurve.point_at as it searched the vertices in the batch's own order."""
    u_arr = np.asarray(u, dtype=float)
    if not ((u_arr >= curve.a0) & (u_arr <= curve.b0)).all():
        raise DomainError(f"parameter outside [{curve.a0}, {curve.b0}]")
    cols = [np.interp(u_arr, curve.params, curve.points[:, k]) for k in range(curve.ndim)]
    return np.stack(cols, axis=-1)


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
    return ValidationReport(ref_violations(*ref_endpoint_table(rs, lowers, uppers), tol))


def ref_fuzzy_number(rs, lowers, uppers):
    rs, lowers, uppers = ref_endpoint_table(rs, lowers, uppers)
    found = ref_violations(rs, lowers, uppers, _SHAPE_TOL * ref_scale_of(lowers, uppers))
    if found:
        v = found[0]
        raise ValidationError(
            f"not a valid fuzzy number: {v.condition} violated at r={v.r} by {v.magnitude:g}"
        )
    return FuzzyNumber(rs, lowers, uppers)


def ref_hukuhara_diff(A, B):
    rs, (alo, ahi), (blo, bhi) = ref_common_grid(A, B)
    clo = alo - blo
    chi = ahi - bhi
    tol = _SHAPE_TOL * ref_scale_of(clo, chi)
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


def ref_sub_polyline_points(curve, a, b):
    """The vertices ref_sub_polyline_lengths measures."""
    t = curve.params
    i0 = int(np.searchsorted(t, a, side="right"))
    i1 = int(np.searchsorted(t, b, side="left"))
    return curve.point_at(np.concatenate([[a], t[i0:i1], [b]]))


def own_level_lengths(curve, a, b):
    """The lengths that fractal_curve._levels reads on the curve's own level
    over [a, b]: one array, each length once."""
    [(level, lengths, counts)] = fractal_curve._levels(curve, a, b, curve.level, curve.level)
    assert level == curve.level and counts is None
    return lengths


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
    """What a call returned or raised, in a form that compares by value.

    A number and the (rs, lowers, uppers) arrays a reference returns for one
    compare alike: by type, dtype, shape and bytes, and by whether the grid
    is the shared default one.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the subtractions
        try:
            value = fn(*args)
        except (ValidationError, HukuharaNonexistenceError) as exc:
            return (type(exc), str(exc), getattr(exc, "failing_r", None))
    if isinstance(value, FuzzyNumber):
        value = (value.rs, value.lowers, value.uppers)
    if isinstance(value, tuple):
        return ("number", value[0] is _DEFAULT_RS, *map(array_key, value))
    if isinstance(value, np.ndarray):
        return ("array", array_key(value))
    if isinstance(value, float):
        return ("float", type(value), value.hex())
    return ("value", value)


def array_key(a):
    return type(a), a.dtype, a.shape, a.tobytes()


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
    for k, (_, lo, up, magnitude) in enumerate(rows):
        place_defects(draw, lower[k], upper[k], _SHAPE_TOL * ref_scale_of(lo, up), magnitude)
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
        # A - B is near 0, so its scale is 1: B steps off A by the
        # constructor's tolerance on it, or by the next float past it
        tol, past = _SHAPE_TOL, np.nextafter(_SHAPE_TOL, 1.0)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, rs.size - 1))
            target = blo if draw(st.booleans()) else bup
            target[i] += draw(st.sampled_from([tol, -tol, past, -past, 0.0, -0.0]))
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
# exactly ordered bands: the path of the lowers followed by the uppers
# reversed never decreases, so the constructor accepts them without
# measuring defects; and the same bands one edit away from that


ORDERED_LEVELS = st.sampled_from([1, 4, DEFAULT_R_LEVELS])


@st.composite
def ordered_rows(draw, n_r, edits=True):
    """Lowers and uppers on n_r levels whose path never decreases: spread
    values, many ties and signed zeros, or one crisp value, at one of several
    magnitudes. With ``edits``, at most one entry may then become +-inf at
    either end of the path or NaN anywhere, or step back by one ulp or
    grossly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(st.sampled_from([1.0, 1e-6, 3.0, 1e9, 1e300]))
    kind = draw(st.sampled_from(["spread", "ties", "crisp"]))
    if kind == "spread":
        path = np.sort(rng.uniform(-1.0, 1.0, 2 * n_r))
    elif kind == "ties":
        path = np.sort(rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], 2 * n_r))
    else:
        path = np.full(2 * n_r, draw(st.sampled_from([-0.75, -0.0, 0.0, 0.25])))
    path *= magnitude
    edit = draw(st.sampled_from(["none", "inf", "nan", "ulp", "gross"])) if edits else "none"
    k = draw(st.integers(1, 2 * n_r - 1))
    if edit == "inf":
        path[draw(st.sampled_from([0, -1]))] = draw(st.sampled_from([np.inf, -np.inf]))
    elif edit == "nan":
        path[draw(st.integers(0, 2 * n_r - 1))] = np.nan
    elif edit == "ulp":
        path[k] = np.nextafter(path[k - 1], -np.inf)
    elif edit == "gross":
        path[k] = path[k - 1] - 0.5 * magnitude
    return path[:n_r].copy(), path[n_r:][::-1].copy()


def ordered_grid(draw, n_r):
    """The shared grid or an equal copy for the default level count, else
    n_r even levels (for one level, a grid every number refuses)."""
    if n_r == DEFAULT_R_LEVELS and draw(st.booleans()):
        return _DEFAULT_RS
    return np.linspace(0.0, 1.0, n_r)


@st.composite
def ordered_tables(draw):
    """An endpoint table in the layout of :func:`defective_tables`."""
    n_r = draw(ORDERED_LEVELS)
    lo, up = draw(ordered_rows(n_r))
    return ordered_grid(draw, n_r), lo, up, draw(st.sampled_from([0.0, _SHAPE_TOL]))


@st.composite
def ordered_pairs(draw):
    """Two valid numbers on one grid with exactly ordered bands: unrelated,
    B and B + C for a third such C (so A - B is C up to rounding), A and
    itself, or A and a crisp B."""
    n_r = draw(st.sampled_from([4, DEFAULT_R_LEVELS]))
    rs = ordered_grid(draw, n_r)
    B, C = (FuzzyNumber(rs, *draw(ordered_rows(n_r, edits=False))) for _ in range(2))
    mode = draw(st.sampled_from(["unrelated", "sum", "self", "crisp"]))
    if mode == "sum":
        return add(B, C), B
    if mode == "self":
        return B, B
    if mode == "crisp":
        return B, FuzzyNumber(rs, B.lowers[-1:].repeat(n_r), B.lowers[-1:].repeat(n_r))
    return B, C


@st.composite
def ordered_band_tables(draw):
    """Band tables of 1-12 rows in the layout of :func:`block_tables`, every
    row exactly ordered, or each row edited at random."""
    n_r = draw(ORDERED_LEVELS)
    edits = draw(st.booleans())
    rows = [draw(ordered_rows(n_r, edits)) for _ in range(draw(st.integers(1, 12)))]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


# ---------------------------------------------------------------------------
# the band-shape check


class TestBandShapeCheck:
    @given(st.one_of(defective_tables(), ordered_tables()))
    @settings(max_examples=400, deadline=None)
    def test_validate_matches_reference(self, table):
        rs, lo, up, tol = table
        assert outcome(validate, rs, lo, up, tol) == outcome(ref_validate, rs, lo, up, tol)

    @given(st.one_of(defective_tables(), ordered_tables()))
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
        # the solver flags a row valid exactly when the constructor accepts it
        lower, upper = bands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ~_rejected_rows(lower, upper)
        rs = np.linspace(0.0, 1.0, lower.shape[1])
        want = [not rejected(rs, lo, up) for lo, up in zip(lower, upper)]
        assert got.dtype == bool and got.tolist() == want

    @given(st.one_of(hukuhara_pairs(), ordered_pairs()))
    @settings(max_examples=400, deadline=None)
    def test_hukuhara_diff_matches_reference(self, pair):
        # the reference leaves an overflowed difference to the constructor;
        # the library reports it as one overflow error at the first bad level
        A, B = pair
        for X, Y in ((A, B), (B, A)):
            rs, (xlo, xhi), (ylo, yhi) = ref_common_grid(X, Y)
            with np.errstate(over="ignore"):
                finite = np.isfinite(xlo - ylo) & np.isfinite(xhi - yhi)
            if finite.all():
                assert outcome(hukuhara_diff, X, Y) == outcome(ref_hukuhara_diff, X, Y)
            else:
                r = float(rs[np.argmin(finite)])
                message = f"Hukuhara difference overflows at r={r}: A - B is not finite"
                assert outcome(hukuhara_diff, X, Y) == (ValidationError, message, None)

    def test_exactly_ordered_bands_are_not_measured_for_defects(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_band_defects called")

        monkeypatch.setattr(fuzzy_core, "_band_defects", refuse)
        A = make_triangular(-3.0, 0.0, 4.0)
        B = make_triangular(-1.0, 0.5, 1.5)
        for number in (add(A, B), scale(2.5, A), scale(-2.0, B), hukuhara_diff(A, B)):
            assert number.rs is _DEFAULT_RS
        sol = solve_first_order(example1_problem("I", j_steps=4096))
        assert sol.lower.shape == (4097, DEFAULT_R_LEVELS) and sol.validity.all()
        with pytest.raises(AssertionError, match="_band_defects called"):
            FuzzyNumber(_DEFAULT_RS, A.lowers, A.uppers[::-1])

    def test_infinite_endpoint_does_not_validate_other_rows(self):
        # row 0 is a fuzzy number; row 1 breaks all three conditions
        lower = np.array([[0.0, 1.0], [5.0, 4.0]])
        upper = np.array([[3.0, 2.0], [3.0, 4.5]])
        assert (~_rejected_rows(lower, upper)).tolist() == [True, False]
        for value in (-np.inf, np.inf, np.nan):
            bad = lower.copy()
            bad[0, 0] = value
            assert (~_rejected_rows(bad, upper)).tolist() == [False, False]

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
            got = own_level_lengths(curve, a, b)
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
        got = mass_function(base, alpha, a, b, max_level=5).levels
        # the levels below the curve's own follow from the Koch ratio
        assert got == ref_rule_mass(base, alpha, a, b, 5)
        assert got[0] == want[0]
        assert near([m for _, m in got], [m for _, m in want])

    @pytest.mark.parametrize(
        "interval",
        [(None, None), (0.0, 1.0), (0.25, 0.75), (1 / 3, 0.9), (0.123456, 0.654321), (0.5, 1.0)],
    )
    def test_gamma_dimension_matches_reference(self, monkeypatch, interval):
        base = generate_koch(0)
        got = gamma_dimension(base, *interval, max_level=7)
        levels = []
        walked = fractal_curve._fitted_bins

        def checked(curve, a, b, keep_from, max_level):
            # the fitted levels follow from the Koch ratio, with no vertices:
            # each level's bins must be the rule's, and their sums near those
            # of its reference vertices
            found = walked(curve, a, b, keep_from, max_level)
            wants = ref_rule_bins(curve, a, b, keep_from, max_level)
            geometric = ref_fitted_bins(curve, a, b, keep_from, max_level)
            for level, bins, want in zip(range(keep_from, max_level + 1), found, wants, strict=True):
                levels.append(level)
                assert same_bytes(bins[0], want[0]) and same_bytes(bins[1], want[1])
            for alpha in (1.0, KOCH_DIM):
                assert near(bin_sums(found, alpha), bin_sums(geometric, alpha))
            return found

        monkeypatch.setattr(fractal_curve, "_fitted_bins", checked)
        assert got == gamma_dimension(base, *interval, max_level=7)
        assert levels == [4, 5, 6, 7]  # the fitted levels all matched the reference

    def test_span_at_the_ends_of_a_grid(self):
        t, m = KOCH5.params, KOCH5.n_segments
        mid_first, mid_last = 0.5 * (t[0] + t[1]), 0.5 * (t[-2] + t[-1])
        # an end on a vertex is held by the segment on the inner side of it
        assert fractal_curve._span(t, t[0], t[-1]) == (0, m - 1)
        assert fractal_curve._span(t, t[0], t[1]) == (0, 0)
        assert fractal_curve._span(t, t[0], mid_first) == (0, 0)
        assert fractal_curve._span(t, mid_first, t[2]) == (0, 1)
        assert fractal_curve._span(t, t[-2], t[-1]) == (m - 1, m - 1)
        assert fractal_curve._span(t, mid_last, t[-1]) == (m - 1, m - 1)
        assert fractal_curve._span(t, t[-3], mid_last) == (m - 2, m - 1)
        assert fractal_curve._span(t, t[3], t[7]) == (3, 6)
        assert all(type(k) is int for k in fractal_curve._span(t, t[0], t[-1]))

    @pytest.mark.parametrize("name", ["koch", "segment", "three", "user_refiner", "no_refiner"])
    @pytest.mark.parametrize("where", ["one_segment", "vertices", "from_a0", "to_b0"])
    @pytest.mark.parametrize("rows", [None, 2, 3])
    def test_held_levels_read_the_span_as_the_reference(self, name, where, rows):
        # a level read from points reads [a, b] through the span rule, and
        # so does the ratio rule below a built-in curve's own level; a user
        # refiner and a curve without one read every level from points
        curve = {
            "koch": generate_koch(2),
            "segment": SEGMENTS[-2],
            "three": THREE.refined_to(1),
            "user_refiner": UNEQUAL.refined_to(2),
            "no_refiner": fractal_curve.generate_polyline(KOCH5.params, KOCH5.points),
        }[name]
        t = curve.params
        k = t.size // 2
        a, b = {
            "one_segment": (t[k] + 0.25 * (t[k + 1] - t[k]), t[k] + 0.75 * (t[k + 1] - t[k])),
            "vertices": (t[1], t[k]),
            "from_a0": (t[0], 0.5 * (t[k] + t[k + 1])),
            "to_b0": (0.5 * (t[k] + t[k + 1]), t[-1]),
        }[where]
        a, b = float(a), float(b)
        first, last = fractal_curve._span(t, a, b)
        assert (first == last) == (where == "one_segment")
        top = curve.level + (0 if curve.refiner is None else 2)
        want = fitted_outcome(ref_rule_bins, curve, a, b, curve.level, top)
        with block_rows(rows):
            assert fitted_outcome(fractal_curve._fitted_bins, curve, a, b, curve.level, top) == want
            for alpha in (1.0, KOCH_DIM):
                got = mass_function(curve, alpha, a, b, max_level=top).levels
                assert got == ref_rule_mass(curve, alpha, a, b, top)
                geometric = ref_mass_levels(curve, alpha, a, b, top)
                assert near([m for _, m in got], [m for _, m in geometric])

    @pytest.mark.parametrize("i, j", [(0, 5), (3, 17), (64, 1024), (1023, 1024)])
    def test_integrals_over_vertex_ends_match_reference(self, i, j):
        # with both ends on vertices, every cell is one segment of the table
        table = build_staircase(KOCH5, KOCH_DIM)
        a, b = float(KOCH5.params[i]), float(KOCH5.params[j])
        knots, dJ = ref_cells(table, a, b)
        assert same_bytes(knots, KOCH5.params[i : j + 1])

        def f(u):
            return np.sin(3.0 * u) + u * u

        got = fractal_calc.f_integral(f, KOCH5, table, a, b)
        assert got.n_cells == j - i
        assert got.value == float(np.sum(f(0.5 * (knots[:-1] + knots[1:])) * dJ))
        field = quadratic_peak(table)
        for rule in ("left", "midpoint"):
            want = outcome(ref_ff_riemann_integral, field, KOCH5, table, a, b, rule)
            assert outcome(ff_riemann_integral, field, KOCH5, table, a, b, rule) == want

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


# ---------------------------------------------------------------------------
# the shared default r-grid


class _Sub(np.ndarray):
    """An ndarray subclass, which the constructor must convert as before."""


ROW_FORMS = {
    "array": lambda a: a,
    "strided": lambda a: np.repeat(a, 2)[::2],
    "read_only": lambda a: np.frombuffer(a.tobytes()),
    "list": lambda a: a.tolist(),
    "float32": lambda a: a.astype(np.float32),
    "int": lambda a: np.rint(a).astype(np.int64),
    "subclass": lambda a: a.view(_Sub),
    "big_endian": lambda a: a.astype(">f8"),
    "short": lambda a: a[:-1],
    "long": lambda a: np.append(a, a[-1]),
    "2d": lambda a: a[None, :],
    "scalar": lambda a: a[0],
}


def foreign_grids(m):
    """Grids other than the default one: a level nudged, off its ends, out of
    order, holding NaN, or with another number of levels."""
    base = default_r_grid(m)
    nudged = base.copy()
    nudged[m // 2] = np.nextafter(nudged[m // 2], 2.0)
    shifted = base.copy()
    shifted[-1] = np.nextafter(1.0, 0.0)
    swapped = base.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    holed = base.copy()
    holed[3] = np.nan
    return st.sampled_from(
        [nudged, shifted, swapped, holed, default_r_grid(m - 1), default_r_grid(m + 1)]
    )


@st.composite
def default_grid_rows(draw, m=DEFAULT_R_LEVELS):
    """Rows of a valid number on m levels, from a drawn seed, and their magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(st.sampled_from([1.0, 1e-6, 3.0, 1e9, 1e300]))
    lo = np.sort(rng.uniform(-1.0, 1.0, m)) * magnitude
    up = lo[-1] + np.sort(rng.uniform(0.0, 1.0, m))[::-1] * magnitude
    if draw(st.booleans()):  # crisp stretches, where ties sit at the boundary
        k = draw(st.integers(1, m))
        lo[-k:] = up[-k:] = lo[-k]
    return lo, up, magnitude


@st.composite
def default_grid_tables(draw):
    """A table on the shared grid, on an equal writable copy of it or on a
    grid of its own, with defects at +-tol and just past it, NaN/+-inf
    entries, and rows of the wrong shape or of another type."""
    lo, up, magnitude = draw(default_grid_rows())
    grid = draw(st.sampled_from(["shared", "copy", "foreign"]))
    rs = {"shared": _DEFAULT_RS, "copy": default_r_grid()}.get(grid)
    if rs is None:
        rs = draw(foreign_grids(DEFAULT_R_LEVELS))
    place_defects(draw, lo, up, _SHAPE_TOL * ref_scale_of(lo, up), magnitude)
    lo_form, up_form = draw(st.sampled_from(sorted(ROW_FORMS))), "array"
    if draw(st.booleans()):
        lo_form, up_form = up_form, lo_form
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 as float32 or int
        return rs, ROW_FORMS[lo_form](lo), ROW_FORMS[up_form](up)


@st.composite
def shared_grid_pairs(draw):
    """A on the shared grid; B on it too, on an equal copy of it or on another
    grid; near A, independent of it or overflowing against it."""
    alo, aup, magnitude = draw(default_grid_rows())
    mode = draw(st.sampled_from(["tweak", "independent", "other_grid", "overflow"]))
    b_grid = _DEFAULT_RS if draw(st.booleans()) else default_r_grid()
    if mode == "overflow":
        # non-negative rows with the largest entry at `top`: A - B = A + A
        # overflows for the largest tops, and no top makes 2 * top overflow
        top = draw(st.sampled_from([0.5e308, 0.9e308, 1.6e308, 1.7e308]))
        shift, span = alo[0], (aup[0] - alo[0]) or 1.0  # a crisp constant has no span
        alo, aup = (alo - shift) / span * top, (aup - shift) / span * top
        return FuzzyNumber(_DEFAULT_RS, alo, aup), FuzzyNumber(b_grid, -aup, -alo)
    A = FuzzyNumber(_DEFAULT_RS, alo, aup)
    if mode == "tweak":
        blo, bup = alo.copy(), aup.copy()
        # A - B is near 0, so its scale is 1: B steps off A by the
        # constructor's tolerance on it, or by the next float past it
        tol, past = _SHAPE_TOL, np.nextafter(_SHAPE_TOL, 1.0)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, DEFAULT_R_LEVELS - 1))
            target = blo if draw(st.booleans()) else bup
            target[i] += draw(st.sampled_from([tol, -tol, past, -past, 0.0, -0.0]))
    elif mode == "independent":
        blo, bup, _ = draw(default_grid_rows())
    else:
        b_grid, blo, bup, _ = draw(sound_tables(draw(st.integers(2, 8))))
    try:
        B = FuzzyNumber(b_grid, blo, bup)
    except ValidationError:
        B = A
    return A, B


def lookup_tables():
    koch = build_staircase(generate_koch(3), KOCH_DIM, p0=0.3)
    segment = build_staircase(generate_segment((0.3, -1.7), (2.5, 9.1), level=4), 1.0)
    return [koch, segment]


@st.composite
def lookup_queries(draw):
    """A scalar (float, numpy float or 0-d array) or an array of parameters:
    inside the domain, at and just past its ends, infinite or NaN."""
    value = st.one_of(
        st.floats(min_value=-0.5, max_value=1.5),
        st.sampled_from(
            [0.0, -0.0, 1.0, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), np.nan, np.inf, -np.inf]
        ),
    )
    kind = draw(st.sampled_from(["float", "float64", "0d", "1d", "2d"]))
    if kind == "float":
        return draw(value)
    if kind == "float64":
        return np.float64(draw(value))
    if kind == "0d":
        return np.array(draw(value))
    values = np.array(draw(st.lists(value, min_size=0 if kind == "1d" else 2, max_size=8)))
    return values if kind == "1d" or values.size % 2 else values.reshape(2, -1)


DUPLICATES = {
    "itself": lambda x: x,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


class TestSharedDefaultGrid:
    @given(default_grid_tables())
    @settings(max_examples=600, deadline=None)
    def test_constructor_matches_reference(self, table):
        rs, lo, up = table
        assert outcome(FuzzyNumber, rs, lo, up) == outcome(ref_constructor_check, rs, lo, up)

    @given(default_grid_tables())
    @settings(max_examples=200, deadline=None)
    def test_constructor_copies_the_rows_it_is_given(self, table):
        # the grid is stored as given exactly when the reference's np.asarray
        # returns it; the rows are copied into the number's own row, so a
        # later write into the caller's arrays does not reach the number
        rs, lo, up = table
        try:
            got = FuzzyNumber(rs, lo, up)
        except ValidationError:
            return
        want = ref_constructor_check(rs, lo, up)
        assert (got.rs is rs) == (want[0] is rs)
        held = [got.lowers.tobytes(), got.uppers.tobytes()]
        for given_ in (lo, up):
            if isinstance(given_, np.ndarray):
                assert not np.shares_memory(given_, got.lowers.base)
                if given_.flags.writeable:
                    given_.fill(7)
        assert [got.lowers.tobytes(), got.uppers.tobytes()] == held
        assert got.lowers.base is got.uppers.base is not None

    @pytest.mark.parametrize("duplicate", sorted(DUPLICATES))
    def test_writes_through_the_bands_reach_the_next_operation(self, duplicate):
        # lowers and uppers are views of the number's row, in the number, in
        # its copies, its deep copies and its pickles alike; an operation
        # reads what was written through them and checks it again
        B = make_triangular(-0.5, 0.0, 0.5)
        original = make_triangular(-1.0, 0.0, 1.0)
        A = DUPLICATES[duplicate](original)
        assert A.lowers.base is A.uppers.base is not None
        assert A.data_equal(original)
        A.uppers[50] = A.uppers[49] + 0.25  # the upper rises at r = 0.5
        with pytest.raises(ValidationError, match="violated at r=0.5 by 0.245$"):
            add(A, B)
        with pytest.raises(ValidationError, match="violated at r=0.5 by 0.5$"):
            scale(-2.0, A)
        with pytest.raises(HukuharaNonexistenceError, match="lose monotonicity at r=0.5"):
            hukuhara_diff(A, B)
        A.uppers[50] = 0.5  # valid again, with the support widened at r = 0
        A.lowers[0], A.uppers[0] = -1.5, 1.25
        S, L, D = add(A, B), scale(-2.0, A), hukuhara_diff(A, B)
        assert (S.lowers[0], S.uppers[0]) == (-2.0, 1.75)
        assert (L.lowers[0], L.uppers[0]) == (-2.5, 3.0)
        assert (D.lowers[0], D.uppers[0]) == (-1.0, 0.75)

    @pytest.mark.parametrize("rs", [_DEFAULT_RS, default_r_grid()], ids=["shared", "copy"])
    @pytest.mark.parametrize("condition", ["lower_monotone", "upper_monotone", "lower_le_upper"])
    def test_defect_exactly_at_tolerance(self, rs, condition):
        # entries within [-1, 1] give the tolerance 1e-9 exactly
        for defect, accepted in ((_SHAPE_TOL, True), (np.nextafter(_SHAPE_TOL, 1.0), False)):
            lo, up = np.zeros(DEFAULT_R_LEVELS), np.zeros(DEFAULT_R_LEVELS)
            if condition == "lower_monotone":
                lo[:50] = defect  # lowers[49] - lowers[50] = defect
                up[:] = 1.0
            elif condition == "upper_monotone":
                up[60:] = defect  # uppers[60] - uppers[59] = defect
            else:
                lo[-1] = defect  # lowers[100] - uppers[100] = defect
            got = outcome(FuzzyNumber, rs, lo, up)
            assert got == outcome(ref_constructor_check, rs, lo, up)
            assert (got[0] == "number") == accepted

    def test_only_the_shared_grid_skips_the_grid_checks(self, monkeypatch):
        calls = []
        real = fuzzy_core._endpoint_table

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(fuzzy_core, "_endpoint_table", counted)
        lo, up = np.zeros(DEFAULT_R_LEVELS), np.ones(DEFAULT_R_LEVELS)
        FuzzyNumber(_DEFAULT_RS, lo, up)
        assert calls == []
        copy = default_r_grid()
        FuzzyNumber(copy, lo, up)
        assert len(calls) == 1 and calls[0] is copy
        bad = lo.copy()
        bad[7] = np.nan
        with pytest.raises(ValidationError, match="^lowers must be a finite 1-d array$"):
            FuzzyNumber(_DEFAULT_RS, bad, up)
        assert len(calls) == 2 and calls[1] is _DEFAULT_RS

    @given(shared_grid_pairs())
    @settings(max_examples=400, deadline=None)
    def test_hukuhara_diff_matches_reference(self, pair):
        A, B = pair
        for X, Y in ((A, B), (B, A)):
            assert outcome(hukuhara_diff, X, Y) == outcome(ref_checked_hukuhara_diff, X, Y)

    @given(st.sampled_from(lookup_tables()), lookup_queries())
    @settings(max_examples=400, deadline=None)
    def test_J_at_matches_reference(self, table, u):
        got = outcome(J_at, table, u)
        if np.isnan(u).any():  # the reference returned NaN unless another query was out of range
            lo, hi = table.domain
            assert got == (DomainError, f"parameter outside [{lo}, {hi}]", None)
        else:
            assert got == outcome(ref_J_at, table, u)

    def test_shared_grid_is_read_only_for_good(self):
        assert not _DEFAULT_RS.flags.writeable
        with pytest.raises(ValueError):
            _DEFAULT_RS.setflags(write=True)
        assert _DEFAULT_RS.tobytes() == np.linspace(0.0, 1.0, DEFAULT_R_LEVELS).tobytes()

    def test_default_r_grid_is_fresh_and_writeable(self):
        first, second = default_r_grid(), default_r_grid()
        assert first is not second and first is not _DEFAULT_RS
        assert first.tobytes() == _DEFAULT_RS.tobytes()
        first[0] = 0.5
        assert _DEFAULT_RS[0] == 0.0 and second[0] == 0.0

    def test_results_keep_the_shared_grid(self):
        A = make_triangular(-1.0, 0.5, 2.0)
        B = make_triangular(-0.5, 0.5, 1.0)
        numbers = [
            A,
            make_crisp(0.25),
            TriangularFuzzy(0.0, 1.0, 3.0).to_fuzzy(),
            fuzzy_from_json({"kind": "triangular", "a": 0, "b": 1, "c": 2}),
            add(A, B),
            scale(-2.5, A),
            hukuhara_diff(A, B),
        ]
        assert all(n.rs is _DEFAULT_RS for n in numbers)
        own = make_triangular(-1.0, 0.5, 2.0, rs=default_r_grid())
        assert own.rs is not _DEFAULT_RS and own.data_equal(A)

    def test_every_number_runs_post_init(self, monkeypatch):
        calls = []
        real = FuzzyNumber.__post_init__

        def counted(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(FuzzyNumber, "__post_init__", counted)
        A = make_triangular(-1.0, 0.5, 2.0)
        B = make_crisp(0.25)
        S = add(A, B)
        D = hukuhara_diff(A, B)
        L = scale(3.0, D)
        assert calls == [A, B, S, D, L]


# ---------------------------------------------------------------------------
# the binned dimension estimate


def ref_log_sum_slope(length_arrays, alpha):
    sums = [float(np.sum(lens**alpha)) for lens in length_arrays]
    if min(sums) <= 0.0:
        raise EstimationError("mass sums vanish on the requested range")
    ys = np.log(sums)
    ks = np.arange(ys.size, dtype=float)
    ks -= ks.mean()
    return float(np.sum(ks * (ys - ys.mean())) / np.sum(ks * ks))


def ref_gamma_dimension(curve, a, b, tol, max_level, fit_levels, slope):
    """gamma_dimension over every segment's length; the argument checks are
    left out and each slope is taken through ``slope``, which wraps
    ref_log_sum_slope."""
    a, b = sub_interval(a, b, curve.a0, curve.b0, "interval")

    keep_from = max_level - fit_levels + 1
    length_arrays = []
    cur = curve
    while True:
        if cur.level >= keep_from:
            length_arrays.append(ref_sub_polyline_lengths(cur, a, b))
        if cur.level >= max_level:
            break
        cur = cur.refine()

    lo, hi = 1.0, float(curve.ndim)
    slope_lo = slope(length_arrays, lo)
    if slope_lo <= 1e-9:
        return 1.0
    if curve.ndim > 1 and slope(length_arrays, hi) > 0.0:
        raise EstimationError(
            "mass sums still grow at alpha = n; no growth/decay transition in [1, n]"
        )
    it = 0
    while hi - lo > tol and it < 60:
        mid = 0.5 * (lo + hi)
        if slope(length_arrays, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi)


def recording(slope, trace):
    def record(levels, alpha):
        value = slope(levels, alpha)
        trace.append((alpha, value))
        return value

    return record


def estimate_outcome(fn, *args):
    try:
        return ("float", fn(*args).hex())
    except EstimationError as exc:
        return ("error", str(exc))


def decisions(trace):
    """Each step's alpha and the test the bisection makes on its slope: at the
    first step (alpha = 1) whether it is <= 1e-9, later whether it is > 0.

    The sign itself is not compared at alpha = 1: on a straight segment that
    slope is rounding noise, and its sign differs between the two sums.
    """
    return [(a.hex(), s <= 1e-9 if k == 0 else s > 0.0) for k, (a, s) in enumerate(trace)]


def same_bisection(curve, interval, tol, max_level, fit_levels):
    """Run gamma_dimension and the reference on one input, require the same
    steps, slopes within 1e-12 and the same bits or message, and return the
    outcome."""
    args = (curve, *interval, tol, max_level, fit_levels)
    got_trace, want_trace, entered = [], [], []
    real = fractal_curve._log_sum_slope

    def slope(bins, alpha):
        entered.append(alpha)  # before the call, which may raise
        return real(bins, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractal_curve, "_log_sum_slope", recording(slope, got_trace))
        got = estimate_outcome(gamma_dimension, *args)
    assert entered, "gamma_dimension never took a slope through the recording"
    want = estimate_outcome(ref_gamma_dimension, *args, recording(ref_log_sum_slope, want_trace))
    assert decisions(got_trace) == decisions(want_trace)
    assert all(abs(g - w) <= 1e-12 for (_, g), (_, w) in zip(got_trace, want_trace))
    assert got == want
    return got


def refinable(refiner):
    return FractalCurve(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), refiner=refiner)


def similarity_refiner(template):
    """Replace each segment p -> q by ``template`` under the similarity taking
    (0, 0) to p and (1, 0) to q; parameters split uniformly per piece."""
    shape = np.array([complex(x, y) for x, y in template[:-1]])
    offsets = np.arange(shape.size) / shape.size

    def refine(curve):
        z = curve.points[:, 0] + 1j * curve.points[:, 1]
        inner = (z[:-1, None] + np.diff(z)[:, None] * shape).ravel()
        z = np.append(inner, z[-1])
        t = curve.params
        params = np.append((t[:-1, None] + np.diff(t)[:, None] * offsets).ravel(), t[-1])
        return FractalCurve(params, np.column_stack([z.real, z.imag]), refine, curve.level + 1)

    return refine


def jittered_refiner(curve):
    """Split each chord at a seeded random point near its middle, pushed off
    the chord by a random fraction of it, so that no two lengths are equal."""
    w, t = curve.points, curve.params
    d = np.diff(w, axis=0)
    along, off = np.random.default_rng(curve.level).uniform(-0.3, 0.3, size=(2, d.shape[0], 1))
    nw = np.empty((2 * w.shape[0] - 1, 2))
    nw[0::2] = w
    nw[1::2] = w[:-1] + (0.5 + 0.5 * along) * d + off * np.column_stack([-d[:, 1], d[:, 0]])
    nt = np.empty(2 * t.size - 1)
    nt[0::2] = t
    nt[1::2] = 0.5 * (t[:-1] + t[1:])
    return FractalCurve(nt, nw, jittered_refiner, curve.level + 1)


# unequal pieces of ratios 0.361, 0.412 and 0.316: few distinct lengths, but
# more than one per level
UNEQUAL = refinable(similarity_refiner([(0.0, 0.0), (0.3, 0.2), (0.7, 0.1), (1.0, 0.0)]))
# every length distinct: binning's worst case, where only the order of the sum changes
JITTERED = refinable(jittered_refiner)

TOLS = [1e-2, 1e-3, 1e-6, 1e-9, 1e-12]
INTERVALS = [
    (None, None),
    (0.25, 0.75),
    (1 / 3, 0.9),
    (0.0, 0.5),
    (0.123456, 0.654321),
    (0.5, 1.0),
    (0.0, 1.0),
]


def grid(levels, fits=range(2, 6)):
    """Every (max_level, fit_levels) pair, with tol and interval in rotation."""
    pairs = itertools.product(levels, fits)
    return [(ml, fl, TOLS[i % 5], INTERVALS[i % 7]) for i, (ml, fl) in enumerate(pairs)]


class TestBinnedDimension:
    @pytest.mark.parametrize(
        "max_level, fit_levels, tol, interval",
        grid(range(4, 11))
        + [
            (10, 4, 0.01, (None, None)),
            (6, 3, 0.01, (None, None)),
            (8, 4, 1e-6, (None, None)),
            (9, 2, 1e-12, (None, None)),
            (10, 5, 0.001, (None, None)),
        ],
    )
    def test_koch_matches_reference(self, max_level, fit_levels, tol, interval):
        same_bisection(generate_koch(0), interval, tol, max_level, fit_levels)

    @given(
        sub_intervals(KOCH5.params),
        st.integers(4, 8),
        st.integers(2, 5),
        st.sampled_from(TOLS),
    )
    @settings(max_examples=40, deadline=None)
    def test_koch_sub_intervals_match_reference(self, interval, max_level, fit_levels, tol):
        same_bisection(generate_koch(0), interval, tol, max_level, fit_levels)

    @pytest.mark.parametrize(
        "max_level, fit_levels, tol, interval", grid([6, 10, 14], fits=[2, 3, 5])
    )
    def test_segment_is_exactly_one(self, max_level, fit_levels, tol, interval):
        curve = generate_segment(level=0)
        assert same_bisection(curve, interval, tol, max_level, fit_levels) == ("float", (1.0).hex())

    @pytest.mark.parametrize("max_level, fit_levels, tol, interval", grid(range(6, 13, 2)))
    def test_unequal_pieces_match_reference(self, max_level, fit_levels, tol, interval):
        same_bisection(UNEQUAL, interval, tol, max_level, fit_levels)

    @pytest.mark.parametrize("max_level, fit_levels, tol, interval", grid(range(8, 15, 2)))
    def test_distinct_lengths_match_reference(self, max_level, fit_levels, tol, interval):
        same_bisection(JITTERED, interval, tol, max_level, fit_levels)

    @given(
        sub_intervals(JITTERED.refined_to(5).params),
        st.integers(6, 12),
        st.integers(2, 5),
        st.sampled_from(TOLS),
    )
    @settings(max_examples=40, deadline=None)
    def test_distinct_lengths_on_sub_intervals(self, interval, max_level, fit_levels, tol):
        same_bisection(JITTERED, interval, tol, max_level, fit_levels)

    def test_test_curves_have_the_intended_lengths(self):
        unequal = UNEQUAL.refined_to(8).segment_lengths()
        assert 1 < np.unique(unequal).size < unequal.size // 10
        jittered = JITTERED.refined_to(12).segment_lengths()
        assert np.unique(jittered).size == jittered.size


# ---------------------------------------------------------------------------
# band-valued fuzzy fields


def ref_ff_riemann_integral(f, curve, table, a=None, b=None, rule="left"):
    """ff_riemann_integral while it sampled the field one f(u) per cell."""
    if rule not in ("left", "midpoint"):
        raise ValidationError(f"rule must be 'left' or 'midpoint', got {rule!r}")
    knots, dJ = fractal_calc._cells(curve, table, a, b)
    nodes = knots[:-1] if rule == "left" else 0.5 * (knots[:-1] + knots[1:])

    samples = [f(u) for u in nodes]
    rs = samples[0].rs
    same_grid = all(
        s.rs is rs or (s.rs.size == rs.size and np.array_equal(s.rs, rs)) for s in samples[1:]
    )
    if not same_grid:
        rs = rs.copy()
        for s in samples[1:]:
            rs = np.union1d(rs, s.rs)
    lows = np.empty((len(samples), rs.size))
    ups = np.empty((len(samples), rs.size))
    for i, s in enumerate(samples):
        if same_grid:
            lows[i], ups[i] = s.lowers, s.uppers
        else:
            lows[i], ups[i] = s.cuts_at(rs)
    w = dJ[:, None]
    return FuzzyNumber(rs, np.sum(w * lows, axis=0), np.sum(w * ups, axis=0))


SEGMENT6 = generate_segment(level=6)
FIELD_CURVES = {
    "segment6": (SEGMENT6, build_staircase(SEGMENT6, 1.0, 0.0)),
    "koch5": (KOCH5, build_staircase(KOCH5, KOCH_DIM)),
}


def quadratic_peak(table, peak=(0.3, -0.7, 0.45), left=(0.5, 0.25), right=(0.4, 0.6), bad=None):
    """A triangular field with a quadratic peak and linear spreads in J, as
    the benchmark integrates; each part is written once for u and for arrays.
    ``bad = (k, g)`` replaces part k by g(a, b, c) from J = 0.6 on."""

    def part(k):
        def value(u):
            J = J_at(table, u)
            b = peak[0] + peak[1] * J + peak[2] * J * J
            abc = (b - (left[0] + left[1] * J), b, b + (right[0] + right[1] * J))
            if bad and bad[0] == k:
                return np.where(J >= 0.6, bad[1](*abc), abc[k])
            return abc[k]

        return value

    return triangular_field(part(0), part(1), part(2), table.domain)


def fields(table):
    """Fields of every kind on one table: the two built-in kinds (with
    functions of u and constants), and scalar evaluators on the default
    grid, on one grid of their own and on grids that alternate per point."""
    tri = make_triangular(1.0, 2.0, 3.5)
    own = default_r_grid(41)

    def J(u):
        return J_at(table, u)

    def alternating(u):
        n = 5 if math.floor(u * 37.0) % 2 == 0 else 9
        return make_triangular(-1.0, J(u), 2.0, rs=np.linspace(0.0, 1.0, n))

    return {
        "triangular": quadratic_peak(table),
        "triangular_shrinking": quadratic_peak(table, (-0.2, 0.9, -0.3), (2.0, -0.8), (1.9, -0.7)),
        "triangular_constant": triangular_field(
            lambda u: -1.0, lambda u: 0.5, lambda u: 2.0, table.domain
        ),
        "crisp": crisp_embedding(lambda u: 1.0 + J(u) - 0.5 * J(u) * J(u), table.domain),
        "crisp_constant": crisp_embedding(lambda u: 2.5, table.domain),
        "scalar_default_grid": FuzzyCurveFunction(lambda u: scale(J(u), tri), table.domain),
        "scalar_own_grid": FuzzyCurveFunction(
            lambda u: make_triangular(-J(u), 0.0, J(u) + 1.0, rs=own), table.domain
        ),
        "scalar_mixed_grids": FuzzyCurveFunction(alternating, table.domain),
    }


def field_intervals(params):
    """The whole domain, and [a, b] with ends on vertices, between vertices
    and at the domain ends."""
    k = params.size
    return [
        (None, None),
        (float(params[0]), float(params[-1])),
        (float(params[3]), float(params[k - 5])),
        (0.123456, 0.654321),
        (float(params[0]), 0.5),
        (0.3, float(params[-1])),
        (float(params[k // 2]), 0.77),
    ]


def _rejected_triangular(k, g):
    return lambda table: quadratic_peak(table, bad=(k, g))


def _rejected_crisp(x):
    return lambda table: crisp_embedding(
        lambda u: np.where(J_at(table, u) >= 0.6, x, 1.0), table.domain
    )


# fields whose values are rejected from J = 0.6 on
REJECTED = {
    "left_foot_above_peak": _rejected_triangular(0, lambda a, b, c: b + 5.0),
    "left_foot_an_ulp_above_peak": _rejected_triangular(0, lambda a, b, c: np.nextafter(b, 9.0)),
    "right_foot_below_peak": _rejected_triangular(2, lambda a, b, c: b - 5.0),
    "right_foot_an_ulp_below_peak": _rejected_triangular(2, lambda a, b, c: np.nextafter(b, -9.0)),
    "nan_left_foot": _rejected_triangular(0, lambda a, b, c: np.nan),
    "nan_peak": _rejected_triangular(1, lambda a, b, c: np.nan),
    "nan_right_foot": _rejected_triangular(2, lambda a, b, c: np.nan),
    "infinite_left_foot": _rejected_triangular(0, lambda a, b, c: -np.inf),
    "infinite_peak": _rejected_triangular(1, lambda a, b, c: np.inf),
    "infinite_right_foot": _rejected_triangular(2, lambda a, b, c: np.inf),
    "crisp_nan": _rejected_crisp(np.nan),
    "crisp_inf": _rejected_crisp(np.inf),
    "crisp_minus_inf": _rejected_crisp(-np.inf),
}


class TestBandValuedFields:
    @pytest.mark.parametrize("rule", ["left", "midpoint"])
    @pytest.mark.parametrize("curve_name", sorted(FIELD_CURVES))
    def test_integral_matches_reference(self, curve_name, rule):
        curve, table = FIELD_CURVES[curve_name]
        for name, f in fields(table).items():
            for a, b in field_intervals(curve.params):
                got = outcome(ff_riemann_integral, f, curve, table, a, b, rule)
                want = outcome(ref_ff_riemann_integral, f, curve, table, a, b, rule)
                assert got[0] == "number", (name, a, b)
                assert got == want, (name, a, b)

    @given(sub_intervals(KOCH5.params), st.sampled_from(["left", "midpoint"]))
    @settings(max_examples=30, deadline=None)
    def test_koch_sub_intervals_match_reference(self, interval, rule):
        curve, table = FIELD_CURVES["koch5"]
        f = quadratic_peak(table)
        got = outcome(ff_riemann_integral, f, curve, table, *interval, rule)
        assert got == outcome(ref_ff_riemann_integral, f, curve, table, *interval, rule)

    @pytest.mark.parametrize("curve_name", sorted(FIELD_CURVES))
    def test_band_rows_are_the_values(self, curve_name):
        curve, table = FIELD_CURVES[curve_name]
        us = np.concatenate([curve.params, 0.5 * (curve.params[:-1] + curve.params[1:])])
        for name, f in fields(table).items():
            rs, lowers, uppers = f.bands(us)
            assert lowers.shape == uppers.shape == (us.size, rs.size)
            for u, lo, up in zip(us, lowers, uppers):
                value = f(u)
                if name == "scalar_mixed_grids":  # rows are resampled onto the union grid
                    want_lo, want_up = value.cuts_at(rs)
                else:
                    assert value.rs is rs or same_bytes(value.rs, rs)
                    want_lo, want_up = value.lowers, value.uppers
                assert same_bytes(lo, want_lo) and same_bytes(up, want_up), (name, u)

    @pytest.mark.parametrize("rule", ["left", "midpoint"])
    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_values_raise_as_before(self, name, rule):
        curve, table = FIELD_CURVES["koch5"]
        f = REJECTED[name](table)
        got = outcome(ff_riemann_integral, f, curve, table, None, None, rule)
        assert got[0] is ValidationError
        assert got == outcome(ref_ff_riemann_integral, f, curve, table, None, None, rule)

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_bands_reject_as_the_values_do(self, name):
        curve, table = FIELD_CURVES["koch5"]
        f = REJECTED[name](table)
        got = outcome(f.bands, curve.params)
        assert got[0] is ValidationError
        assert got == outcome(lambda us: [f(u) for u in us], curve.params)


@st.composite
def per_row_bands(draw):
    """Bands of 1-5 rows at unrelated magnitudes, each with defects at, or
    just past, the tolerance of its own scale."""
    rows = [draw(default_grid_rows()) for _ in range(draw(st.integers(1, 5)))]
    lower = np.array([r[0] for r in rows])
    upper = np.array([r[1] for r in rows])
    for k, (lo, up, magnitude) in enumerate(rows):
        place_defects(draw, lower[k], upper[k], _SHAPE_TOL * ref_scale_of(lo, up), magnitude)
    return lower, upper


def rejected(rs, lowers, uppers) -> bool:
    try:
        ref_constructor_check(rs, lowers, uppers)
    except ValidationError:
        return True
    return False


class TestRejectedRows:
    @given(per_row_bands())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_constructor_row_by_row(self, band):
        lowers, uppers = band
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rejected_rows(lowers, uppers)
        want = [rejected(_DEFAULT_RS, lo, up) for lo, up in zip(lowers, uppers)]
        assert got.tolist() == want

    def test_each_row_is_judged_at_its_own_scale(self):
        big = np.linspace(-1e6, 0.0, DEFAULT_R_LEVELS)
        small = np.linspace(0.0, 1.0, DEFAULT_R_LEVELS)
        small[50] = small[49] - 1e-6  # past 1e-9 * 1, within 1e-9 * 1e6
        lowers = np.array([big, small])
        uppers = np.array([np.full(DEFAULT_R_LEVELS, 1e6), np.full(DEFAULT_R_LEVELS, 2.0)])
        assert _rejected_rows(lowers, uppers).tolist() == [False, True]
        assert _rejected_rows(lowers[::-1], uppers[::-1]).tolist() == [True, False]


# ---------------------------------------------------------------------------
# batch lookups in ascending query order

# a zero-length segment between u = 0.5 and 0.7 gives Js a flat stretch
FLAT_2D = fractal_curve.generate_polyline(
    [0.0, 0.2, 0.5, 0.7, 1.0], [[0.0, 0.0], [0.3, 0.1], [0.5, -0.2], [0.5, -0.2], [1.0, 0.0]]
)
FLAT_3D = fractal_curve.generate_polyline(
    [-2.0, -1.5, -0.25, 0.0, 3.0],
    [[1.0, -2.0, 0.5], [1.0, -2.0, 0.5], [0.0, 1.0, -1.5], [2.0, 2.0, 2.0], [-1.0, 0.0, 4.0]],
)
# 0.1 + (0.45 - 0.1) != 0.45 in floats, so a vertex hit is not an interpolation
FLAT_1D = fractal_curve.generate_polyline(
    [0.0, 0.1, 0.45, 0.9, 1.0], [[-1.0], [2.0], [0.0], [0.0], [0.5]]
)
LOOKUP_CASES = [
    (KOCH3 := generate_koch(3), build_staircase(KOCH3, KOCH_DIM, p0=0.3)),
    (SEG := generate_segment((0.3, -1.7), (2.5, 9.1), level=4), build_staircase(SEG, 1.0)),
    (FLAT_2D, build_staircase(FLAT_2D, 1.5, p0=0.6)),
    (FLAT_3D, build_staircase(FLAT_3D, 2.5, p0=-1.5)),
    (FLAT_1D, build_staircase(FLAT_1D, 1.0, p0=0.25)),
]


@st.composite
def query_batches(draw, knots):
    """Queries over the range of the sorted ``knots``: on knots, at both
    ends and between, with repeats; shuffled, reversed or sorted; shaped
    0-d, 1-d or 2-d, empty included."""
    lo, hi = float(knots[0]), float(knots[-1])
    ends = [lo, hi] + ([-0.0] if lo == 0.0 else [])
    value = st.one_of(
        st.floats(min_value=lo, max_value=hi),
        st.sampled_from(knots.tolist()),
        st.sampled_from(ends),
    )
    values = draw(st.lists(value, max_size=24))
    if values and draw(st.booleans()):
        values += draw(st.lists(st.sampled_from(values), min_size=1, max_size=8))
    order = draw(st.sampled_from(["shuffled", "reversed", "sorted"]))
    if order == "shuffled":
        values = draw(st.permutations(values))
    else:
        values = sorted(values, reverse=order == "reversed")
    shape = draw(st.sampled_from(["0d", "1d", "2d"]))
    if shape == "0d":
        return np.array(values[0] if values else lo)
    batch = np.array(values, dtype=float)
    if shape == "2d":
        batch = batch.reshape(-1, 2) if batch.size % 2 == 0 else batch.reshape(1, -1)
    return batch


def one_by_one(lookup, batch, trailing=()):
    """``lookup`` called on each query as a Python float, stacked to the
    batch's shape and then the answers' own ``trailing`` shape."""
    rows = [lookup(float(q)) for q in batch.ravel()]
    return np.array(rows, dtype=float).reshape(batch.shape + trailing)


def with_bad_query(draw, batch, lo, hi):
    """The batch ravelled, with one NaN, infinite or just out-of-range query inserted."""
    past = [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf] + past))
    flat = batch.ravel().tolist()
    flat.insert(draw(st.integers(0, len(flat))), bad)
    return np.array(flat)


class TestLookupOrder:
    @given(st.sampled_from(LOOKUP_CASES), st.data())
    @settings(max_examples=400, deadline=None)
    def test_J_at_is_bit_equal_in_any_order(self, case, data):
        _, table = case
        u = data.draw(query_batches(table.us))
        got = outcome(J_at, table, u)
        assert got == outcome(ref_J_at, table, u)
        if u.ndim == 0:
            assert got == outcome(J_at, table, float(u))
        else:
            assert same_bytes(J_at(table, u), one_by_one(lambda q: J_at(table, q), u))

    @given(st.sampled_from(LOOKUP_CASES), st.data())
    @settings(max_examples=400, deadline=None)
    def test_u_at_is_bit_equal_in_any_order(self, case, data):
        _, table = case
        J = data.draw(query_batches(table.Js))
        got = outcome(u_at, table, J)
        assert got == outcome(ref_u_at, table, J)
        if J.ndim == 0:
            assert got == outcome(u_at, table, float(J))
        else:
            assert same_bytes(u_at(table, J), one_by_one(lambda q: u_at(table, q), J))

    @given(st.sampled_from(LOOKUP_CASES), st.data())
    @settings(max_examples=400, deadline=None)
    def test_point_at_is_bit_equal_in_any_order(self, case, data):
        curve, _ = case
        u = data.draw(query_batches(curve.params))
        got = curve.point_at(u)
        assert got.shape == u.shape + (curve.ndim,)
        assert same_bytes(got, ref_point_at(curve, u))
        assert same_bytes(got, one_by_one(curve.point_at, u, (curve.ndim,)))

    @given(st.sampled_from(LOOKUP_CASES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bad_queries_in_a_batch_are_domain_errors(self, case, data):
        curve, table = case
        (lo, hi), (Jlo, Jhi) = table.domain, table.J_range
        u = with_bad_query(data.draw, data.draw(query_batches(table.us)), lo, hi)
        with pytest.raises(DomainError, match=re.escape(f"parameter outside [{lo}, {hi}]")):
            J_at(table, u)
        with pytest.raises(DomainError, match=re.escape(f"parameter outside [{lo}, {hi}]")):
            curve.point_at(u)
        J = with_bad_query(data.draw, data.draw(query_batches(table.Js)), Jlo, Jhi)
        with pytest.raises(DomainError, match=re.escape(f"staircase value outside [{Jlo}, {Jhi}]")):
            u_at(table, J)

    def test_flat_stretch_maps_to_its_left_end(self):
        _, table = LOOKUP_CASES[2]
        J_flat = float(J_at(table, 0.5))
        assert J_at(table, 0.7) == J_flat
        got = u_at(table, np.array([J_flat, J_flat, table.Js[-1], table.Js[0], J_flat]))
        assert got.tolist() == [0.5, 0.5, 1.0, 0.0, 0.5]

    def test_sorted_batches_are_looked_up_without_a_copy(self):
        grid = np.linspace(0.0, 1.0, 4097)
        assert fractal_curve._in_query_order(lambda q: q, grid) is grid
        stepped = np.repeat(grid[:5], 2).reshape(2, 5)  # non-decreasing when ravelled
        assert fractal_curve._in_query_order(lambda q: q, stepped) is stepped
        shuffled = grid[::-1].copy()
        got = fractal_curve._in_query_order(lambda q: q, shuffled)
        assert got is not shuffled and same_bytes(got, shuffled)

    def test_empty_batches_keep_their_shape(self):
        curve, table = LOOKUP_CASES[0]
        for shape in [(0,), (0, 3), (2, 0)]:
            empty = np.empty(shape)
            assert J_at(table, empty).shape == shape
            assert u_at(table, empty).shape == shape
            assert curve.point_at(empty).shape == shape + (2,)

    def test_koch10_lookups_keep_their_bits(self):
        # digests of J_at, u_at(J_at) and u_at on a seeded batch, recorded
        # while lookups still searched the table in the batch's own order
        table = build_staircase(generate_koch(10), KOCH_DIM, p0=0.3)
        rng = np.random.default_rng(20231014)
        us = rng.uniform(0.0, 1.0, 4096)
        Js = rng.uniform(*table.J_range, 4096)
        J = J_at(table, us)
        digests = [
            hashlib.sha256(a.tobytes()).hexdigest() for a in (J, u_at(table, J), u_at(table, Js))
        ]
        assert digests == [
            "f4f30387ab7f0e9506328b59821d889d1e4b6bb14834dea49f3a06c1667bcb64",
            "fcd2a315bc3d03126dcfb822c85eae4c1ecb1bd9dfeb50b9aabd512b38dd61dd",
            "4e482aef8bddcf05d7683bd1aa0c3fbb9f7e7d7e0fb098fe9b4806426f21b514",
        ]


# ---------------------------------------------------------------------------
# the refine endpoint check


def midpoints(w):
    """The vertices of a one-segment polyline after one midpoint subdivision."""
    return np.vstack([w[0], 0.5 * (w[0] + w[-1]), w[-1]])


def moving_refiner(end, k, value):
    """Midpoint subdivision of a one-segment curve over [0, 1] that puts
    ``value`` in column k of the end vertex."""

    def refine(curve):
        points = midpoints(curve.points)
        points[end, k] = value
        return FractalCurve(np.array([0.0, 0.5, 1.0]), points, refine, 1)

    return refine


def endpoint_boundary(b, sign):
    """The coordinate farthest from b, on the side ``sign``, with
    |a - b| <= 1e-8 + 1e-5 * |b|, and the next float beyond it."""
    tol = 1e-8 + 1e-5 * abs(b)
    beyond = math.copysign(math.inf, sign)
    a = b + sign * tol
    while abs(a - b) > tol:
        a = math.nextafter(a, b)
    while abs(math.nextafter(a, beyond) - b) <= tol:
        a = math.nextafter(a, beyond)
    return a, math.nextafter(a, beyond)


def refine_verdict(start, end_point, end, k, value):
    refiner = moving_refiner(end, k, value)
    curve = FractalCurve(np.array([0.0, 1.0]), np.array([start, end_point]), refiner)
    try:
        curve.refine()
    except ValidationError as exc:
        assert str(exc) == "refinement moved an endpoint image"
        return False
    return True


ENDPOINTS = {
    1: ([0.0], [-2.5]),
    2: ([-3.7, 0.0], [1.25, -0.6]),
    3: ([1e3, -1e-3, 0.0], [-7.0, 0.3, -1e6]),
}


class TestRefineEndpointCheck:
    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("end", [0, -1], ids=["start", "end"])
    def test_boundary_move_is_accepted_and_the_next_float_refused(self, columns, end):
        start, end_point = ENDPOINTS[columns]
        old = np.array([start, end_point])
        for k in range(columns):
            b = float(old[end, k])
            for sign in (1.0, -1.0):
                inside, outside = endpoint_boundary(b, sign)
                for value, accepted in ((inside, True), (outside, False)):
                    moved = old[end].copy()
                    moved[k] = value
                    assert bool(np.allclose(moved, old[end])) == accepted
                    assert refine_verdict(start, end_point, end, k, value) == accepted

    def test_a_move_from_zero_is_measured_exactly(self):
        # at b = 0 the tolerance is 1e-8 itself, and a = 1e-8 moves by exactly that
        assert endpoint_boundary(0.0, 1.0) == (1e-8, math.nextafter(1e-8, math.inf))
        assert endpoint_boundary(0.0, -1.0) == (-1e-8, math.nextafter(-1e-8, -math.inf))

    @given(
        st.floats(min_value=-1e12, max_value=1e12),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([0, -1]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_match_allclose(self, b, sign, end, inside):
        start, end_point = [0.5, b], [b, -0.5]
        old = np.array([start, end_point])
        k = 1 if end == 0 else 0  # the column holding b
        value = endpoint_boundary(b, sign)[0 if inside else 1]
        moved = old[end].copy()
        moved[k] = value
        want = bool(np.allclose(moved, old[end]))
        assert refine_verdict(start, end_point, end, k, value) == want

    def test_a_refiner_that_changes_the_columns_is_refused(self):
        def widen(curve):
            points = np.column_stack([midpoints(curve.points), np.zeros(3)])
            return FractalCurve(np.array([0.0, 0.5, 1.0]), points, None, 1)

        curve = FractalCurve(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), widen)
        with pytest.raises(ValidationError, match="^refinement moved an endpoint image$"):
            curve.refine()


# ---------------------------------------------------------------------------
# blocked dense output, validity flags and CSV body


class ref_CubicHermite:
    """``ffde._CubicHermite`` as it was when it built its whole coefficient
    table up front and gathered from it in the batch's own order."""

    def __init__(self, x: np.ndarray, y: np.ndarray, m: np.ndarray):
        dx = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dx
        t = (m[:-1] + m[1:] - 2 * slope) / dx
        self._x = x
        self._c = (t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1])

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        x = self._x
        if not ((xq >= x[0]) & (xq <= x[-1])).all():  # also false for NaN
            raise DomainError(f"J outside [{x[0]}, {x[-1]}]")
        flat = xq.ravel()
        i = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, x.size - 2)
        s = (flat - x[i]).reshape((-1,) + (1,) * (self._c[0].ndim - 1))
        c0, c1, c2, c3 = (c[i] for c in self._c)
        c2 *= s
        c2 += c3
        s2 = s * s
        c1 *= s2
        c2 += c1
        s2 *= s
        c0 *= s2
        c2 += c0
        return c2.reshape(xq.shape + c2.shape[1:])


def ref_rejected_rows(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """``fuzzy_core._rejected_rows`` as it was, one pass over the whole table."""
    scale = np.maximum(np.abs(lowers).max(axis=1), np.abs(uppers).max(axis=1))
    np.maximum(scale, 1.0, out=scale)  # NaN stays NaN
    with np.errstate(invalid="ignore"):
        bad_lo, bad_up, bad_w = _band_defects(lowers, uppers, _SHAPE_TOL * scale[:, None])
    return ~np.isfinite(scale) | bad_lo.any(axis=1) | bad_up.any(axis=1) | bad_w.any(axis=1)


def ref_solution_to_csv(sol, target) -> None:
    """``ffde.solution_to_csv`` as it was, one cell table for the whole body."""
    n_u, n_r = sol.lower.shape
    cells = np.empty((n_u, n_r, 4), dtype=object)
    cells[..., 0] = np.array(
        ffde.format_columns(sol.us, sol.Js).splitlines(), dtype=object
    )[:, None]
    cells[..., 1] = sol.lower
    cells[..., 2] = sol.upper
    cells[..., 3] = sol.validity.astype(int)[:, None]
    block = "".join(f"%s,{r},%.17g,%.17g,%d\n" for r in ffde.format_columns(sol.rs).splitlines())
    ffde.write_csv(target, "u,J,r,lower,upper,valid", ffde.format_table(block, cells.reshape(n_u, -1)))


# None keeps the library's block size; the others force many blocks, down
# to one row (one query, one u-row) per block
BLOCK_ROWS = st.sampled_from([None, 1, 2, 3, 5])


@contextlib.contextmanager
def block_rows(rows):
    """Every blocked pass with ``rows`` rows per block (None: unchanged).

    Yields a list that gets the column count of each pass that asked for
    its block size, so a test can tell that its pass ran blocked at all."""
    real = fuzzy_core._block_rows
    calls = []

    def sized(n_cols):
        calls.append(n_cols)
        return real(n_cols) if rows is None else rows

    with mock.patch.object(fuzzy_core, "_block_rows", sized), mock.patch.object(
        ffde, "_block_rows", sized
    ), mock.patch.object(fractal_curve, "_block_rows", sized):
        yield calls


@st.composite
def hermite_tables(draw):
    """Nodes, values and slopes of a piecewise cubic: 1-d values (as the
    BVP's ``crisp_at`` has), 4 columns or 202 (101 levels, two bands), with
    NaN or infinite values or slopes in a few rows or entries, some of them
    at a block edge, and +0.0 or -0.0 values with slopes of either sign.

    Steps down to 1e-3 and values or slopes up to 1e300 put some tables on
    either side of the bound under which the dense output copies its node
    values: some with finite coefficients the bound cannot prove finite,
    some whose coefficients overflow."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.sampled_from([(1e-3, 2.0), (1e-3, 2e-3)]))
    x = np.cumsum(rng.uniform(*steps, n)) + draw(st.sampled_from([-3.0, 0.0, 1e3]))
    trailing = draw(st.sampled_from([(), (4,), (202,)]))
    shape = (n,) + trailing
    edge = st.floats(296.0, 300.0).map(lambda e: 10.0**e)
    y = rng.normal(size=shape) * draw(st.one_of(st.sampled_from([1.0, 1e-8, 1e150]), edge))
    m = rng.normal(size=shape) * draw(st.one_of(st.just(1.0), edge))
    rows = st.sampled_from([0, 1, 2, 3, n // 2, n - 2, n - 1]).map(lambda row: min(row, n - 1))

    def spot():
        """A whole row, or one entry of it."""
        row = draw(rows)
        if not trailing or draw(st.booleans()):
            return row
        return row, draw(st.integers(0, trailing[0] - 1))

    for _ in range(draw(st.integers(0, 2))):
        (y if draw(st.booleans()) else m)[spot()] = draw(NON_FINITE)
    for _ in range(draw(st.integers(0, 3))):
        at = spot()
        y[at] = draw(st.sampled_from([0.0, -0.0]))
        m[at] = draw(st.sampled_from([1.0, -1.0, 0.0, -0.0]))
    return x, y, m


def dense_pair(x, y, m, q):
    """The dense output and the reference cubic at ``q``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in non-finite rows
        return ffde._hermite(x, y, m, q), ref_CubicHermite(x, y, m)(q)


def same_dense(got, want) -> bool:
    """Same type and bytes, NaN entries compared as NaN alone: which sign a
    NaN takes where two NaNs meet depends on where numpy's loop puts the
    element."""
    nan = np.isnan(want)
    same_nan = same_bytes(np.isnan(got), nan)
    return type(got) is type(want) and same_nan and same_bytes(got[~nan], want[~nan])


def dense_outcome(dense, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in non-finite rows
        try:
            got = dense(q)
        except DomainError as exc:
            return (DomainError, str(exc))
    return ("array", array_key(got))


@st.composite
def block_tables(draw):
    """Band tables of 1-12 rows on 1, 4 or 101 levels, with defects at the
    tolerance of each row's scale and NaN/inf rows at or next to block edges."""
    n_r = draw(st.sampled_from([1, 4, DEFAULT_R_LEVELS]))
    rows = [draw(default_grid_rows(n_r)) for _ in range(draw(st.integers(1, 12)))]
    lower = np.array([r[0] for r in rows])
    upper = np.array([r[1] for r in rows])
    for k, (lo, up, magnitude) in enumerate(rows):
        if n_r > 1:
            place_defects(draw, lower[k], upper[k], _SHAPE_TOL * ref_scale_of(lo, up), magnitude)
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6]))
        if row < len(rows):
            (lower if draw(st.booleans()) else upper)[row, draw(st.integers(0, n_r - 1))] = draw(
                NON_FINITE
            )
    return lower, upper


@st.composite
def hermite_queries(draw):
    """A table of :func:`hermite_tables` and a batch of queries over its nodes."""
    table = draw(hermite_tables())
    return table, draw(query_batches(table[0]))


# an infinite and a NaN slope: at the node query, where two NaNs meet, the
# dense output gives NaN with its sign bit set in a block of several queries
# and clear in a block of one; the reference gives it clear
NAN_SIGN_CASE = (
    (
        np.array([-1.72571359, -1.18540995]),
        np.array([0.64042265, 0.10490012]),
        np.array([np.inf, np.nan]),
    ),
    np.array([-1.5] * 8 + [-1.72571359]),
)


class TestBlockedPasses:
    @given(hermite_queries(), BLOCK_ROWS)
    @example(case=NAN_SIGN_CASE, rows=None)
    @settings(max_examples=400, deadline=None)
    def test_dense_output_is_bit_equal(self, case, rows):
        (x, y, m), q = case
        with block_rows(rows) as calls:
            got, want = dense_pair(x, y, m, q)
        assert calls
        assert same_dense(got, want)

    @given(hermite_tables(), BLOCK_ROWS)
    @settings(max_examples=400, deadline=None)
    def test_dense_output_at_the_nodes_is_bit_equal(self, table, rows):
        # queries that are the nodes take the node copy where its guards allow
        x, y, m = table
        with block_rows(rows) as calls:
            got, want = dense_pair(x, y, m, x.copy())
        assert calls
        assert same_dense(got, want)

    def test_nodes_of_a_plain_table_are_copied(self):
        # every interior node is copied; only the last goes through a cubic
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 1.0, 4097)
        y, m = rng.normal(size=(2,) + x.shape + (202,))
        with mock.patch.object(ffde, "_cubic", wraps=ffde._cubic) as cubic:
            got = ffde._hermite(x, y, m, x.copy())
        assert [c.args[3].tolist() for c in cubic.call_args_list] == [[1.0]]
        assert same_bytes(got, ref_CubicHermite(x, y, m)(x))

    @pytest.mark.parametrize(
        "step, exponent",
        [(1e-3, e) for e in np.linspace(297.0, 300.0, 25)]
        + [(1.0, e) for e in np.linspace(306.5, 308.2, 25)],
    )
    def test_nodes_at_the_edge_of_the_bound(self, step, exponent):
        # values of alternating sign: the largest coefficient is c0 = 4|y|/h^3
        # for h = 1e-3 and c1 = 6|y| for h = 1, so a bound looser by a factor
        # of 4 would copy nodes whose cubic overflows
        x = np.arange(9) * step
        y = 10.0**exponent * np.array([1.0, -1.0] * 4 + [1.0])
        got, want = dense_pair(x, y, np.zeros(9), x.copy())
        assert same_dense(got, want)

    @pytest.mark.parametrize("value", [-0.0, np.nan])
    def test_one_guarded_entry_sends_only_its_block_through_the_cubic(self, value):
        x = np.linspace(0.0, 1.0, 65)
        y, m = np.random.default_rng(3).normal(size=(2, 65, 4))
        y[16, 1] = value
        with block_rows(8), mock.patch.object(ffde, "_cubic", wraps=ffde._cubic) as cubic:
            got, want = dense_pair(x, y, m, x.copy())
        # the first and last node of each call; a NaN also fails the bound of
        # the block before, whose last interval ends at it
        ends = [(c.args[3][0] * 64, c.args[3][-1] * 64) for c in cubic.call_args_list]
        assert ends == ([] if value == 0.0 else [(8.0, 15.0)]) + [(16.0, 23.0), (64.0, 64.0)]
        assert same_dense(got, want)

    @given(hermite_tables(), BLOCK_ROWS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_queries_are_domain_errors(self, table, rows, data):
        x, y, m = table
        q = with_bad_query(data.draw, data.draw(query_batches(x)), float(x[0]), float(x[-1]))
        if data.draw(st.booleans()):  # the bad query alone, 0-d
            q = q[~((q >= x[0]) & (q <= x[-1]))].reshape(())
        with block_rows(rows):
            got = dense_outcome(lambda q: ffde._hermite(x, y, m, q), q)
        assert got == dense_outcome(lambda q: ref_CubicHermite(x, y, m)(q), q)
        assert got[0] is DomainError

    def test_every_query_block_of_a_solver_grid(self):
        traj = ffde.solve_crisp_in_J(lambda J, y: -y + np.sin(3 * J), [1.0, -2.0, 0.5], (0, 2), 64)
        q = np.concatenate([traj.js, np.linspace(0.0, 2.0, 301)])
        want = ref_CubicHermite(traj.js, traj.states, traj.slopes)(q)
        for rows in (1, 2, 7, 64, 65, None):
            with block_rows(rows) as calls:
                assert same_bytes(traj.at(q), want)
                assert same_bytes(traj.at(np.sort(q)), want[np.argsort(q, kind="stable")])
            assert len(calls) == 2

    @given(st.one_of(block_tables(), ordered_band_tables()), BLOCK_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_validity_flags_are_the_same(self, table, rows):
        lowers, uppers = table
        with block_rows(rows) as calls, warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rejected_rows(lowers, uppers)
        assert same_bytes(got, ref_rejected_rows(lowers, uppers))
        assert calls == [lowers.shape[1]]

    @pytest.mark.parametrize("rows", [1, 2, 3, 16, None])
    @pytest.mark.parametrize("u_points", [2, 17])
    def test_csv_bytes_are_the_same(self, rows, u_points):
        problem = example1_problem("II", r_points=7, j_steps=16, u_points=u_points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the second of 2 rows is past the horizon
            sol = solve_first_order(problem)
        want = io.StringIO()
        ref_solution_to_csv(sol, want)
        got = io.StringIO()
        with block_rows(rows) as calls:
            ffde.solution_to_csv(sol, got)
        assert got.getvalue() == want.getvalue()
        assert calls == [sol.rs.size]

    def test_solves_are_the_same_in_tiny_blocks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # case II past its horizon
            for case, method in itertools.product(["I", "II"], ["full", "cuts"]):
                problem = example1_problem(case, r_points=11, j_steps=32)
                want = solve_first_order(problem, method)
                with block_rows(3) as calls:
                    got = solve_first_order(problem, method)
                assert calls
                for name in ("us", "Js", "rs", "lower", "upper", "validity"):
                    assert same_bytes(getattr(got, name), getattr(want, name))


# ---------------------------------------------------------------------------
# blocked Koch refinement and length binning


def ref_koch_refiner(curve):
    """_koch_refiner as one whole-curve pass; it refines with itself."""
    p = curve.points[:-1]
    q = curve.points[1:]
    d = q - p
    a = p + d / 3.0
    c = p + 2.0 * d / 3.0
    b = a + (d / 3.0) @ fractal_curve._KOCH_ROT.T
    m = p.shape[0]
    out = np.empty((4 * m + 1, 2))
    out[0:-1:4] = p
    out[1::4] = a
    out[2::4] = b
    out[3::4] = c
    out[-1] = curve.points[-1]
    return FractalCurve(
        fractal_curve._refine_params(curve.params, 4),
        out,
        refiner=ref_koch_refiner,
        level=curve.level + 1,
    )


def ref_length_bins(points):
    """Distinct lengths and counts of all segments, in one np.unique."""
    return np.unique(ref_segment_lengths(points), return_counts=True)


def same_refinements(curve, level):
    """Refine ``curve`` (with _koch_refiner) and a copy with the one-pass
    reference side by side up to ``level``; every level's params and points
    must have the same bytes."""
    ref = FractalCurve(curve.params, curve.points, refiner=ref_koch_refiner, level=curve.level)
    for got in fractal_curve._refinements(curve, level):
        assert got.level == ref.level
        assert same_bytes(got.params, ref.params) and same_bytes(got.points, ref.points)
        if got.level < level:
            ref = ref.refine()


def same_bins(curve, a, b):
    """Bin the curve's own level over [a, b], which _fitted_bins takes from
    the whole-level blocks of _level_lengths, and require the bytes of one
    np.unique of the reference lengths."""
    (got,) = fractal_curve._fitted_bins(curve, a, b, curve.level, curve.level)
    want = ref_length_bins(ref_sub_polyline_points(curve, a, b))
    assert len(got) == 2 and got[1].dtype == np.int64
    assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


def polyline_of(points):
    """The points as a polyline over [0, m - 1], and its two ends."""
    curve = fractal_curve.generate_polyline(np.arange(points.shape[0], dtype=float), points)
    return curve, curve.a0, curve.b0


# three unequal segments: 3 * 4**7 segments at level 7 are one and a half blocks
THREE = FractalCurve(
    np.array([0.0, 0.2, 0.7, 1.0]),
    np.array([[0.0, 0.0], [0.3, 0.4], [0.8, -0.2], [1.0, 0.0]]),
    refiner=fractal_curve._koch_refiner,
)
STEP = fuzzy_core._block_rows(2)


@st.composite
def lattice_polylines(draw):
    """Points on a small integer grid, so equal lengths recur in every block."""
    m = draw(st.integers(2, 60))
    side = draw(st.integers(1, 4))
    return np.array(draw(st.lists(st.tuples(*[st.integers(0, side)] * 2), min_size=m, max_size=m)), float)


class TestBlockedKoch:
    def test_standard_koch_is_bit_equal_through_level_10(self):
        same_refinements(generate_koch(0), 10)

    def test_a_partial_last_block_is_bit_equal(self):
        assert THREE.refined_to(7).n_segments == STEP + STEP // 2
        with block_rows(None) as calls:
            same_refinements(THREE, 8)
        assert calls  # the refiner took its block size from the shared rule

    @pytest.mark.parametrize("segments", [1, 2, 3, STEP - 1, STEP, STEP + 1, STEP + 2, 2 * STEP + 1])
    def test_a_lone_last_row_is_bit_equal(self, segments):
        # a single row is multiplied by a vector kernel; the refiner never
        # leaves one in a block of its own unless it is the whole curve
        rng = np.random.default_rng(segments)
        points = np.cumsum(rng.standard_normal((segments + 1, 2)), axis=0)
        params = np.arange(segments + 1.0)
        same_refinements(FractalCurve(params, points, refiner=fractal_curve._koch_refiner), 1)

    def test_lone_rows_are_bit_equal_in_small_blocks(self):
        # three segments in blocks of two would leave a lone last row; about
        # half of all rows round differently through the vector kernel, so
        # one of 64 curves all but surely shows a lone row that slipped through
        rng = np.random.default_rng(0)
        with block_rows(2) as calls:
            for _ in range(64):
                points = np.cumsum(rng.standard_normal((4, 2)), axis=0)
                curve = FractalCurve(np.arange(4.0), points, refiner=fractal_curve._koch_refiner)
                same_refinements(curve, 2)
        assert calls == [2] * 128

    # blocks of two rows or more: numpy multiplies a lone row by a vector
    # kernel, which rounds unlike the matrix kernel of a whole-curve pass
    @given(polylines(columns=st.just(2)), st.integers(1, 3), st.sampled_from([None, 2, 3, 5]))
    @settings(max_examples=150, deadline=None)
    def test_polylines_are_bit_equal_in_any_blocks(self, polyline, levels, rows):
        params, points = polyline
        curve = FractalCurve(params, points, refiner=fractal_curve._koch_refiner)
        with block_rows(rows) as calls:
            same_refinements(curve, levels)
        assert calls


class TestBlockedBins:
    @pytest.mark.parametrize("level", range(7, 11))
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.25, 0.75), (0.123456, 0.654321)])
    def test_koch(self, level, interval):
        same_bins(generate_koch(level), *interval)

    @pytest.mark.parametrize(
        "curve, level", [(UNEQUAL, 8), (UNEQUAL, 11), (JITTERED, 14), (JITTERED, 16)]
    )
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (1 / 3, 0.9), (0.5, 1.0)])
    def test_unequal_and_distinct_lengths(self, curve, level, interval):
        same_bins(curve.refined_to(level), *interval)

    @pytest.mark.parametrize("source", ["koch", "jittered"])
    @pytest.mark.parametrize("extra", [-1, 0, 1, STEP - 1, STEP, STEP + 1])
    def test_one_block_and_one_more_length(self, source, extra):
        points = (generate_koch(9) if source == "koch" else JITTERED.refined_to(17)).points
        curve, a, b = polyline_of(points[: STEP + 1 + extra])  # STEP + extra lengths
        same_bins(curve, a, b)
        squared = mock.patch.object(
            fractal_curve, "_squared_distances", wraps=fractal_curve._squared_distances
        )
        with squared as blocks:
            own_level_lengths(curve, a, b)
        sizes = [len(call.args[0]) for call in blocks.call_args_list]
        total = STEP + extra
        assert sizes == [min(STEP, total - i) for i in range(0, total, STEP)]

    @given(lattice_polylines(), BLOCK_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_small_blocks_merge_exactly(self, points, rows):
        with block_rows(rows) as calls:
            same_bins(*polyline_of(points))
        assert calls == [2]

    def test_gamma_dimension_reads_the_ratio_without_refining(self):
        with block_rows(None) as calls, counting_refines() as refine:
            gamma_dimension(generate_koch(0), max_level=8)
        # the block size of 2-column rows is read once, for the base
        # lengths; levels 5 to 8 follow from them and the Koch ratio
        assert calls == [2]
        assert refine.call_count == 0


# ---------------------------------------------------------------------------
# the levels below a built-in curve's own, the blocked staircase and its CSV


def fitted_outcome(fn, *args):
    """The bins of each level a call returned, by bytes, or the
    ValidationError it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the refinement
        try:
            found = fn(*args)
        except ValidationError as exc:
            return ("error", str(exc))
    return ("bins", [(array_key(values), array_key(counts)) for values, counts in found])


def ref_fitted_bins(curve, a, b, keep_from, max_level):
    """The bins of each level keep_from..max_level, from its whole vertex array."""
    return [
        ref_length_bins(ref_sub_polyline_points(curve.refined_to(level), a, b))
        for level in range(keep_from, max_level + 1)
    ]


def counting_refines():
    return mock.patch.object(FractalCurve, "refine", autospec=True, side_effect=FractalCurve.refine)


def ref_reads_ratio(curve, a, b, last):
    """Whether the levels below a curve's own, down to ``last``, are read
    from its built-in refiner's ratio over [a, b]: the params are vouched
    for, every coordinate is below 2**500, and each level-``last`` piece of
    a segment over [a, b] is a point or spans 2**20 spacings of the largest
    coordinate."""
    builtin = fractal_curve._builtin(curve)
    top = float(np.abs(curve.points).max())
    if not (
        builtin is not None
        and last > curve.level
        and fractal_curve._refines_cleanly(curve.params, builtin.splits, last - curve.level)
        and top < 2.0**500
    ):
        return False
    t = curve.params
    first = int(np.searchsorted(t, a, side="right")) - 1
    after = int(np.searchsorted(t, b, side="left")) + 1
    base = ref_segment_lengths(curve.points[first:after])
    pieces = base[base > 0.0] / builtin.divisor ** (last - curve.level)
    return bool(np.all(pieces >= 2.0**20 * np.spacing(top)))


def whole_refines(curve, a, b, last):
    """The refine() calls on the way to level ``last``: none where the
    ratio is read over [a, b]; otherwise one per level, up to the first
    that refine() refuses."""
    if ref_reads_ratio(curve, a, b, last):
        return 0
    calls, cur = 0, curve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        while cur.level < last:
            calls += 1
            try:
                cur = cur.refine()
            except ValidationError:
                break
    return calls


def ref_scaled_bins(curve, a, b, level):
    """The level ``level`` below a built-in curve's own by the ratio rule, as
    (values, counts) in the library's order: the length of each base
    segment, from ref_segment_lengths, over divisor**d, with the count of
    its level-d pieces whole inside [a, b] in Python ints (none if 0); then
    the end pieces, the first and last of ref_sub_polyline_lengths on the
    refined curve, once each."""
    builtin = fractal_curve._builtin(curve)
    d = level - curve.level
    n, t = builtin.splits**d, curve.params
    refined = curve.refined_to(level)
    pieces = ref_sub_polyline_lengths(refined, a, b)
    first = int(np.searchsorted(refined.params, a, side="right")) - 1
    whole, ends = range(first, first + pieces.size), []
    if not (a == t[0] and b == t[-1]):
        whole, ends = whole[1:-1], [pieces[0]] if pieces.size == 1 else [pieces[0], pieces[-1]]
    base = ref_segment_lengths(curve.points)
    values, counts = [], []
    for i in range(curve.n_segments):
        k = len(range(max(i * n, whole.start), min((i + 1) * n, whole.stop)))
        if k:
            values.append(base[i] / builtin.divisor**d)
            counts.append(k)
    return np.array(values + ends), np.array(counts + [1] * len(ends), dtype=np.int64)


def ref_rule_levels(curve, a, b, keep_from, max_level):
    """(values, counts) of each level keep_from..max_level: a level below a
    built-in curve's own from ref_scaled_bins where the ratio is read, and
    every other level from its refined vertices, each length once (counts
    None)."""
    ratio = ref_reads_ratio(curve, a, b, max_level)
    return [
        ref_scaled_bins(curve, a, b, level)
        if ratio and level > curve.level
        else (ref_sub_polyline_lengths(curve.refined_to(level), a, b), None)
        for level in range(keep_from, max_level + 1)
    ]


def ref_rule_bins(curve, a, b, keep_from, max_level):
    """The distinct lengths and their counts on each level of
    ref_rule_levels: one np.unique of a level read from vertices, and an
    exact merge in Python ints of a scaled one."""
    bins = []
    for values, counts in ref_rule_levels(curve, a, b, keep_from, max_level):
        if counts is None:
            bins.append(np.unique(values, return_counts=True))
            continue
        merged = collections.Counter()
        for value, k in zip(values.tolist(), counts.tolist()):
            merged[value] += k
        keys = sorted(merged)
        bins.append((np.array(keys), np.array([merged[v] for v in keys], dtype=np.int64)))
    return bins


def ref_mass_levels(curve, alpha, a, b, top):
    """(level, order-alpha mass) of every level of the curve up to ``top``,
    each from one np.sum over its reference lengths."""
    return [
        (level, float(np.sum(ref_sub_polyline_lengths(curve.refined_to(level), a, b) ** alpha)
                      / math.gamma(alpha + 1.0)))
        for level in range(curve.level, top + 1)
    ]


def ref_rule_mass(curve, alpha, a, b, top):
    """(level, order-alpha mass) of every level of ref_rule_levels up to
    ``top``, each one np.sum of length**alpha times its count."""
    levels = ref_rule_levels(curve, a, b, curve.level, top)
    return [
        (level, float(np.sum(values**alpha * (1 if counts is None else counts))
                      / math.gamma(alpha + 1.0)))
        for level, (values, counts) in enumerate(levels, curve.level)
    ]


def near(got, want, rel=1e-12):
    """Level sums within ``rel`` of the geometric reference's, relative."""
    return len(got) == len(want) and all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


def bin_sums(bins, alpha):
    return [math.fsum((counts * values**alpha).tolist()) for values, counts in bins]


def same_fitted_bins(curve, interval, rows, keep_from, max_level):
    """Bin the levels keep_from..max_level of a curve with a built-in
    refiner, with ``rows`` segments per block, and require the bins of
    ref_rule_bins on every level, or refine()'s error. refine() runs only
    where the ratio is not read (see whole_refines), and each level's sums
    are within 1e-12 of those over its refined vertices."""
    want = fitted_outcome(ref_rule_bins, curve, *interval, keep_from, max_level)
    whole = whole_refines(curve, *interval, max_level)
    with block_rows(rows), counting_refines() as refine:
        got = fitted_outcome(fractal_curve._fitted_bins, curve, *interval, keep_from, max_level)
    assert refine.call_count == whole
    assert got == want
    if got[0] == "bins":
        bins = ref_rule_bins(curve, *interval, keep_from, max_level)
        geometric = ref_fitted_bins(curve, *interval, keep_from, max_level)
        for alpha in (1.0, min(KOCH_DIM, curve.ndim)):
            assert near(bin_sums(bins, alpha), bin_sums(geometric, alpha))
    return got


def ref_staircase_to_csv(table, target):
    """``staircase_to_csv`` as it was: the whole table in one format."""
    fractal_curve.write_csv(target, "u,J", fractal_curve.format_columns(table.us, table.Js))


# block sizes of the levels read from points, and of the refinements where
# the ratio is not read
WALK_ROWS = st.sampled_from([None, 2, 64, 512])
# THREE from 3 to 192 segments; segments from 1 to 64 pieces, in 2 and 3 columns
STREAMED = [THREE.refined_to(k) for k in (0, 1, 3)] + SEGMENTS
OVERFLOWING = {
    # the fifth segment's difference overflows, in the last of two blocks
    "koch": FractalCurve(
        np.arange(6.0),
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [1e308, 0.0], [-1e308, 0.0]]),
        refiner=fractal_curve._koch_refiner,
    ),
    # the midpoint of the last segment overflows
    "segment": FractalCurve(
        np.arange(6.0),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [2.0, 0.0, 0.0], [3.0, 1.0, 0.0],
                  [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]),
        refiner=fractal_curve._midpoint_refiner,
    ),
    # finite through level 1; the sum of a level-2 segment's ends overflows
    "segment_deeper": FractalCurve(
        np.arange(3.0),
        np.array([[0.0, 0.0], [1.2e308, 0.0], [5e306, 0.0]]),
        refiner=fractal_curve._midpoint_refiner,
    ),
}


@st.composite
def close_params(draw, splits=4, levels=1):
    """Increasing params a few spacings of their largest end apart: near 0,
    near 1, near the smallest normals and near half the largest float. The
    steps reach a little past the margin that ``levels`` refinements into
    ``splits`` pieces need."""
    base = draw(st.sampled_from([0.0, 1.0, -1.0, 2.0**-1021, 1e300, -1e300, 8.98e307]))
    unit = float(np.spacing(max(abs(base), 2.0**-1021)))
    steps = draw(st.lists(st.integers(1, 80 * splits ** (levels - 1)), min_size=1, max_size=6))
    return base + unit * np.concatenate([[0.0], np.cumsum(steps)])


class TestStreamedLevel:
    @given(polylines(columns=st.just(2)), st.integers(0, 2), st.integers(2, 4), WALK_ROWS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_koch_polylines_bin_as_the_reference(self, polyline, level, fit, rows, data):
        params, points = polyline
        curve = FractalCurve(params, points, refiner=fractal_curve._koch_refiner).refined_to(level)
        interval = data.draw(sub_intervals(curve.refine().params))
        same_fitted_bins(curve, interval, rows, level + 1, level + fit)

    @given(polylines(columns=st.integers(1, 3)), st.integers(0, 2), st.integers(2, 5), WALK_ROWS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_midpoint_polylines_bin_as_the_reference(self, polyline, level, fit, rows, data):
        params, points = polyline
        curve = FractalCurve(params, points, refiner=fractal_curve._midpoint_refiner).refined_to(level)
        interval = data.draw(sub_intervals(curve.refine().params))
        same_fitted_bins(curve, interval, rows, level + 1, level + fit)

    @given(st.sampled_from(STREAMED), st.integers(2, 5), st.booleans(), WALK_ROWS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_koch_and_midpoint_curves_bin_as_the_reference(self, curve, fit, own, rows, data):
        # own: the curve's own level is the first fitted level
        keep_from = curve.level + (0 if own else 1)
        max_level = min(keep_from + fit - 1, curve.level + 4)
        interval = data.draw(sub_intervals(curve.refine().params))
        same_fitted_bins(curve, interval, rows, keep_from, max_level)

    @given(st.sampled_from(STREAMED), st.sampled_from([1.0, KOCH_DIM, 1.7]), WALK_ROWS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_mass_levels_are_bit_equal_in_any_blocks(self, curve, alpha, rows, data):
        # the curve's own level is read in segment order into one array, so
        # np.sum adds it as it adds the reference's; the levels below it are
        # the rule's, near those of the refined vertices
        a, b = data.draw(sub_intervals(curve.refine().params))
        want = ref_rule_mass(curve, alpha, a, b, curve.level + 2)
        with block_rows(rows), counting_refines() as refine:
            got = mass_function(curve, alpha, a, b, max_level=curve.level + 2).levels
        assert got == want
        assert refine.call_count == 0
        geometric = ref_mass_levels(curve, alpha, a, b, curve.level + 2)
        assert got[0] == geometric[0]
        assert near([m for _, m in got], [m for _, m in geometric])

    @pytest.mark.parametrize("fit", [2, 5])
    @pytest.mark.parametrize(
        "interval", [(0.0, 1.0), (0.25, 0.75), (0.123456, 0.654321), (0.2, 0.7)]
    )
    def test_partial_last_blocks_bin_as_the_reference(self, fit, interval):
        # 3 * 4**4 level-4 segments: one and a half blocks of 2**9, and many
        # of 64; the deepest level has 3 * 4**8 segments
        for rows in (None, 64, 2**9):
            same_fitted_bins(THREE.refined_to(4), interval, rows, 9 - fit, 8)

    @pytest.mark.parametrize("fit", [2, 3, 5])
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.25, 0.75), (0.123456, 0.654321)])
    def test_koch_fits_bin_as_the_reference(self, fit, interval):
        same_fitted_bins(generate_koch(0), interval, 2**9, 8 - fit, 7)

    @pytest.mark.parametrize("own", [False, True])
    @pytest.mark.parametrize("kind", sorted(OVERFLOWING))
    @pytest.mark.parametrize("share", [(0.0, 1.0), (0.1, 0.5), (0.84, 0.94), (0.04, 0.06)])
    def test_an_overflowing_level_is_refused_as_by_refine(self, own, kind, share):
        # coordinates past 2**500 send every level through refine(), which
        # checks every point, also those outside the interval
        curve = OVERFLOWING[kind]
        interval = (share[0] * curve.b0, share[1] * curve.b0)
        got = same_fitted_bins(curve, interval, 2, 0 if own else 1, 2)
        assert got == ("error", "points must be a finite (m, n) array with n >= 1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValidationError, match=re.escape(got[1])):
                gamma_dimension(curve, *interval, max_level=2, fit_levels=3 if own else 2)

    @pytest.mark.parametrize(
        "curve, refines",
        [(generate_koch(0), 0), (generate_segment(), 0), (UNEQUAL, 6), (JITTERED, 6)],
        ids=["koch", "segment", "unequal", "jittered"],
    )
    def test_only_builtin_refiners_read_the_ratio(self, curve, refines):
        # a built-in refiner's levels come from its ratio, with no refine();
        # a user refiner refines every level whole
        with counting_refines() as refine:
            got = gamma_dimension(curve, max_level=6, fit_levels=3)
        assert refine.call_count == refines
        assert ("float", got.hex()) == same_bisection(curve, (None, None), 0.01, 6, 3)

    @pytest.mark.parametrize("gap", [2.0**-49, 2.0**-45], ids=["refused", "accepted"])
    def test_params_too_close_to_vouch_for_go_through_refine(self, gap):
        # level 1 has a segment of gap / 4; quartered again, 2**-53 rounds
        # onto 1.0 and refine() refuses the params, 2**-49 does not
        curve = FractalCurve(
            np.array([0.0, 1.0, 1.0 + gap]),
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]),
            refiner=fractal_curve._koch_refiner,
        ).refine()
        assert not fractal_curve._refines_cleanly(curve.params, 4, 1)
        interval = (0.3, curve.b0)
        want = fitted_outcome(ref_fitted_bins, curve, *interval, 2, 2)
        # the ratio is read only where refine() is sure to accept level 2
        with block_rows(2), counting_refines() as refine:
            assert fitted_outcome(fractal_curve._fitted_bins, curve, *interval, 2, 2) == want
        assert refine.call_count == 1
        assert (want[0] == "error") == (gap == 2.0**-49)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_params_vouched_for_fewer_levels_go_through_refine(self, depth):
        # the shortest segment is 40 spacings of the largest end: one
        # quartering is vouched for, and its level is read from the ratio;
        # two or more are not, and then every level is refined whole, as the
        # reference refines it
        curve = FractalCurve(
            np.array([0.0, 1.0, 1.0 + 40 * float(np.spacing(2.0)), 2.0]),
            np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [2.0, 0.0]]),
            refiner=fractal_curve._koch_refiner,
        )
        assert fractal_curve._refines_cleanly(curve.params, 4, depth) == (depth == 1)
        interval = (0.3, 1.7)
        want = fitted_outcome(ref_rule_bins, curve, *interval, 1, depth)
        with block_rows(2), counting_refines() as refine:
            assert fitted_outcome(fractal_curve._fitted_bins, curve, *interval, 1, depth) == want
        assert refine.call_count == (0 if depth == 1 else depth)

    @pytest.mark.parametrize("levels", range(1, 6))
    @pytest.mark.parametrize("kind", ["koch", "segment"])
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_params_vouched_for_refine_cleanly(self, kind, levels, data):
        builtin = next(v for v in fractal_curve._LEVEL_CAPS.values() if v.name == kind)
        t = data.draw(close_params(builtin.splits, levels))
        if fractal_curve._refines_cleanly(t, builtin.splits, levels):
            for _ in range(levels):
                t = builtin.params(t)
                assert np.isfinite(t).all() and (t[1:] > t[:-1]).all()

    @pytest.mark.parametrize("levels", range(1, 6))
    @pytest.mark.parametrize("splits", [2, 4])
    def test_the_vouching_rule_accepts_and_refuses_close_params(self, splits, levels):
        unit = float(np.spacing(1.0))
        margin = 32 * splits ** (levels - 1)
        ok = 1.0 + unit * np.array([0.0, margin + 1, 3 * margin])
        close = 1.0 + unit * np.array([0.0, margin, 3 * margin])
        assert fractal_curve._refines_cleanly(ok, splits, levels)
        assert not fractal_curve._refines_cleanly(close, splits, levels)
        assert not fractal_curve._refines_cleanly(np.array([-1e308, 1e308]), splits, levels)

    @given(polylines(), st.floats(min_value=0.0, max_value=1.0), BLOCK_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_staircase_is_bit_equal_in_any_blocks(self, polyline, t, rows):
        params, points = polyline
        curve = fractal_curve.generate_polyline(params, points)
        alpha = 1.0 + t * (curve.ndim - 1)
        for p0 in anchors(params):
            want = staircase_outcome(reference_table, curve, alpha, p0)
            with block_rows(rows) as calls:
                assert staircase_outcome(build_staircase, curve, alpha, p0) == want
            assert calls == [1]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("curve", KOCHS[:6] + SEGMENTS[-2:], ids=lambda c: f"{c.ndim}d_level{c.level}")
    def test_refined_staircases_are_bit_equal_in_small_blocks(self, curve, rows):
        for p0 in anchors(curve.params):
            us, Js = ref_build_staircase(curve, KOCH_DIM, p0)
            with block_rows(rows):
                got = build_staircase(curve, KOCH_DIM, p0)
            assert same_bytes(got.us, us) and same_bytes(got.Js, Js)

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_staircase_csv_bytes_are_the_same(self, rows, level):
        table = build_staircase(generate_koch(level), KOCH_DIM, 0.5)
        want = io.StringIO()
        ref_staircase_to_csv(table, want)
        got = io.StringIO()
        with block_rows(rows) as calls:
            fractal_curve.staircase_to_csv(table, got)
        assert got.getvalue() == want.getvalue()
        assert calls == [2]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_curve_csv_bytes_are_the_same(self, rows, tmp_path, capsys):
        # the bytes of one format of the whole vertex table, in any blocks; a
        # block of one row refines unlike the whole level, so the curve that
        # the command writes is refined in the same blocks as this one
        with block_rows(rows) as calls:
            curve = generate_koch(3)
            want = "u,x,y\n" + fractal_curve.format_columns(curve.params, curve.points)
            assert cli.main(["curve", "--level", "3", "--out", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").read_text(encoding="utf-8") == want
        assert calls[-1] == 3  # the CSV pass ran blocked, over u, x and y


class TestRatioRule:
    """The levels below a built-in curve's own follow from its refiner's
    ratio, with no refine() call, wherever refine() would accept every one
    of them. Any other curve refines every level whole through refine(),
    once per level, up to the first that refine() refuses."""

    @pytest.mark.parametrize(
        "curve",
        [generate_koch(0), generate_koch(2), generate_segment(), THREE, SEGMENTS[-1]],
        ids=["koch0", "koch2", "segment", "three", "segment3d"],
    )
    # (0.505, 0.51) lies inside one segment of the curve's own level; 0.25
    # and 0.5 are vertices of koch and segment from level 2 on
    @pytest.mark.parametrize(
        "share",
        [(0.0, 1.0), (0.25, 0.75), (0.123456, 0.654321), (0.505, 0.51), (0.25, 0.5), (0.0, 0.5),
         (0.5, 1.0)],
    )
    def test_builtin_curves_refine_nothing(self, curve, share):
        last = curve.level + 4
        a, b = (curve.a0 + x * (curve.b0 - curve.a0) for x in share)
        with counting_refines() as refine:
            got = fitted_outcome(fractal_curve._fitted_bins, curve, a, b, curve.level, last)
            masses = [mass_function(curve, alpha, a, b, last).levels for alpha in (1.0, 1.5)]
        assert refine.call_count == 0
        assert got == fitted_outcome(ref_rule_bins, curve, a, b, curve.level, last)
        for alpha, levels in zip((1.0, 1.5), masses):
            assert levels == ref_rule_mass(curve, alpha, a, b, last)

    def test_a_curve_of_one_segment_steps_down_as_one_row(self):
        # numpy multiplies the lone row of a one-segment curve by a vector
        # kernel, which rounds this Koch apex unlike a two-row block
        curve = FractalCurve(
            np.array([1.0, 2.0]),
            np.array([[0.0, 0.03125], [1.0, 0.0]]),
            refiner=fractal_curve._koch_refiner,
        )
        same_fitted_bins(curve, (1.0, 1.5), None, 1, 2)

    @pytest.mark.parametrize("interval", [(1.0, 2.0), (1.2, 1.7), (1.5, 2.0)])
    def test_a_segment_below_its_coordinates_rounding_goes_through_refine(self, interval):
        # refine() rounds this Koch apex onto y = 1 and gives the level-1
        # pieces l/3, l/6, l/6, l/3, where the ratio would read 4 x l/3
        curve = FractalCurve(
            np.array([1.0, 2.0]),
            np.array([[0.0, 1.0], [4.3399149e-57, 1.0]]),
            refiner=fractal_curve._koch_refiner,
        )
        l = float(curve.points[1, 0])
        assert near(ref_segment_lengths(curve.refine().points).tolist(), [l / 3, l / 6, l / 6, l / 3])
        got = same_fitted_bins(curve, interval, None, 1, 2)
        assert got == fitted_outcome(ref_fitted_bins, curve, *interval, 1, 2)
        with counting_refines() as refine:
            levels = mass_function(curve, KOCH_DIM, *interval, max_level=2).levels
        assert refine.call_count == 2
        assert levels == ref_mass_levels(curve, KOCH_DIM, *interval, 2)

    @pytest.mark.parametrize("under", [False, True], ids=["at", "under"])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("refiner", [fractal_curve._koch_refiner, fractal_curve._midpoint_refiner])
    def test_pieces_from_2_to_the_20_spacings_read_the_ratio(self, refiner, depth, under):
        # each level-depth piece of this segment is 2**-32, 2**20 spacings of
        # its largest coordinate 1; one float shorter, every level is refined
        divisor = next(v.divisor for k, v in fractal_curve._LEVEL_CAPS.items() if k is refiner)
        x = divisor**depth * 2.0**-32
        x = float(np.nextafter(x, 0.0)) if under else x
        curve = FractalCurve(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [x, 1.0]]), refiner=refiner)
        for interval in [(1.0, 2.0), (1.2, 1.7)]:
            assert ref_reads_ratio(curve, *interval, depth) is not under
            want = fitted_outcome(ref_rule_bins, curve, *interval, 1, depth)
            with counting_refines() as refine:
                got = fitted_outcome(fractal_curve._fitted_bins, curve, *interval, 1, depth)
            assert got == want
            assert refine.call_count == (depth if under else 0)

    def test_a_narrow_estimate_refines_nothing(self):
        curve = generate_koch(0)
        with counting_refines() as refine:
            got = gamma_dimension(curve, 0.5, 0.51, max_level=10)
        assert refine.call_count == 0
        assert ("float", got.hex()) == same_bisection(curve, (0.5, 0.51), 0.01, 10, 4)

    @pytest.mark.parametrize(
        "name, refines",
        [("unequal", 3), ("jittered", 3), ("unvouched", 3), ("koch_overflowing", 1),
         ("segment_overflowing", 1), ("segment_deeper_overflowing", 2)],
    )
    @pytest.mark.parametrize("share", [(0.0, 1.0), (0.1, 0.5), (0.84, 0.94)])
    def test_other_curves_refine_every_level(self, name, refines, share):
        curve = {
            "unequal": UNEQUAL,
            "jittered": JITTERED,
            # two quarterings of its shortest segment are not vouched for
            "unvouched": FractalCurve(
                np.array([0.0, 1.0, 1.0 + 40 * float(np.spacing(2.0)), 2.0]),
                np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [2.0, 0.0]]),
                refiner=fractal_curve._koch_refiner,
            ),
            **{f"{k}_overflowing": c for k, c in OVERFLOWING.items()},
        }[name]
        last = curve.level + 3
        a, b = (curve.a0 + x * (curve.b0 - curve.a0) for x in share)
        assert whole_refines(curve, a, b, last) == refines
        with counting_refines() as refine:
            got = fitted_outcome(fractal_curve._fitted_bins, curve, a, b, curve.level, last)
        assert refine.call_count == refines
        assert got == fitted_outcome(ref_fitted_bins, curve, a, b, curve.level, last)
        assert (got[0] == "error") == name.endswith("overflowing")

    @pytest.mark.parametrize("end, refines", [(np.nextafter(2.0**500, 0.0), 0), (2.0**500, 4)])
    def test_coordinates_from_2_to_the_500_go_through_refine(self, end, refines):
        # below the bound no refined point nor squared length can overflow
        curve = generate_segment((0.0, -end), (1.0, end))
        with counting_refines() as refine:
            got = mass_function(curve, 1.0, max_level=4)
        assert refine.call_count == refines
        assert got.levels == ref_rule_mass(curve, 1.0, curve.a0, curve.b0, 4)
        assert gamma_dimension(curve, max_level=4) == 1.0


# ---------------------------------------------------------------------------
# the per-number floor: the one-band shape test and scale, the scalar J_at,
# and overflow watched only where the operands' r = 0 ends call for it


def ref_per_array_scale_of(*arrays) -> float:
    """fuzzy_core._scale_of as it reduced each array on its own."""
    peaks = [float(abs(a).max()) if a.size else 0.0 for a in arrays]
    return max(1.0, *peaks) if all(map(math.isfinite, peaks)) else math.inf


# two levels, with -0.0 against 0.0 and each non-finite value at each end
TWO_LEVEL_BANDS = (
    np.array([[-0.0, 0.0], [0.0, -0.0], [np.nan, 0.0], [-np.inf, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
    np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [np.inf, 1.0], [0.0, np.nan]]),
)
ANY_BANDS = st.one_of(defective_bands(), ordered_band_tables(), block_tables())


@st.composite
def scale_operands(draw):
    """One to four arrays: rows and whole tables of the band strategies, and
    empty arrays among them."""
    lower, upper = draw(ANY_BANDS)
    pool = [lower, upper, *lower, *upper, np.empty(0), np.empty((0, 3))]
    return [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 4)))]


def scalar_outcome(fn, *args):
    """What a scalar lookup returned, as its type and bits, or what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except ValidationError as exc:
            return (type(exc), str(exc))
    return (type(value), value.hex())


def refusal(name):
    """A stand-in for ``name`` that fails the test when it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


class TestPerNumberFloor:
    @given(ANY_BANDS)
    @example(TWO_LEVEL_BANDS)
    @settings(max_examples=400, deadline=None)
    def test_one_band_order_test_matches_the_table_form(self, bands):
        lower, upper = bands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = np.concatenate((lower, upper[:, ::-1]), axis=1)
            table = fuzzy_core._ordered_path(paths)
            rows = [fuzzy_core._ordered_path(path) for path in paths]
        assert table.dtype == bool and all(isinstance(row, (bool, np.bool_)) for row in rows)
        assert [bool(row) for row in rows] == table.tolist()

    @given(scale_operands())
    @example([*TWO_LEVEL_BANDS, np.empty(0)])
    @example([np.empty(0)])
    @example([np.empty(0), np.array([-0.0])])
    @settings(max_examples=400, deadline=None)
    def test_scale_of_matches_the_per_array_form(self, arrays):
        # a number's scale is read from its one path-order row, which holds
        # every entry of its bands; here the row is the arrays laid end to end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fuzzy_core._scale_of(np.concatenate(arrays, axis=None))
        want = ref_per_array_scale_of(*arrays)
        assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("table", lookup_tables(), ids=["koch", "segment"])
    def test_scalar_J_at_matches_the_array_path(self, table):
        lo, hi = table.domain
        points = [
            lo, hi, -0.0, 0.25, 0.3, 0.5, lo + 0.37 * (hi - lo), float(table.us[7]),
            np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan, np.inf, -np.inf,
        ]
        for u in points:
            want = scalar_outcome(lambda x: float(J_at(table, np.array([x]))[0]), u)
            forms = [u, np.float64(u), np.array(u)]
            if math.isfinite(u) and u == int(u):
                forms.append(int(u))
            for x in forms:
                assert scalar_outcome(J_at, table, x) == want, (u, type(x))

    def test_scalar_J_at_skips_the_query_sort(self, monkeypatch):
        table = lookup_tables()[0]
        monkeypatch.setattr(fractal_curve, "_in_query_order", refusal("_in_query_order"))
        assert J_at(table, 0.3) == J_at(table, np.float64(0.3)) == ref_J_at(table, 0.3)

    def test_mutated_numbers_are_checked_again(self):
        # no verdict is kept on a number: each operation checks its result
        B = make_triangular(-0.5, 0.0, 0.5)
        for drop in (0.5, np.inf):
            A = make_triangular(-1.0, 0.0, 1.0)
            A.lowers[50] = A.lowers[49] - drop
            with pytest.raises(ValidationError):
                add(A, B)
            with pytest.raises(ValidationError):
                scale(2.0, A)
            if drop == np.inf:
                with pytest.raises(ValidationError):
                    hukuhara_diff(A, B)
            else:  # A - B loses monotonicity by more than rounding
                with pytest.raises(HukuharaNonexistenceError, match="lose monotonicity at r=0.5"):
                    hukuhara_diff(A, B)

    def test_common_path_takes_no_errstate(self, monkeypatch):
        A = make_triangular(-3.0, 0.0, 4.0)
        B = make_triangular(-1.0, 0.5, 1.5)
        far = make_triangular(-(2.0**1017), 0.0, 2.0**1017)  # r = 0 ends sum to 2**1019
        monkeypatch.setattr(np, "errstate", refusal("np.errstate"))
        twice = add(far, far)
        for number in (add(A, B), scale(-2.5, A), hukuhara_diff(A, B), scale(3.0, far), twice):
            assert number.rs is _DEFAULT_RS
        with pytest.raises(HukuharaNonexistenceError):
            hukuhara_diff(B, A)
        with pytest.raises(AssertionError, match="np.errstate called"):
            add(twice, twice)  # r = 0 ends sum to 2**1020: watched for overflow

    @pytest.mark.parametrize("peak", [1.0, 2.0**1017, 2.0**1019, 1e307, 8e307, 1.7e308])
    @pytest.mark.parametrize("lam", [0.5, -1.0, 2.0, -3.0, 1e10])
    def test_sums_and_multiples_near_overflow(self, peak, lam):
        # the result is the plain one, or, where that overflows, one error
        # naming the operation and its first such level; never a warning
        A = make_triangular(0.25 * peak, 0.5 * peak, peak)
        B = make_triangular(-peak, -0.75 * peak, 0.5 * peak)
        A_lo, A_up = (A.lowers, A.uppers) if lam >= 0.0 else (A.uppers, A.lowers)
        with np.errstate(over="ignore"):
            cases = [
                (add, (A, B), "fuzzy sum", "A + B", A.lowers + B.lowers, A.uppers + B.uppers),
                (add, (A, A), "fuzzy sum", "A + B", A.lowers + A.lowers, A.uppers + A.uppers),
                (scale, (lam, A), "scalar multiple", "lam * A", lam * A_lo, lam * A_up),
            ]
        for fn, args, what, expr, lo, up in cases:
            finite = np.isfinite(lo) & np.isfinite(up)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = fn(*args)
                except ValidationError as exc:
                    r = float(A.rs[np.argmin(finite)])
                    assert str(exc) == f"{what} overflows at r={r}: {expr} is not finite"
                    assert not finite.all()
                    continue
            assert finite.all()
            assert same_bytes(result.lowers, lo) and same_bytes(result.uppers, up)

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
    def test_non_finite_multiple_is_refused_as_before(self, lam):
        for A in (make_triangular(-1.0, 0.0, 2.0), make_crisp(0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="^(low|upp)ers must be a finite 1-d array$"):
                    scale(lam, A)

    @pytest.mark.parametrize("feet", [(0.0, 0.0, np.inf), (-np.inf, 0.0, 1.0), (-np.inf, -np.inf, 0.0),
                                      (0.0, np.inf, np.inf), (-np.inf, 0.0, np.inf)])
    def test_infinite_feet_are_refused_before_any_cut(self, feet):
        message = f"triangular feet/peak must be finite: {feet}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                make_triangular(*feet)
            assert str(exc.value) == message
            with pytest.raises(ValidationError, match="^triangular feet/peak must be finite"):
                TriangularFuzzy(*feet)
            f = triangular_field(
                lambda u: np.where(u > 0.5, feet[0], -1.0 + 0.0 * u),
                lambda u: np.where(u > 0.5, feet[1], 0.0 * u),
                lambda u: np.where(u > 0.5, feet[2], 1.0 + 0.0 * u),
                (0.0, 1.0),
            )
            with pytest.raises(ValidationError) as exc:
                f.bands(np.linspace(0.0, 1.0, 5))
            assert str(exc.value) == message

    def test_nan_feet_are_still_out_of_order(self):
        with pytest.raises(ValidationError, match=r"^triangular feet/peak out of order: \(nan, 0, 1\)$"):
            make_triangular(np.nan, 0, 1)


# ---------------------------------------------------------------------------
# numbers that own one path-order row: sums, differences, multiples and
# distances against the operations on two rows that they replaced


def ref_two_row_scale_of(*arrays) -> float:
    peak = float(np.abs(np.concatenate(arrays, axis=None)).max(initial=0.0))
    return max(1.0, peak) if peak < math.inf else math.inf


def ref_zero_cut_sum(alo, ahi, blo, bhi) -> float:
    return abs(alo.item(0)) + abs(ahi.item(0)) + abs(blo.item(0)) + abs(bhi.item(0))


def ref_refuse_overflow(rs, lo, up, what, expr) -> None:
    overflow = ~(np.isfinite(lo) & np.isfinite(up))
    if overflow.any():
        r = float(rs[np.argmax(overflow)])
        raise ValidationError(f"{what} overflows at r={r}: {expr} is not finite")


def ref_exactly_ordered(lowers, uppers) -> bool:
    path = np.concatenate((lowers, uppers[::-1]))
    return (
        np.count_nonzero(path[:-1] <= path[1:]) == path.size - 1
        and -math.inf < path.item(0)
        and path.item(-1) < math.inf
    )


def ref_two_row_make_triangular(a, b, c):
    if not (a <= b <= c):
        raise ValidationError(f"triangular feet/peak out of order: ({a}, {b}, {c})")
    if not (-math.inf < a and c < math.inf):
        raise ValidationError(f"triangular feet/peak must be finite: ({a}, {b}, {c})")
    return FuzzyNumber(_DEFAULT_RS, *fuzzy_core._triangular_cuts(a, b, c, _DEFAULT_RS))


def ref_two_row_add(A, B):
    rs, (alo, ahi), (blo, bhi) = ref_common_grid(A, B)
    if ref_zero_cut_sum(alo, ahi, blo, bhi) < fuzzy_core._NO_OVERFLOW:
        return FuzzyNumber(rs, alo + blo, ahi + bhi)
    with np.errstate(over="ignore"):
        lo, up = alo + blo, ahi + bhi
    ref_refuse_overflow(rs, lo, up, "fuzzy sum", "A + B")
    return FuzzyNumber(rs, lo, up)


def ref_two_row_scale(lam, A):
    lam = float(lam)
    lo, up = (A.lowers, A.uppers) if lam >= 0.0 else (A.uppers, A.lowers)
    if abs(lam) * (1.0 + abs(lo.item(0)) + abs(up.item(0))) < fuzzy_core._NO_OVERFLOW:
        return FuzzyNumber(A.rs, lam * lo, lam * up)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, up = lam * lo, lam * up
    if math.isfinite(lam):
        ref_refuse_overflow(A.rs, lo, up, "scalar multiple", "lam * A")
    return FuzzyNumber(A.rs, lo, up)


def ref_two_row_hausdorff_distance(A, B):
    _, (alo, ahi), (blo, bhi) = ref_common_grid(A, B)
    return float(np.max(np.maximum(np.abs(alo - blo), np.abs(ahi - bhi))))


def ref_two_row_hukuhara_diff(A, B):
    rs, (alo, ahi), (blo, bhi) = ref_common_grid(A, B)
    if ref_zero_cut_sum(alo, ahi, blo, bhi) < fuzzy_core._NO_OVERFLOW:
        clo = alo - blo
        chi = ahi - bhi
    else:
        with np.errstate(over="ignore"):
            clo = alo - blo
            chi = ahi - bhi
    if ref_exactly_ordered(clo, chi):
        return FuzzyNumber(rs, clo, chi)
    scale_ = ref_two_row_scale_of(clo, chi)
    if scale_ == math.inf:
        ref_refuse_overflow(rs, clo, chi, "Hukuhara difference", "A - B")
    bad_lo, bad_up, bad_w = _band_defects(clo, chi, _SHAPE_TOL * scale_)
    if bad_w.any():
        r = float(rs[np.argmax(bad_w)])
        raise HukuharaNonexistenceError(
            f"difference not a fuzzy number: cut of the subtrahend wider at r={r}", failing_r=r
        )
    if bad_lo.any() or bad_up.any():
        r = float(rs[np.argmax(bad_lo | bad_up) + 1])
        raise HukuharaNonexistenceError(
            f"difference endpoints lose monotonicity at r={r}", failing_r=r
        )
    return FuzzyNumber(rs, clo, chi)


def bits(a) -> list:
    return np.ascontiguousarray(a).view(np.uint64).tolist()


def bit_outcome(fn, *args):
    """What a call returned, to the bit (signbit of zeros included), or what
    it raised, and the warnings it emitted on the way as the default filter
    shows them: each distinct one once (a distance whose two-row
    subtractions both overflowed warned twice from one line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except (ValidationError, HukuharaNonexistenceError, TypeError) as exc:
            value = (type(exc), str(exc), getattr(exc, "failing_r", None))
    if isinstance(value, FuzzyNumber):
        shared = value.rs is _DEFAULT_RS
        value = ("number", shared, bits(value.rs), bits(value.lowers), bits(value.uppers))
    elif isinstance(value, float):
        value = ("float", value.hex())
    return value, sorted({(w.category.__name__, str(w.message)) for w in caught})


OPERAND_PAIRS = st.one_of(shared_grid_pairs(), hukuhara_pairs())
MULTIPLES = st.one_of(
    st.sampled_from([2.5, 0.0, -0.0, -1.5, 1e10, -1e10, 1e300, -1e300, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestPathOrderNumbers:
    @given(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3))
    @example([Fraction(1, 3), Fraction(1, 2), 2])
    @example([np.float32(0.1), np.float32(0.2), np.float32(0.7)])
    @example([np.int64(-3), True, 7])
    @example([np.longdouble(1) / 3, np.longdouble(0.5), np.longdouble(2) / 3])
    @example([Decimal("0.5"), Decimal(1), Decimal(2)])  # refused with the same TypeError
    @example([-0.0, -0.0, -0.0])
    @example([-1.7e308, 0.0, 1.7e308])
    @settings(max_examples=300, deadline=None)
    def test_triangular_rows_match_the_two_row_cuts(self, feet):
        feet = sorted(feet)
        assert bit_outcome(make_triangular, *feet) == bit_outcome(ref_two_row_make_triangular, *feet)

    @given(OPERAND_PAIRS)
    @settings(max_examples=400, deadline=None)
    def test_sums_differences_and_distances_match_the_two_row_code(self, pair):
        A, B = pair
        for X, Y in ((A, B), (B, A), (A, A)):  # A + A overflows in the overflow draws
            assert bit_outcome(add, X, Y) == bit_outcome(ref_two_row_add, X, Y)
            assert bit_outcome(hukuhara_diff, X, Y) == bit_outcome(ref_two_row_hukuhara_diff, X, Y)
            assert bit_outcome(hausdorff_distance, X, Y) == bit_outcome(
                ref_two_row_hausdorff_distance, X, Y
            )

    @given(OPERAND_PAIRS, MULTIPLES)
    @example((make_crisp(-0.0), make_crisp(0.0)), -0.0)
    @example((make_triangular(-1e308, 0.0, 1.7e308), make_crisp(0.0)), -1.5)
    @settings(max_examples=400, deadline=None)
    def test_multiples_match_the_two_row_code(self, pair, lam):
        for X in pair:
            assert bit_outcome(scale, lam, X) == bit_outcome(ref_two_row_scale, lam, X)

    @pytest.mark.parametrize(
        "rs, x, message",
        [
            ([0.0, 0.5], 0.3, "the r-grid must include the levels 0 and 1"),
            ([[0.0, 1.0]], 0.3, "rs must be a finite 1-d array"),
            ([0.0, 0.7, 0.5, 1.0], 0.3, "rs must be strictly increasing with >= 2 levels"),
            ([0.0, 1.0], np.inf, "lowers must be a finite 1-d array"),
        ],
    )
    def test_a_crisp_number_on_its_own_grid_is_checked_as_by_the_constructor(self, rs, x, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_crisp(x, rs=rs)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FuzzyNumber(rs, np.full(np.shape(rs), x), np.full(np.shape(rs), x))

    def test_results_on_a_grid_changed_in_place_are_checked_again(self):
        A = make_triangular(-1.0, 0.0, 1.0, rs=np.linspace(0.0, 1.0, 5))
        A.rs[2] = 0.9  # the number's own grid is writable, and now out of order
        message = "^rs must be strictly increasing with >= 2 levels$"
        for operation in (lambda: add(A, A), lambda: scale(-2.0, A), lambda: hukuhara_diff(A, A)):
            with pytest.raises(ValidationError, match=message):
                operation()

    def test_default_grid_operations_never_concatenate(self, monkeypatch):
        A = make_triangular(-1.25, 0.5, 2.0)
        B = make_triangular(-0.75, 0.25, 1.0)
        table = build_staircase(generate_koch(6), KOCH_DIM)

        def field(spread):
            J = lambda u: J_at(table, u)  # noqa: E731
            return triangular_field(
                lambda u: 0.2 - spread(J(u)), lambda u: 0.2 + 0.0 * u, lambda u: 0.2 + spread(J(u)),
                table.domain,
            )

        widening, shrinking = field(lambda J: 0.5 + 0.3 * J), field(lambda J: 1.5 - 0.5 * J)
        monkeypatch.setattr(np, "concatenate", refusal("np.concatenate"))
        numbers = [
            make_triangular(-1.0, 0.0, 3.0),
            add(A, B),
            scale(2.5, A),
            scale(-1.5, A),
            hukuhara_diff(A, B),
            fractal_hukuhara_derivative(widening, table, 0.37, "I", h=3.0 / 4**6),
            fractal_hukuhara_derivative(shrinking, table, 0.37, "II", h=3.0 / 4**6),
        ]
        assert all(n.rs is _DEFAULT_RS for n in numbers)
        with pytest.raises(HukuharaNonexistenceError, match="subtrahend wider"):
            hukuhara_diff(B, A)
        with pytest.raises(CaseInapplicableError):
            fractal_hukuhara_derivative(widening, table, 0.37, "II", h=3.0 / 4**6)
        with pytest.raises(CaseInapplicableError):
            fractal_hukuhara_derivative(shrinking, table, 0.37, "I", h=3.0 / 4**6)
