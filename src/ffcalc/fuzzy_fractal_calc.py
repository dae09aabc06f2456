"""Fuzzy-valued calculus on a curve: continuity probes, Hukuhara-type
derivatives in both difference orderings, and the fuzzy Riemann integral
with staircase cell weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._textio import _check_tol, inside, one_of, per_point, point
from .errors import CaseInapplicableError, HukuharaNonexistenceError, ValidationError
from .fractal_calc import _cells, _increment, _step
from .fractal_curve import FractalCurve, StaircaseTable
from .fuzzy_core import (
    _DEFAULT_RS,
    _SHAPE_TOL,
    FuzzyNumber,
    _rejected_rows,
    _same_grid,
    _scale_of,
    _triangular_cuts,
    hausdorff_distance,
    hukuhara_diff,
    make_crisp,
    make_triangular,
    scale,
    validate,
)

__all__ = [
    "FuzzyCurveFunction",
    "ContinuityProbe",
    "ff_continuity_probe",
    "fractal_hukuhara_derivative",
    "ff_riemann_integral",
    "crisp_embedding",
    "triangular_field",
]


@dataclass(frozen=True)
class FuzzyCurveFunction:
    """Fuzzy-number-valued function of the curve parameter u."""

    evaluator: Callable[[float], FuzzyNumber]
    domain: tuple[float, float]

    def __call__(self, u: float) -> FuzzyNumber:
        value = self.evaluator(float(u))
        if not isinstance(value, FuzzyNumber):
            raise ValidationError("evaluator must return a FuzzyNumber")
        return value

    def bands(self, us) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values at the points ``us`` as one table ``(rs, lowers, uppers)``,
        with one row of shape ``rs.shape`` per point. Values on different
        level grids are resampled onto the union of their grids."""
        samples = [self(u) for u in us]
        rs = samples[0].rs
        same_grid = all(_same_grid(s.rs, rs) for s in samples[1:])
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
        return rs, lows, ups


@dataclass(frozen=True)
class _ArrayField(FuzzyCurveFunction):
    """Field built from real-valued functions that accept arrays of u.

    ``rows`` maps an array of u to the lower and upper rows of the values on
    the default level grid. Each row is bit-equal to the per-point value,
    and a point whose value the per-point route rejects raises its error.
    """

    rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def bands(self, us) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        us = np.asarray(us, dtype=float)
        if us.ndim != 1:
            raise ValidationError("bands takes a 1-d array of points")
        lowers, uppers = self.rows(us)
        return _DEFAULT_RS, lowers, uppers


def crisp_embedding(f, domain) -> FuzzyCurveFunction:
    """Lift a real-valued function to a zero-width fuzzy function on ``domain``.

    ``f`` must accept numpy arrays: :meth:`FuzzyCurveFunction.bands` calls
    it once on all its points.
    """

    def rows(us):
        x = per_point(f(us), us, "f")
        finite = np.isfinite(x)
        if not finite.all():
            make_crisp(float(x[np.argmin(finite)]))  # rejects the first such point
        lowers = np.repeat(x[:, None], _DEFAULT_RS.size, axis=1)
        return lowers, lowers.copy()

    return _ArrayField(
        lambda u: make_crisp(float(f(u))), (float(domain[0]), float(domain[1])), rows
    )


def triangular_field(f1, f2, f3, domain) -> FuzzyCurveFunction:
    """Fuzzy function whose value at u is the triangular number (f1(u), f2(u), f3(u)).

    f1, f2 and f3 must accept numpy arrays: :meth:`FuzzyCurveFunction.bands`
    calls each of them once on all its points.
    """
    def rows(us):
        a, b, c = per_point(f1(us), us, "f1"), per_point(f2(us), us, "f2"), per_point(f3(us), us, "f3")
        # make_triangular's cuts, one row per point; an infinite value makes
        # NaN entries (inf * 0, inf - inf), and such rows are rejected below
        with np.errstate(invalid="ignore"):
            lowers, uppers = _triangular_cuts(a[:, None], b[:, None], c[:, None], _DEFAULT_RS)
        bad = ~((a <= b) & (b <= c)) | _rejected_rows(lowers, uppers)
        if bad.any():
            i = int(np.argmax(bad))
            make_triangular(float(a[i]), float(b[i]), float(c[i]))  # rejects the first such point
        return lowers, uppers

    return _ArrayField(
        lambda u: make_triangular(float(f1(u)), float(f2(u)), float(f3(u))),
        (float(domain[0]), float(domain[1])),
        rows,
    )


@dataclass(frozen=True, eq=False)
class ContinuityProbe:
    """Distances d_H(f(u0 +- delta), f(u0)) for a shrinking family of deltas.

    ``left``/``right`` hold NaN where the probe would leave the domain.
    Continuity at tolerance means the per-delta suprema decay monotonically
    and finish below the tolerance.
    """

    u0: float
    deltas: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tol: float

    @property
    def sup(self) -> np.ndarray:
        return np.fmax(self.left, self.right)  # NaN only where neither side was probed

    @property
    def decaying(self) -> bool:
        s = self.sup
        return bool(np.all(np.diff(s) <= 1e-15 + 1e-12 * np.abs(s[:-1])))

    @property
    def continuous(self) -> bool:
        return self.decaying and bool(self.sup[-1] <= self.tol)


def ff_continuity_probe(f: FuzzyCurveFunction, u0: float, deltas, tol: float = 1e-6) -> ContinuityProbe:
    """Probe fuzzy continuity of f at u0 along a decreasing delta family;
    ``tol`` must be finite and non-negative. Each delta must keep at least
    one of u0 - delta and u0 + delta inside f's domain."""
    _check_tol(tol)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0 or not (deltas > 0.0).all():  # also false for NaN
        raise ValidationError("deltas must be a non-empty array of positive values")
    if np.any(np.diff(deltas) >= 0.0):
        raise ValidationError("deltas must be strictly decreasing")
    lo, hi = f.domain
    inside(u0, lo, hi, f"u0={u0}")
    nowhere = (u0 - deltas < lo) & (u0 + deltas > hi)  # the loop below samples neither side
    if nowhere.any():
        d = deltas[np.argmax(nowhere)]
        raise ValidationError(f"delta={d} leaves the domain [{lo}, {hi}] on both sides of u0={u0}")
    center = f(u0)
    left = np.full(deltas.shape, np.nan)
    right = np.full(deltas.shape, np.nan)
    for k, d in enumerate(deltas):
        if u0 - d >= lo:
            left[k] = hausdorff_distance(f(u0 - d), center)
        if u0 + d <= hi:
            right[k] = hausdorff_distance(f(u0 + d), center)
    return ContinuityProbe(u0=float(u0), deltas=deltas, left=left, right=right, tol=tol)


def fractal_hukuhara_derivative(
    f: FuzzyCurveFunction,
    table: StaircaseTable,
    u0: float,
    case: str,
    h: float | None = None,
) -> FuzzyNumber:
    """Forward Hukuhara difference quotient of f at u0 in the J coordinate.

    Case "I" uses f(u0 + h) - f(u0) and suits bands of non-decreasing
    width; case "II" uses f(u0) - f(u0 + h) over the reversed step and
    suits shrinking bands. Endpoint-wise, case I differentiates
    (lower, upper) in place while case II swaps them, so a case-II
    derivative of a valid shrinking band is again a valid fuzzy number.
    Inapplicability of the requested case raises
    :class:`CaseInapplicableError` naming the smallest failing level: the
    difference does not exist, or it exists only within the constructor's
    tolerance of its own scale and 1 / dJ magnifies a defect past the
    quotient's.
    """
    one_of(case, "case", ("I", "II"))
    u0 = point(u0, "parameter")
    h = _step(table, u0, h)
    dJ = _increment(table, u0, u0 + h, "forward stencil")
    f0 = f(u0)
    f1 = f(u0 + h)
    A, B, lam = (f1, f0, 1.0 / dJ) if case == "I" else (f0, f1, -1.0 / dJ)
    try:
        diff = hukuhara_diff(A, B)
    except HukuharaNonexistenceError as exc:
        raise _inapplicable(case, u0, exc.failing_r) from exc
    try:
        return scale(lam, diff)
    except ValidationError as exc:
        lo, up = (diff.lowers, diff.uppers) if lam >= 0.0 else (diff.uppers, diff.lowers)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 for an infinite lam
            lo, up = lam * lo, lam * up
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise  # the quotient overflows
        found = validate(diff.rs, lo, up, tol=_SHAPE_TOL * _scale_of(lo, up)).violations
        raise _inapplicable(case, u0, found[0].r) from exc


def _inapplicable(case: str, u0: float, r: float) -> CaseInapplicableError:
    return CaseInapplicableError(
        f"case {case} difference does not exist at u0={u0} (failing level r={r})",
        case=case,
        failing_r=r,
    )


def ff_riemann_integral(
    f: FuzzyCurveFunction,
    curve: FractalCurve,
    table: StaircaseTable,
    a: float | None = None,
    b: float | None = None,
    rule: str = "left",
) -> FuzzyNumber:
    """Fuzzy Riemann sum of dJ-weighted samples over the vertex subdivision.

    The defining sum evaluates f at the left knot of each cell; the
    ``midpoint`` rule is available for accuracy comparisons. Because every
    cell weight dJ is non-negative, the fuzzy sum equals the endpoint-wise
    crisp Riemann sums level by level, which is how it is computed: the
    field is evaluated once on all the nodes through
    :meth:`FuzzyCurveFunction.bands`, and the sum is one weighted reduction
    over that table.
    """
    one_of(rule, "rule", ("left", "midpoint"))
    knots, dJ = _cells(curve, table, a, b)
    nodes = knots[:-1] if rule == "left" else 0.5 * (knots[:-1] + knots[1:])

    rs, lows, ups = f.bands(nodes)
    w = dJ[:, None]
    return FuzzyNumber(rs, np.sum(w * lows, axis=0), np.sum(w * ups, axis=0))
