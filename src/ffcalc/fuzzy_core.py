"""Fuzzy numbers in parametric level-cut form.

A fuzzy number is stored as nested intervals [lower(r), upper(r)] on an
ordered grid of membership levels r in [0, 1]. Lower endpoints are
non-decreasing in r, upper endpoints non-increasing, and lower <= upper;
the r = 1 cut is the (nonempty) core. All arithmetic acts endpoint-wise
on the cuts, with operands on different grids resampled onto the union
grid first.

A number holds its band as one row in path order: the lowers by rising
level, then the uppers by falling level. In that form the shape rule reads:
the row never decreases. A row that never decreases and has finite ends is
accepted as it stands; any other row is measured for defects, and those up
to rounding scale are still accepted. Sums, differences and multiples act
on the rows, and a negative multiple's swap of lower and upper is the
reversal of the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._textio import _block_rows, _check_tol, count, inside, spec_array, spec_kind, spec_number
from .errors import HukuharaNonexistenceError, ValidationError

__all__ = [
    "DEFAULT_R_LEVELS",
    "default_r_grid",
    "Interval",
    "TriangularFuzzy",
    "FuzzyNumber",
    "make_triangular",
    "make_crisp",
    "add",
    "scale",
    "hausdorff_distance",
    "hukuhara_diff",
    "validate",
    "ValidationReport",
    "Violation",
    "fuzzy_from_json",
    "fuzzy_to_json",
]

DEFAULT_R_LEVELS = 101

# Constructors accept endpoint tables whose defects are at rounding scale;
# anything larger is a genuine shape violation and is rejected.
_SHAPE_TOL = 1e-9


def default_r_grid(n_levels: int = DEFAULT_R_LEVELS) -> np.ndarray:
    return np.linspace(0.0, 1.0, count(n_levels, "n_levels", 2))


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValidationError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class TriangularFuzzy:
    """Triangular fuzzy number (left foot, peak, right foot) with exact cuts."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and np.isfinite(self.c)):
            raise ValidationError(f"triangular feet/peak must be finite: ({self.a}, {self.b}, {self.c})")
        if not (self.a <= self.b <= self.c):
            raise ValidationError(f"triangular feet/peak out of order: ({self.a}, {self.b}, {self.c})")

    def r_cut(self, r: float) -> Interval:
        _check_cut_level(r)
        return Interval(*_triangular_cuts(self.a, self.b, self.c, r))

    def to_fuzzy(self, rs: np.ndarray | None = None) -> "FuzzyNumber":
        return make_triangular(self.a, self.b, self.c, rs=rs)


def _check_cut_level(r) -> None:
    """The one rule for the level of an r-cut: a scalar in [0, 1]."""
    inside(r, 0, 1, f"membership level {r}")
    if not np.isscalar(r):
        raise ValidationError(f"membership level must be a scalar, got {r!r}")


def _endpoint_table(rs, lowers, uppers):
    rs = np.asarray(rs, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    for name, arr in (("rs", rs), ("lowers", lowers), ("uppers", uppers)):
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be a finite 1-d array")
    if not (rs.size == lowers.size == uppers.size):
        raise ValidationError("rs, lowers and uppers must have equal length")
    _check_level_grid(rs)
    return rs, lowers, uppers


def _check_level_grid(rs: np.ndarray) -> None:
    """The rule every level grid obeys: strictly increasing from 0 to 1."""
    if rs.size < 2 or np.any(np.diff(rs) <= 0.0):
        raise ValidationError("rs must be strictly increasing with >= 2 levels")
    if rs[0] != 0.0 or rs[-1] != 1.0:
        raise ValidationError("the r-grid must include the levels 0 and 1")


# The r-grid of every number built without one of its own. It is a view of a
# bytes buffer, so it can never be made writeable; it passes the grid checks
# once, here, and FuzzyNumber skips them for this very array and no other.
_DEFAULT_RS = np.frombuffer(default_r_grid().tobytes())
_endpoint_table(_DEFAULT_RS, _DEFAULT_RS, _DEFAULT_RS)


def _default_grid_rows(rs, lowers, uppers) -> bool:
    """Whether rs is the shared default grid and both rows are float64 arrays
    of its shape, so that of _endpoint_table's checks only finiteness is left."""
    return (
        rs is _DEFAULT_RS
        and type(lowers) is type(uppers) is np.ndarray
        and lowers.dtype == uppers.dtype == rs.dtype
        and lowers.shape == uppers.shape == rs.shape
    )


def _path_row(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """A fresh row holding a band in path order: the lowers by rising level,
    then the uppers by falling level. In it the swap of the two bands is the
    reversal of the row."""
    n = lowers.size
    row = np.empty(2 * n)
    row[:n] = lowers
    row[n:] = uppers[::-1]
    return row


def _bands(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lowers and uppers of path-order rows (along the last axis), as
    views of them, with level k at index k of both."""
    n = rows.shape[-1] // 2
    return rows[..., :n], rows[..., : n - 1 : -1]


@dataclass(frozen=True, eq=False, init=False)
class FuzzyNumber:
    """Fuzzy number tabulated as nested level cuts [lowers[k], uppers[k]] at rs[k].

    The number owns its band as one float64 row in path order: the lowers
    by rising level, then the uppers by falling level. The constructor
    copies the given rows into it, and keeps ``rs`` as given (converted to
    a float array if need be). ``lowers`` and ``uppers`` are views of the
    row, so copies, deep copies and pickles keep them together; ``uppers``
    has a negative stride, and a caller that needs contiguous memory uses
    ``np.ascontiguousarray``. A write through either view changes the
    number, and the next operation on it checks the band again.
    """

    rs: np.ndarray
    _row: np.ndarray

    def __init__(self, rs, lowers, uppers):
        if not _default_grid_rows(rs, lowers, uppers):  # a grid of its own, or input to convert
            rs, lowers, uppers = _endpoint_table(rs, lowers, uppers)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "_row", _path_row(lowers, uppers))
        self.__post_init__()

    @classmethod
    def _of_path(cls, rs: np.ndarray, row: np.ndarray) -> "FuzzyNumber":
        """The number on the levels rs whose band is ``row``, a fresh
        path-order float64 row of 2 * rs.size entries that it takes over.
        A grid other than the shared one is checked as the constructor
        checks it."""
        self = object.__new__(cls)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "_row", row)
        if rs is not _DEFAULT_RS:
            _endpoint_table(rs, *_bands(row))
        self.__post_init__()
        return self

    def __post_init__(self):
        row = self._row
        if not _ordered_path(row):
            rs, (lowers, uppers) = self.rs, _bands(row)
            scale = _scale_of(row)
            if scale == math.inf:  # an entry on the shared grid is not finite
                _endpoint_table(rs, lowers, uppers)  # raises
            bad_lo, bad_up, bad_w = _band_defects(lowers, uppers, _SHAPE_TOL * scale)
            if bad_lo.any() or bad_up.any() or bad_w.any():
                v = _violations(rs, lowers, uppers, (bad_lo, bad_up, bad_w))[0]
                raise ValidationError(
                    f"not a valid fuzzy number: {v.condition} violated at r={v.r} "
                    f"by {v.magnitude:g}"
                )

    @property
    def lowers(self) -> np.ndarray:
        """Lower endpoints by rising level: a view of the number's row."""
        return _bands(self._row)[0]

    @property
    def uppers(self) -> np.ndarray:
        """Upper endpoints by rising level: a view of the number's row, with
        a negative stride."""
        return _bands(self._row)[1]

    @property
    def support(self) -> Interval:
        return self.r_cut(0.0)

    @property
    def core(self) -> Interval:
        return self.r_cut(1.0)

    @property
    def is_crisp(self) -> bool:
        return bool(np.all(self.lowers == self.uppers))

    def r_cut(self, r: float) -> Interval:
        _check_cut_level(r)
        lo = float(np.interp(r, self.rs, self.lowers))
        hi = float(np.interp(r, self.rs, self.uppers))
        if hi < lo:
            # sub-tolerance rounding inversion collapses to a point
            lo = hi = 0.5 * (lo + hi)
        return Interval(lo, hi)

    def cuts_at(self, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper endpoints interpolated at the given levels."""
        inside(rs, 0, 1, "membership levels")
        rs = np.asarray(rs, dtype=float)
        return np.interp(rs, self.rs, self.lowers), np.interp(rs, self.rs, self.uppers)

    def resample(self, rs: np.ndarray) -> "FuzzyNumber":
        rs = np.asarray(rs, dtype=float)
        if _same_grid(rs, self.rs):
            return self
        lo, hi = self.cuts_at(rs)
        return FuzzyNumber(rs, lo, hi)

    def data_equal(self, other: "FuzzyNumber") -> bool:
        return (
            np.array_equal(self.rs, other.rs)
            and np.array_equal(self.lowers, other.lowers)
            and np.array_equal(self.uppers, other.uppers)
        )

    def __add__(self, other):
        if isinstance(other, FuzzyNumber):
            return add(self, other)
        return NotImplemented

    def __rmul__(self, lam):
        if np.isscalar(lam):
            return scale(float(lam), self)
        return NotImplemented

    def __repr__(self):
        s, c = self.support, self.core
        return (
            f"FuzzyNumber(levels={self.rs.size}, support=[{s.lo:g}, {s.hi:g}], "
            f"core=[{c.lo:g}, {c.hi:g}])"
        )


def _scale_of(x: np.ndarray) -> float:
    """max(1, largest |entry| of x); inf when an entry is NaN or infinite."""
    peak = float(np.abs(x).max(initial=0.0))
    return max(1.0, peak) if peak < math.inf else math.inf  # NaN fails the test


def _level_linear(x: FuzzyNumber) -> bool:
    """Whether each endpoint row of x is the linear interpolation of its
    0-cut and 1-cut, within the constructor's tolerance."""
    band = np.stack([x.lowers, x.uppers])
    line = (1.0 - x.rs) * band[:, :1] + x.rs * band[:, -1:]
    return bool(np.all(np.abs(band - line) <= _SHAPE_TOL * _scale_of(band)))


# ---------------------------------------------------------------------------
# constructors


def make_triangular(a: float, b: float, c: float, rs: np.ndarray | None = None) -> FuzzyNumber:
    """Fuzzy number with cuts [a + (b-a) r, c - (c-b) r].

    Uses the convex-combination form so the r = 1 cut is exactly [b, b].
    """
    if not (a <= b <= c):
        raise ValidationError(f"triangular feet/peak out of order: ({a}, {b}, {c})")
    if not (-math.inf < a and c < math.inf):  # in order, so b is finite too
        raise ValidationError(f"triangular feet/peak must be finite: ({a}, {b}, {c})")
    rs = _DEFAULT_RS if rs is None else np.asarray(rs, dtype=float)
    if rs is not _DEFAULT_RS or not {type(a), type(b), type(c)} <= _FLOAT_FEET:
        # other feet (ints, Fractions, other dtypes) keep the arithmetic they define
        return FuzzyNumber(rs, *_triangular_cuts(a, b, c, rs))
    # _triangular_cuts written straight into the row: a (1 - r) + b r, c (1 - r) + b r
    n = rs.size
    row = np.empty(2 * n)
    np.multiply(a, _DEFAULT_FOOT, out=row[:n])
    np.multiply(c, _DEFAULT_FOOT[::-1], out=row[n:])
    row += b * _DEFAULT_RS_PATH
    return FuzzyNumber._of_path(rs, row)


# The feet that make_triangular writes straight into a float64 row.
_FLOAT_FEET = frozenset((float, np.float64))

# 1 - r on the shared grid, and the grid in path order, read-only for good
# as the grid itself is.
_DEFAULT_FOOT = np.frombuffer((1.0 - _DEFAULT_RS).tobytes())
_DEFAULT_RS_PATH = np.frombuffer(_path_row(_DEFAULT_RS, _DEFAULT_RS).tobytes())


def _triangular_cuts(a, b, c, rs):
    """Cuts [a (1 - r) + b r, c (1 - r) + b r] at the levels rs, broadcast over a, b, c."""
    foot, peak = _DEFAULT_FOOT if rs is _DEFAULT_RS else 1.0 - rs, b * rs
    return a * foot + peak, c * foot + peak


def make_crisp(x: float, rs: np.ndarray | None = None) -> FuzzyNumber:
    """Real number embedded as a zero-width fuzzy number."""
    rs = _DEFAULT_RS if rs is None else np.asarray(rs, dtype=float)
    return FuzzyNumber._of_path(rs, np.full(2 * rs.size, float(x)))


# ---------------------------------------------------------------------------
# operations


def _same_grid(rs: np.ndarray, other: np.ndarray) -> bool:
    """Whether two level grids are the same array or hold the same levels."""
    return rs is other or (rs.size == other.size and np.array_equal(rs, other))


def _common_grid(A: FuzzyNumber, B: FuzzyNumber):
    """The levels of A and B, or the union of both grids, and each band as a
    path-order row on them."""
    if _same_grid(A.rs, B.rs):
        return A.rs, A._row, B._row
    rs = np.union1d(A.rs, B.rs)
    return rs, _path_row(*A.cuts_at(rs)), _path_row(*B.cuts_at(rs))


# Every entry of a number strays from its r = 0 cut by at most
# (n_levels + 1) * _SHAPE_TOL of its scale max(1, largest |entry|), so for any
# grid of fewer than 5e8 levels no entry exceeds 1 + 2 |lower(0)| + 2 |upper(0)|.
# While the summed |r = 0 ends| of two numbers, or |lam| times 1 plus those of
# one, stay below this bound, their sum, difference or multiple stays below
# 2**1022 and cannot overflow; only past it is numpy's overflow flag watched.
_NO_OVERFLOW = 2.0**1020


def _zero_cut_sum(pa: np.ndarray, pb: np.ndarray) -> float:
    """The summed |r = 0 ends| of two path-order rows: below _NO_OVERFLOW,
    neither their sum nor their difference can overflow."""
    return abs(pa.item(0)) + abs(pa.item(-1)) + abs(pb.item(0)) + abs(pb.item(-1))


def _refuse_overflow(rs, row, what: str, expr: str) -> None:
    """Raise a ValidationError naming the operation and the first level where
    its result, the path-order row, is not finite, if there is one."""
    lo, up = _bands(row)
    overflow = ~(np.isfinite(lo) & np.isfinite(up))
    if overflow.any():
        r = float(rs[np.argmax(overflow)])
        raise ValidationError(f"{what} overflows at r={r}: {expr} is not finite")


def add(A: FuzzyNumber, B: FuzzyNumber) -> FuzzyNumber:
    """Endpoint-wise sum of level cuts. A sum that overflows raises
    :class:`ValidationError`."""
    rs, pa, pb = _common_grid(A, B)
    if _zero_cut_sum(pa, pb) < _NO_OVERFLOW:
        return FuzzyNumber._of_path(rs, pa + pb)
    with np.errstate(over="ignore"):  # reported below
        row = pa + pb
    _refuse_overflow(rs, row, "fuzzy sum", "A + B")
    return FuzzyNumber._of_path(rs, row)


def scale(lam: float, A: FuzzyNumber) -> FuzzyNumber:
    """Scalar multiple of A; endpoints swap when the scalar is negative. A
    multiple that overflows raises :class:`ValidationError`."""
    lam = float(lam)
    p = A._row if lam >= 0.0 else A._row[::-1]  # the swap of lower and upper reverses the row
    if abs(lam) * (1.0 + abs(p.item(0)) + abs(p.item(-1))) < _NO_OVERFLOW:
        return FuzzyNumber._of_path(A.rs, lam * p)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 for a non-finite lam
        row = lam * p
    if math.isfinite(lam):  # otherwise the constructor refuses the entries as not finite
        _refuse_overflow(A.rs, row, "scalar multiple", "lam * A")
    return FuzzyNumber._of_path(A.rs, row)


def hausdorff_distance(A: FuzzyNumber, B: FuzzyNumber) -> float:
    """sup over the level grid of the larger endpoint deviation."""
    _, pa, pb = _common_grid(A, B)
    return float(np.abs(pa - pb).max())


def hukuhara_diff(A: FuzzyNumber, B: FuzzyNumber) -> FuzzyNumber:
    """The C with B + C = A, when it exists.

    C has cuts [A_lo - B_lo, A_hi - B_hi]. Existence requires the cut of A
    to be at least as wide as the cut of B at every level (else lower would
    exceed upper) and the resulting endpoints to stay monotone in r. A
    violation beyond the constructor's tolerance, ``_SHAPE_TOL`` times the
    difference's own scale, raises :class:`HukuharaNonexistenceError`
    carrying the smallest failing level, so a difference exists exactly
    when :class:`FuzzyNumber` accepts its cuts. A difference that overflows
    raises :class:`ValidationError` first.
    """
    rs, pa, pb = _common_grid(A, B)
    if _zero_cut_sum(pa, pb) < _NO_OVERFLOW:
        row = pa - pb
    else:
        with np.errstate(over="ignore"):  # overflow is reported below
            row = pa - pb
    if _ordered_path(row):  # finite, so nothing overflowed, and free of defects
        return FuzzyNumber._of_path(rs, row)
    # the operands are finite, so an entry that is not is an overflow
    scale = _scale_of(row)
    if scale == math.inf:
        _refuse_overflow(rs, row, "Hukuhara difference", "A - B")
    # the constructor's own test: ties (equal widths, crisp stretches) that
    # wobble by an ulp under subtraction pass it only within its tolerance
    bad_lo, bad_up, bad_w = _band_defects(*_bands(row), _SHAPE_TOL * scale)
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
    return FuzzyNumber._of_path(rs, row)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Violation:
    condition: str
    index: int
    r: float
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def conditions(self) -> set[str]:
        return {v.condition for v in self.violations}


def _ordered_path(path: np.ndarray):
    """Whether path-order rows (the lowers, then the uppers reversed) of
    shape (2 n_r,) or (n, 2 n_r) are, row by row, finite and free of shape
    defects at any tolerance: the row never decreases, and both its ends
    are finite.

    Monotone bands and lower <= upper at r = 1 give lower <= upper at every
    level; between two finite ends every entry is finite, and NaN fails every
    comparison. Nothing is subtracted, so inf and NaN raise no warning. A row
    this refuses may still be within tolerance; callers then measure its
    defects with :func:`_band_defects`. One row gives one verdict, a table
    one per row.
    """
    if path.ndim == 1:  # one band: a count and two plain floats cost less than a row reduction
        return (
            np.count_nonzero(path[:-1] <= path[1:]) == path.size - 1
            and -math.inf < path.item(0)
            and path.item(-1) < math.inf
        )
    ends = path.T  # ends[0] and ends[-1]: each row's first and last entry
    ordered = (path[..., :-1] <= path[..., 1:]).all(axis=-1)
    return ordered & (-math.inf < ends[0]) & (ends[-1] < math.inf)


def _band_defects(lowers: np.ndarray, uppers: np.ndarray, tol: float):
    """Where band arrays of shape (..., n_r) break the level-cut conditions by more than tol.

    Returns one boolean mask per condition, along the last axis: lower
    non-decreasing in r (marked at k where lowers[k] - lowers[k+1] > tol),
    upper non-increasing (uppers[k+1] - uppers[k] > tol) and lower <= upper
    (lowers[k] - uppers[k] > tol). A NaN difference (inf - inf) is not marked.
    """
    return (
        lowers[..., :-1] - lowers[..., 1:] > tol,
        uppers[..., 1:] - uppers[..., :-1] > tol,
        lowers - uppers > tol,
    )


def _rejected_rows(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """Which rows of band tables of shape (n, n_r) the FuzzyNumber constructor
    would reject: rows with a non-finite entry, and rows whose shape defects
    exceed _SHAPE_TOL times the row's own scale max(1, row abs-max).

    Each row is judged on its own, so the table is judged a block of rows at
    a time and no temporary grows with the row count. An exactly ordered row
    is valid as it stands; in each block only the run of rows from the first
    to the last one the path test refuses is measured for defects (a case-II
    solver table's invalid rows are one run, past its horizon)."""
    rejected = np.zeros(lowers.shape[0], dtype=bool)
    step = _block_rows(lowers.shape[1])
    for a in range(0, lowers.shape[0], step):
        block = np.concatenate((lowers[a : a + step], uppers[a : a + step, ::-1]), axis=1)
        refused = np.flatnonzero(~_ordered_path(block))
        if not refused.size:
            continue
        rows = slice(a + refused[0], a + refused[-1] + 1)
        lo, up = lowers[rows], uppers[rows]
        scale = np.maximum(np.abs(lo).max(axis=1), np.abs(up).max(axis=1))
        np.maximum(scale, 1.0, out=scale)  # NaN stays NaN
        with np.errstate(invalid="ignore"):  # inf - inf, in rows rejected as non-finite anyway
            bad_lo, bad_up, bad_w = _band_defects(lo, up, _SHAPE_TOL * scale[:, None])
        rejected[rows] = (
            ~np.isfinite(scale) | bad_lo.any(axis=1) | bad_up.any(axis=1) | bad_w.any(axis=1)
        )
    return rejected


def _violations(rs, lowers, uppers, defects) -> list[Violation]:
    bad_lo, bad_up, bad_w = defects
    found = []
    for i in np.flatnonzero(bad_lo | bad_up):
        drop, rise, r = lowers[i] - lowers[i + 1], uppers[i + 1] - uppers[i], float(rs[i + 1])
        if bad_lo[i]:
            found.append(Violation("lower_monotone", int(i + 1), r, float(drop)))
        if bad_up[i]:
            found.append(Violation("upper_monotone", int(i + 1), r, float(rise)))
        # nestedness of consecutive cuts (implied by the monotone conditions,
        # reported separately to localize the defect)
        found.append(Violation("nested", int(i + 1), r, float(max(drop, rise))))
    for i in np.flatnonzero(bad_w):
        gap = float(lowers[i] - uppers[i])
        found.append(Violation("lower_le_upper", int(i), float(rs[i]), gap))
    found.sort(key=lambda v: (v.index, v.condition))
    return found


def validate(number_or_rs, lowers=None, uppers=None, tol: float = 0.0) -> ValidationReport:
    """Check the parametric-form conditions of an endpoint table.

    Accepts either a :class:`FuzzyNumber` or raw ``(rs, lowers, uppers)``
    arrays (the raw form is what lets invalid hand-built tables and solver
    output be diagnosed without constructing a number). Reported
    conditions: ``lower_monotone``, ``upper_monotone``, ``lower_le_upper``
    and ``nested``; defects up to ``tol`` are ignored. ``tol`` must be
    finite and non-negative.
    """
    _check_tol(tol)
    if isinstance(number_or_rs, FuzzyNumber):
        rs, lo, hi = number_or_rs.rs, number_or_rs.lowers, number_or_rs.uppers
    else:
        rs, lo, hi = _endpoint_table(number_or_rs, lowers, uppers)
    return ValidationReport(_violations(rs, lo, hi, _band_defects(lo, hi, tol)))


# ---------------------------------------------------------------------------
# i/o


_FUZZY_KINDS = {"triangular": ("a", "b", "c"), "table": ("rs", "lowers", "uppers")}


def fuzzy_from_json(spec: dict) -> FuzzyNumber:
    """Build a fuzzy number from a JSON object, never a string:
    ``{"kind": "triangular", "a":, "b":, "c":}`` or ``{"kind": "table",
    "rs": [...], "lowers": [...], "uppers": [...]}``, with each field shown
    and no other."""
    kind, spec = spec_kind(spec, "fuzzy", _FUZZY_KINDS)
    if kind == "triangular":
        return make_triangular(*(spec_number(spec[k], k) for k in _FUZZY_KINDS[kind]))
    return FuzzyNumber(*(spec_array(spec[k], k) for k in _FUZZY_KINDS[kind]))


def fuzzy_to_json(A: FuzzyNumber) -> dict:
    return {
        "kind": "table",
        "rs": A.rs.tolist(),
        "lowers": A.lowers.tolist(),
        "uppers": A.uppers.tolist(),
    }
