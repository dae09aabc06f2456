"""Refinable polyline curves, order-alpha mass sums and the staircase coordinate.

A curve is a polyline sampling of a parametrization w(t) on [a0, b0].
Self-similar curves carry a refinement rule producing the next, finer
polyline. The staircase table, and a mass sum or dimension estimate on the
curve's own level, are computed from its vertex subdivision; the levels
below a built-in curve's own follow from its refiner's similarity ratio.
The staircase value J(u) is the cumulative order-alpha mass from an anchor
and serves as the differentiation/integration coordinate everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._textio import (
    _block_rows,
    count,
    format_columns,
    inside,
    is_integer,
    point,
    spec_array,
    spec_kind,
    sub_interval,
    write_csv,
)
from .errors import (
    CapabilityError,
    EstimationError,
    OrderError,
    ValidationError,
)

__all__ = [
    "FractalCurve",
    "MassEstimate",
    "StaircaseTable",
    "generate_koch",
    "generate_segment",
    "generate_polyline",
    "mass_function",
    "gamma_dimension",
    "build_staircase",
    "J_at",
    "u_at",
    "euclidean_rise",
    "staircase_to_csv",
    "curve_from_json",
    "curve_to_json",
]

KOCH_MAX_LEVEL = 12
SEGMENT_MAX_LEVEL = 2 * KOCH_MAX_LEVEL  # 2**24 segments, as many as Koch-12

Refiner = Callable[["FractalCurve"], "FractalCurve"]

_POINTS_RULE = "points must be a finite (m, n) array with n >= 1"


def _float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class FractalCurve:
    """Polyline approximation of a curve w(t), t in [a0, b0].

    ``params`` and ``points`` tabulate w at the current refinement level.
    ``refiner``, when present, produces the level-(k+1) polyline; it must
    add vertices and keep the endpoint images fixed.
    """

    params: np.ndarray
    points: np.ndarray
    refiner: Refiner | None = None
    level: int = 0

    def __post_init__(self):
        params = _float_array(self.params, "params", 1)
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[1] == 0 or not np.all(np.isfinite(points)):
            raise ValidationError(_POINTS_RULE)
        if params.size < 2:
            raise ValidationError("a curve needs at least 2 vertices")
        if points.shape[0] != params.size:
            raise ValidationError(
                f"params/points length mismatch: {params.size} vs {points.shape[0]}"
            )
        if np.any(params[1:] <= params[:-1]):
            raise ValidationError("params must be strictly increasing")
        object.__setattr__(self, "level", count(self.level, "level", 0))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)

    @property
    def a0(self) -> float:
        return float(self.params[0])

    @property
    def b0(self) -> float:
        return float(self.params[-1])

    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    @property
    def n_segments(self) -> int:
        return self.params.size - 1

    def segment_lengths(self) -> np.ndarray:
        return _polyline_lengths(self.points)

    def point_at(self, u):
        """w(u), linearly interpolated between vertices."""
        inside(u, self.a0, self.b0, "parameter")
        return _in_query_order(
            lambda q: np.stack([np.interp(q, self.params, col) for col in self.points.T], axis=-1),
            np.asarray(u, dtype=float),
        )

    def refine(self) -> "FractalCurve":
        """One refinement step; raises if the curve has no refinement rule or
        is at its refiner's level cap."""
        if self.refiner is None:
            raise CapabilityError("curve is not refinable (no refinement rule)")
        _target_level(self, self.level + 1)
        new = self.refiner(self)
        if new.params.size <= self.params.size:
            raise ValidationError("refinement did not increase the vertex count")
        if not (
            _same_point(new.points[0], self.points[0])
            and _same_point(new.points[-1], self.points[-1])
        ):
            raise ValidationError("refinement moved an endpoint image")
        return new

    def refined_to(self, level: int) -> "FractalCurve":
        for cur in _refinements(self, level):
            pass
        return cur


def _refinements(curve: FractalCurve, level: int):
    """The curve and then each refinement of it up to ``level``, one at a
    time, so only the current level is held; ``level`` is checked before
    the first refinement."""
    level = _target_level(curve, level)
    yield curve
    while curve.level < level:
        curve = curve.refine()
        yield curve


@dataclass(frozen=True)
class MassEstimate:
    """Order-alpha mass of a sub-curve with per-level convergence diagnostics.

    ``levels`` lists (refinement level, partial sum) pairs; ``value`` is the
    sum at the deepest level computed.
    """

    alpha: float
    value: float
    levels: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.value < 0.0:
            raise ValidationError("mass must be non-negative")


@dataclass(frozen=True, eq=False)
class StaircaseTable:
    """Tabulated cumulative mass J = S(u) anchored so that S(p0) = 0.

    ``us`` are the curve vertices at the working level, ``Js`` the running
    order-alpha mass; J is non-decreasing, negative below the anchor and
    non-negative above it. Between vertices both directions interpolate
    linearly. A table from :func:`build_staircase` shares its curve's
    ``params`` array as ``us``: no library path writes it, and a write
    through either object invalidates both.
    """

    alpha: float
    p0: float
    us: np.ndarray
    Js: np.ndarray

    def __post_init__(self):
        us = _float_array(self.us, "us", 1)
        Js = _float_array(self.Js, "Js", 1)
        if us.size != Js.size or us.size < 2:
            raise ValidationError("us and Js must have equal length >= 2")
        if np.any(us[1:] <= us[:-1]):
            raise ValidationError("us must be strictly increasing")
        if np.any(Js[1:] < Js[:-1]):
            raise ValidationError("Js must be non-decreasing")
        inside(self.p0, us[0], us[-1], f"anchor {self.p0}")
        anchor = float(np.interp(self.p0, us, Js))
        # Js is non-decreasing, so its largest magnitude sits at an end
        scale = max(1.0, abs(float(Js[0])), abs(float(Js[-1])))
        if abs(anchor) > 1e-9 * scale:
            raise ValidationError("table is not anchored: S(p0) != 0")
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "Js", Js)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.us[0]), float(self.us[-1])

    @property
    def J_range(self) -> tuple[float, float]:
        return float(self.Js[0]), float(self.Js[-1])


def _same_point(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.allclose(a, b)`` for two finite vectors of one length: the same
    test, |a - b| <= 1e-8 + 1e-5 * |b| per coordinate, in Python floats,
    without numpy's ~30 us of per-call overhead."""
    return a.shape == b.shape and all(
        abs(x - y) <= 1e-8 + 1e-5 * abs(y) for x, y in zip(a.tolist(), b.tolist())
    )


def _in_query_order(lookup: Callable[[np.ndarray], np.ndarray], q: np.ndarray) -> np.ndarray:
    """``lookup(q)`` for a per-query table lookup, with the table searched in
    ascending query order.

    A batch out of order is sorted, ravelled if it is n-d, looked up, and the
    answers are scattered back to q's shape; answers that are vectors keep
    their trailing axis. ``np.interp`` and ``np.searchsorted`` give each query
    the same answer in any order, so only the walk through the table changes
    (in order, it stays in cache), not a bit of the output. Equal queries get
    equal answers, so the sort need not be stable. A non-decreasing batch,
    like the solvers' grids, is looked up as it is, without a copy.
    """
    flat = q.ravel()
    if flat.size < 2 or (flat[:-1] <= flat[1:]).all():
        return lookup(q)
    order = np.argsort(flat)
    found = lookup(flat[order])
    out = np.empty_like(found)
    out[order] = found
    return out.reshape(q.shape + found.shape[1:])


def _squared_distances(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances |v_i - u_i|**2 between the rows of two (m, n)
    arrays, into ``out`` if it is given.

    The squared differences are summed one coordinate column at a time,
    left to right, in place. For n < 8 that is the order numpy's row-wise
    ``np.sum(d * d, axis=1)`` uses, so the bits are the same, at a fraction
    of the cost of a reduction over a short axis.
    """
    s = np.subtract(v[:, 0], u[:, 0], out=out)
    s *= s
    d = np.empty_like(s)
    for k in range(1, u.shape[1]):
        np.subtract(v[:, k], u[:, k], out=d)
        d *= d
        s += d
    return s


def _polyline_lengths(points: np.ndarray) -> np.ndarray:
    """Lengths |w_{i+1} - w_i| of the segments of an (m, n) vertex array."""
    s = _squared_distances(points[:-1], points[1:])
    return np.sqrt(s, out=s)


# ---------------------------------------------------------------------------
# generators


def generate_polyline(params: Sequence[float], points) -> FractalCurve:
    """Wrap explicit data as a (non-refinable) curve."""
    return FractalCurve(np.asarray(params, dtype=float), np.asarray(points, dtype=float))


def _refine_params(params: np.ndarray, splits: int) -> np.ndarray:
    offsets = np.arange(splits) / splits
    dt = np.diff(params)
    cells = params[:-1, None] + dt[:, None] * offsets[None, :]
    return np.append(cells.ravel(), params[-1])


def _blocks(m: int, step: int):
    """Bounds (i, j) of the blocks of ``step`` rows that cover rows 0..m-1.

    A last block of one row is joined to the one before it: numpy multiplies
    a lone row with a vector kernel that rounds unlike the matrix kernel, so
    only the whole curve may be a block of one row.
    """
    i = 0
    while i < m:
        j = m if m - i <= step + 1 else i + step
        yield i, j
        i = j


_KOCH_ROT = np.array(
    [[0.5, -math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, 0.5]]
)  # +60 degrees


def _koch_pieces(p: np.ndarray, q: np.ndarray) -> tuple:
    """The inner vertices a, b, c of the Koch generator on each segment
    p -> q: a and c at a third and two thirds of it, b the apex.

    With d = q - p, each value has the operations of ``p + d / 3.0``,
    ``a + (d / 3.0) @ R.T`` and ``p + 2.0 * d / 3.0``; the rotation is one
    small matmul over all rows.
    """
    d = q - p
    third = d / 3.0
    a = p + third
    b = third @ _KOCH_ROT.T
    b += a
    d *= 2.0
    d /= 3.0
    d += p
    return a, b, d


def _midpoint_pieces(p: np.ndarray, q: np.ndarray) -> tuple:
    """The midpoint ``0.5 * (p + q)`` of each segment p -> q."""
    m = p + q
    m *= 0.5
    return (m,)


def _interleave(w: np.ndarray, inner: Sequence[np.ndarray], out: np.ndarray) -> None:
    """Write the vertices w with the inner vertices of each of their
    segments between them to ``out``: w[i], inner[0][i], inner[1][i], ...,
    w[i + 1]."""
    s = len(inner) + 1
    out[0::s] = w
    for k, v in enumerate(inner, 1):
        out[k::s] = v


def _refined(curve: FractalCurve, refiner: Refiner) -> FractalCurve:
    """The next level of a curve with the built-in ``refiner``.

    The new points are filled in a block of ``_block_rows`` segments at a
    time, so each temporary is one block, not one per segment of the curve.
    Every point is formed by the same operations as in one whole-curve pass,
    so the bits are the same in any blocks that :func:`_blocks` makes. The
    params come first, so that their temporaries are freed before the point
    array is allocated.
    """
    builtin = _LEVEL_CAPS[refiner]
    s, w, m = builtin.splits, curve.points, curve.n_segments
    params = builtin.params(curve.params)
    out = np.empty((s * m + 1, w.shape[1]))
    for i, j in _blocks(m, _block_rows(w.shape[1])):
        _interleave(w[i : j + 1], builtin.pieces(w[i:j], w[i + 1 : j + 1]), out[s * i : s * j + 1])
    return FractalCurve(params, out, refiner=refiner, level=curve.level + 1)


def _koch_refiner(curve: FractalCurve) -> FractalCurve:
    """Replace each segment p -> q by the four of the Koch generator."""
    return _refined(curve, _koch_refiner)


def _generate(ends, refiner: Refiner, level) -> FractalCurve:
    """The one-segment curve over [0, 1] between the points ``ends``, refined
    to ``level``."""
    base = FractalCurve(np.array([0.0, 1.0]), np.array(ends, dtype=float), refiner=refiner)
    return base.refined_to(level)


def generate_koch(level: int) -> FractalCurve:
    """Standard von Koch polyline over [0, 1] with 4**level segments."""
    return _generate([[0.0, 0.0], [1.0, 0.0]], _koch_refiner, level)


def _midpoint_params(t: np.ndarray) -> np.ndarray:
    nt = np.empty(2 * t.size - 1)
    nt[0::2] = t
    nt[1::2] = 0.5 * (t[:-1] + t[1:])
    return nt


def _midpoint_refiner(curve: FractalCurve) -> FractalCurve:
    """Split each segment at its midpoint."""
    return _refined(curve, _midpoint_refiner)


def generate_segment(start=(0.0, 0.0), end=(1.0, 0.0), level: int = 0) -> FractalCurve:
    """Straight segment over [0, 1] with 2**level pieces, refinable by
    midpoint subdivision.

    Refinement adds vertices without changing the geometry, which makes the
    segment usable wherever a smooth refinable reference curve is needed
    (dimension estimates in particular).
    """
    return _generate([list(start), list(end)], _midpoint_refiner, level)


class _Builtin(NamedTuple):
    """What the library knows of a built-in refiner: its name and level cap,
    the pieces it splits each segment into, each similar to the segment at
    the ratio 1 / ``divisor``, the refined params of given params, and
    ``pieces(p, q)``, which returns the inner vertices of each segment
    p -> q, in order along it, as ``splits - 1`` arrays of p's shape."""

    name: str
    cap: int
    splits: int
    divisor: int
    params: Callable[[np.ndarray], np.ndarray]
    pieces: Callable[[np.ndarray, np.ndarray], tuple]


# the built-in refiners, looked up by identity (a refiner need not be
# hashable); the caps keep refinement from running the machine out of memory
_LEVEL_CAPS = {
    _koch_refiner: _Builtin(
        "koch", KOCH_MAX_LEVEL, 4, 3, lambda t: _refine_params(t, 4), _koch_pieces
    ),
    _midpoint_refiner: _Builtin(
        "segment", SEGMENT_MAX_LEVEL, 2, 2, _midpoint_params, _midpoint_pieces
    ),
}


def _builtin(curve: FractalCurve) -> _Builtin | None:
    return next((v for k, v in _LEVEL_CAPS.items() if k is curve.refiner), None)


def _target_level(curve: FractalCurve, level) -> int:
    """``level`` as an int, if ``curve`` may be refined to it: an integer in
    [0, cap] for a built-in refiner, any count otherwise, and never below
    the curve's own level."""
    builtin = _builtin(curve)
    if builtin is None:
        level = count(level, "level", 0)
    elif not (is_integer(level) and 0 <= level <= builtin.cap):
        raise ValidationError(f"{builtin.name} level must be an integer in [0, {builtin.cap}]")
    if level < curve.level:
        raise ValidationError(f"level {level} is below the curve's level {curve.level}")
    return int(level)


# ---------------------------------------------------------------------------
# mass and dimension

# the levels below a built-in curve are read from its refiner's ratio only
# while every coordinate of the curve is below this: then no refined point,
# and no squared length, can overflow, so refine() would refuse none of them
_RATIO_BOUND = 2.0**500

# ... and while each piece of a segment over [a, b] that is not a point spans
# at least this many spacings of the largest coordinate: refine() rounds each
# inner vertex by a few such spacings, so its pieces keep the ratio's length
# to within about 1e-5 (a Koch piece far below them is rounded onto a line)
_PIECE_SPACINGS = 2.0**20

_OVERFLOW = "mass sums overflow on the requested range"


def _check_order(alpha: float, ndim: int):
    if not np.isfinite(alpha) or alpha < 1.0 or alpha > ndim:
        raise OrderError(f"order alpha must lie in [1, {ndim}], got {alpha}")


def _span(t: np.ndarray, a: float, b: float) -> tuple[int, int]:
    """The first and last segment of the vertex grid t that hold [a, b]: an
    end on a vertex is held by the segment on the inner side of it."""
    return int(np.searchsorted(t, a, side="right")) - 1, int(np.searchsorted(t, b, side="left")) - 1


def _vertex_knots(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """Knots of [a, b] on the vertex grid t: a, the vertices strictly between, b."""
    first, last = _span(t, a, b)
    return np.concatenate([[a], t[first + 1 : last + 1], [b]])


def mass_function(
    curve: FractalCurve,
    alpha: float,
    a: float | None = None,
    b: float | None = None,
    max_level: int | None = None,
) -> MassEstimate:
    """Order-alpha mass of the sub-curve over [a, b].

    Sums |w(t_{i+1}) - w(t_i)|**alpha / Gamma(alpha + 1) over the natural
    vertex subdivision restricted to [a, b], on each level from the curve's
    own to ``max_level``, and records one partial sum per level (see
    :func:`_levels`). The returned value is the sum at the deepest level
    computed.
    """
    _check_order(alpha, curve.ndim)
    a, b = sub_interval(a, b, curve.a0, curve.b0, "interval")
    top = _target_level(curve, curve.level if max_level is None else max_level)
    gamma = math.gamma(alpha + 1.0)
    levels: list[tuple[int, float]] = []
    for level, values, counts in _levels(curve, a, b, curve.level, top):
        values **= alpha
        if counts is not None:
            values *= counts
        total = float(np.sum(values) / gamma)
        if not math.isfinite(total):
            raise EstimationError(_OVERFLOW)
        levels.append((level, total))
    return MassEstimate(alpha=float(alpha), value=levels[-1][1], levels=levels)


def _merged_bins(values: np.ndarray, counts: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct lengths of a level of :func:`_levels` and their counts.

    A level read from points is one ``np.unique``. Otherwise the merge is
    exact: a stable sort of the values, then one sum of counts per run of
    equal values.
    """
    if counts is None:
        return np.unique(values, return_counts=True)
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    return values[starts], np.add.reduceat(counts[order], starts)


def _refines_cleanly(t: np.ndarray, splits: int, levels: int) -> bool:
    """Whether ``levels`` built-in refinements of the params t, each into
    ``splits`` pieces per segment, are sure to be finite and strictly
    increasing, so that each refined curve's constructor would accept its
    params.

    Every refined param lies within a few roundings, each at most one
    spacing ``u`` of the largest end, of an exact point a quarter or a half
    of its segment from its neighbours, and inside [t[0], t[-1]]; so one
    level takes at most ~3.25 u off a gap that it splits. A shortest segment
    over 32 s**(levels - 1) u keeps every gap over 32 u / s - 3.25 u s /
    (s - 1) > 0 after the last level, and an end below half the largest
    float keeps every sum finite.
    """
    top = max(abs(float(t[0])), abs(float(t[-1])))
    margin = 32.0 * float(splits) ** (levels - 1) * float(np.spacing(top))
    return math.isfinite(2.0 * top) and float(np.diff(t).min()) > margin


def _ends(t: np.ndarray, a: float, b: float, first: int, last: int) -> tuple:
    """The ends of the sub-polyline over [a, b] on the vertex grid t, held
    by its segments ``first`` and ``last``, as (u, the params of the segment
    that holds it), or none if they are the grid's end vertices."""
    if a == t[0] and b == t[-1]:  # w(a0), w(b0) are the end vertices
        return ()
    return (a, t[first : first + 2]), (b, t[last : last + 2])


def _levels(curve: FractalCurve, a: float, b: float, first: int, last: int):
    """The sub-polyline over [a, b] on each level from ``first`` to
    ``last``, as (level, values, counts): its segments have the lengths
    ``values``, each ``counts`` times, or once each if ``counts`` is None.
    Every ``values`` is a fresh array that the caller may overwrite.

    A level read from points, the curve's own or one refined whole through
    :meth:`FractalCurve.refine`, has each length once, in segment order
    (see :func:`_read`). Below the curve's own level, each piece that a
    built-in refiner makes is similar to its segment at the ratio
    1 / ``divisor``: a level-d piece of a base segment of length l has
    length l / divisor**d. Such a level is each base segment's scaled length
    with the count of its pieces whole inside [a, b], and the lengths of the
    pieces that hold a and b. Those segments are followed down one level at
    a time, in one loop that carries their params and their points: the
    params through the refiner's own ``params``, the points as the two rows
    of one block through its own ``pieces``. numpy rounds a block of two
    rows or more as it rounds the whole level (see :func:`_blocks`), so they
    have the refined curve's bits. Only a curve of one segment is refined as
    one row, and so is its step.

    The ratio is read only where refine() would refuse none of the levels
    and keeps the shape of every piece: :func:`_refines_cleanly` vouches for
    their params, every coordinate is below ``_RATIO_BOUND``, and each
    deepest piece of a base segment over [a, b] is a point or spans
    ``_PIECE_SPACINGS`` spacings of the largest coordinate. Elsewhere, and
    for any other refiner, every level is refined whole, so every error and
    every rounding is still refine()'s.
    """
    rows, builtin, depth = _block_rows(curve.ndim), _builtin(curve), last - curve.level
    w, t = curve.points, curve.params
    (lo, hi), top = _span(t, a, b), max(float(w.max()), -float(w.min()))
    ratio = (
        builtin is not None
        and depth > 0
        and _refines_cleanly(t, builtin.splits, depth)
        and top < _RATIO_BOUND
    )
    if ratio:
        base = _lengths(w, lo, hi, rows)
        # a segment that is a point refines to points exactly
        shortest = float(np.min(base, where=base > 0.0, initial=math.inf))
        ratio = shortest / builtin.divisor**depth >= _PIECE_SPACINGS * float(np.spacing(top))
    if not ratio:
        for cur in _refinements(curve, last):
            if cur.level >= first:
                yield cur.level, _read(cur.points, cur.params, a, b, rows), None
        return
    if curve.level >= first:
        yield curve.level, _read(w, t, a, b, rows), None
    s, ends = builtin.splits, _ends(t, a, b, lo, hi)
    # base segment i holds the pieces i * s**d up to (i + 1) * s**d of level d
    bounds = np.arange(lo, hi + 2)
    p, q = w[[lo, hi]], w[[lo + 1, hi + 1]]
    for d in range(1, depth + 1):
        ka, kb = 0, s - 1  # the first and the last piece, unless an end is inside
        if ends:  # step down into the segments that hold a and b
            (_, ta), (_, tb) = ends
            ta, tb = builtin.params(ta), builtin.params(tb)
            ka, kb = _span(ta, a, b)[0], _span(tb, a, b)[1]
            k = 1 if d == 1 and curve.n_segments == 1 else 2  # one segment refines as a lone row
            inner = builtin.pieces(p[:k], q[:k])
            va, vb = [p[0], *(v[0] for v in inner), q[0]], [p[1], *(v[-1] for v in inner), q[1]]
            p, q = np.array([va[ka], vb[kb]]), np.array([va[ka + 1], vb[kb + 1]])
            ends = (a, ta[ka : ka + 2]), (b, tb[kb : kb + 2])
        lo, hi = s * lo + ka, s * hi + kb
        if curve.level + d < first:
            continue
        found = _end_lengths(ends, p, q, lo == hi) if ends else []
        # the pieces lo..hi lie whole inside [a, b], all but the end pieces
        cut = (lo + 1, max(lo + 1, hi)) if ends else (lo, hi + 1)
        counts = np.diff(np.clip(bounds * s**d, *cut))
        whole = counts > 0
        values = np.concatenate([base[whole] / builtin.divisor**d, found])
        counts = np.concatenate([counts[whole], np.ones(len(found), dtype=counts.dtype)])
        yield curve.level + d, values, counts


def _lengths(w: np.ndarray, first: int, last: int, rows: int) -> np.ndarray:
    """The lengths of the segments first..last of the vertices w, formed
    ``rows`` segments at a time into one array, so no temporary is larger
    than a block."""
    lengths = np.empty(last - first + 1)
    for i in range(first, last + 1, rows):
        j = min(i + rows, last + 1)
        squares = _squared_distances(w[i:j], w[i + 1 : j + 1], out=lengths[i - first : j - first])
        np.sqrt(squares, out=squares)
    return lengths


def _read(w: np.ndarray, t: np.ndarray, a: float, b: float, rows: int) -> np.ndarray:
    """The lengths of the sub-polyline over [a, b] of the vertices w at the
    params t, in segment order: a sub-polyline's end that is not a vertex
    replaces the vertex before it on its first segment, or the one after it
    on its last."""
    first, last = _span(t, a, b)
    lengths = _lengths(w, first, last, rows)
    ends = _ends(t, a, b, first, last)
    if ends:
        found = _end_lengths(ends, w[[first, last]], w[[first + 1, last + 1]], first == last)
        lengths[0], lengths[-1] = found[0], found[-1]
    return lengths


def _end_lengths(ends: tuple, p: np.ndarray, q: np.ndarray, one: bool) -> list:
    """The lengths of the end pieces of a sub-polyline with the ``ends`` of
    :func:`_ends`, held by the segments p[0] -> q[0] and p[1] -> q[1]:
    one piece from w(a) to w(b) if ``one`` segment holds both."""
    (a, ta), (b, tb) = ends
    wa, wb = _point_on(a, ta, p[0], q[0]), _point_on(b, tb, p[1], q[1])
    pairs = [(wa, wb)] if one else [(wa, q[0]), (p[1], wb)]
    return [_polyline_lengths(np.array(pair))[0] for pair in pairs]


def _point_on(u: float, tu: np.ndarray, p: np.ndarray, q: np.ndarray) -> list:
    """w(u) by ``np.interp`` on the vertices p, q at the params ``tu``.
    ``np.interp`` reads only the pair that brackets u, so w(u) has the bits
    that :meth:`FractalCurve.point_at` gives on the whole level."""
    return [np.interp(u, tu, col) for col in np.array([p, q]).T]


def _fitted_bins(curve: FractalCurve, a: float, b: float, keep_from: int, max_level: int) -> list:
    """The distinct lengths and their counts of the sub-polyline over [a, b]
    on each level from ``keep_from`` to ``max_level``.

    Self-similar curves have few distinct lengths, so each level is binned
    once instead of once per alpha.
    """
    return [_merged_bins(values, counts) for _, values, counts in _levels(curve, a, b, keep_from, max_level)]


def _log_sum_slope(bins: list[tuple[np.ndarray, np.ndarray]], alpha: float) -> float:
    """Least-squares slope of log(sum of length**alpha) against level.

    Each level is given as its distinct lengths and their counts. The sums
    differ from a sum over every segment in their last ulps only.
    """
    sums = [float(counts @ values**alpha) for values, counts in bins]
    if not math.isfinite(max(sums)):
        raise EstimationError(_OVERFLOW)
    if min(sums) <= 0.0:
        raise EstimationError("mass sums vanish on the requested range")
    ys = np.log(sums)
    ks = np.arange(ys.size, dtype=float)
    ks -= ks.mean()
    return float(np.sum(ks * (ys - ys.mean())) / np.sum(ks * ks))


def gamma_dimension(
    curve: FractalCurve,
    a: float | None = None,
    b: float | None = None,
    tol: float = 0.01,
    max_level: int = 10,
    fit_levels: int = 4,
) -> float:
    """Critical order at which level-wise mass sums switch from growth to decay.

    Located by bisection on alpha in [1, n]; the growth/decay sign is the
    least-squares slope of log(sum) against level over the deepest
    ``fit_levels`` refinement levels. A non-positive slope already at
    alpha = 1 means the curve is rectifiable and 1.0 is returned.
    """
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise ValidationError("tol must be a finite positive number")
    fit_levels = count(fit_levels, "fit_levels", 2)
    max_level = _target_level(curve, max_level)
    if max_level < curve.level + fit_levels - 1:
        raise ValidationError("max_level leaves too few levels for the slope fit")
    a, b = sub_interval(a, b, curve.a0, curve.b0, "interval")

    bins = _fitted_bins(curve, a, b, max_level - fit_levels + 1, max_level)

    lo, hi = 1.0, float(curve.ndim)
    slope_lo = _log_sum_slope(bins, lo)
    if slope_lo <= 1e-9:
        return 1.0
    if curve.ndim > 1 and _log_sum_slope(bins, hi) > 0.0:
        raise EstimationError(
            "mass sums still grow at alpha = n; no growth/decay transition in [1, n]"
        )
    it = 0
    while hi - lo > tol and it < 60:
        mid = 0.5 * (lo + hi)
        if _log_sum_slope(bins, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# staircase


def build_staircase(curve: FractalCurve, alpha: float, p0: float | None = None) -> StaircaseTable:
    """Tabulate the cumulative order-alpha mass S(u) with S(p0) = 0.

    S(u) is the mass of the sub-curve between the anchor and u, signed
    negative below the anchor. Values are exact at vertices of the working
    level; J_at/u_at interpolate linearly in between. The masses are formed
    and summed a block of ``_block_rows`` segments at a time, straight into
    the table.
    """
    _check_order(alpha, curve.ndim)
    p0 = curve.a0 if p0 is None else point(p0, "anchor")
    inside(p0, curve.a0, curve.b0, f"anchor {p0}")
    gamma = math.gamma(alpha + 1.0)
    w = curve.points
    # borrow the curve's grid; copy it once if read-only (np.interp would on every lookup)
    us = np.require(curve.params, requirements="CW")
    Js = np.empty(us.size)
    Js[0] = 0.0
    step = _block_rows(1)
    for i in range(0, curve.n_segments, step):
        j = min(i + step, curve.n_segments)
        masses = _polyline_lengths(w[i : j + 1])
        masses **= alpha
        masses /= gamma
        # carry the running sum: add.accumulate adds in sequence, so each
        # value has the bits of one cumsum over every segment
        masses[0] += Js[i]
        np.cumsum(masses, out=Js[i + 1 : j + 1])
    if shift := np.interp(p0, us, Js):  # Js holds no -0.0, so +0.0 would change no bit
        Js -= shift
    return StaircaseTable(alpha=float(alpha), p0=p0, us=us, Js=Js)


def J_at(table: StaircaseTable, u):
    """Staircase value at u (piecewise-linear between tabulated vertices)."""
    if isinstance(u, float):  # one point, np.float64 too: no array round trip
        inside(u, table.us.item(0), table.us.item(-1), "parameter")
        return float(np.interp(u, table.us, table.Js))
    inside(u, *table.domain, "parameter")
    u_arr = np.asarray(u, dtype=float)
    out = _in_query_order(lambda q: np.interp(q, table.us, table.Js), u_arr)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def _preimages(table: StaircaseTable, J: np.ndarray) -> np.ndarray:
    """Leftmost u with S(u) = J for staircase values J inside the table's range."""
    us, Js = table.us, table.Js
    idx = np.searchsorted(Js, J, side="left")  # J <= Js[-1], so idx < Js.size
    left = np.maximum(idx - 1, 0)
    J_idx, J_left, u_idx, u_left = Js[idx], Js[left], us[idx], us[left]
    dJ = J_idx - J_left
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(dJ > 0.0, (J - J_left) / np.where(dJ > 0.0, dJ, 1.0), 0.0)
    return np.where(J_idx == J, u_idx, u_left + frac * (u_idx - u_left))


def u_at(table: StaircaseTable, J):
    """Leftmost parameter with staircase value J (inverse of J_at).

    On flat segments (zero-mass stretches) the preimage is an interval;
    the leftmost point is returned.
    """
    inside(J, *table.J_range, "staircase value")
    J_arr = np.asarray(J, dtype=float)
    out = _in_query_order(lambda q: _preimages(table, q), J_arr)
    return float(out) if np.isscalar(J) or J_arr.ndim == 0 else out


def euclidean_rise(curve: FractalCurve, u):
    """Euclidean distance of the curve point w(u) from the origin: a float
    for a scalar or 0-d u, otherwise an array of u's shape."""
    pts = curve.point_at(u)
    out = np.sqrt(np.sum(pts**2, axis=-1))
    return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# i/o


def _write_columns(target, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write a header line and the rows of the 1-d ``columns``, side by side,
    at full double precision to a path or a writable text buffer.

    The rows are formatted and written a block of ``_block_rows`` at a time,
    so the text of the whole table is never held.
    """
    step = _block_rows(len(columns))
    blocks = (
        format_columns(*(col[i : i + step] for col in columns))
        for i in range(0, columns[0].size, step)
    )
    write_csv(target, header, blocks)


def staircase_to_csv(table: StaircaseTable, target) -> None:
    """Write the table as ``u,J`` rows at full double precision; ``target``
    is a path or a writable text buffer."""
    _write_columns(target, "u,J", (table.us, table.Js))


_CURVE_KINDS = {"koch": ("level",), "segment": ("level",), "polyline": ("params", "points")}


def curve_from_json(spec: dict) -> FractalCurve:
    """Build a curve from a JSON object, never a string: ``{"kind": "koch",
    "level": k}``, ``{"kind": "segment", "level": k}`` (the unit segment of
    :func:`generate_segment`) or ``{"kind": "polyline", "params": [...],
    "points": [[...], ...]}``, with each field shown and no other."""
    kind, spec = spec_kind(spec, "curve", _CURVE_KINDS)
    if kind == "koch":
        return generate_koch(spec["level"])
    if kind == "segment":
        return generate_segment(level=spec["level"])
    return generate_polyline(
        spec_array(spec["params"], "params"), spec_array(spec["points"], "points")
    )


def curve_to_json(curve: FractalCurve) -> dict:
    return {
        "kind": "polyline",
        "params": curve.params.tolist(),
        "points": curve.points.tolist(),
    }
