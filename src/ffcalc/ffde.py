"""First-order fuzzy differential equations on a curve and a second-order
boundary-value problem with fuzzy boundary values.

Everything is integrated in the staircase coordinate J, where the curve
derivative becomes an ordinary d/dJ, and mapped back to the parameter grid
afterwards. First-order problems are split into parametric endpoint systems,
one pair per membership level: case I keeps (lower, upper) aligned with the
right-hand side, case II drives each endpoint by the opposite side's
equation. The level grid is integrated directly by default; the linear
0-cut/1-cut assembly is available as a fast path for a linear right-hand
side with level-linear data, where it agrees, and refuses any other problem.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._textio import (
    _block_rows,
    _check_tol,
    count,
    format_columns,
    format_table,
    inside,
    one_of,
    per_point,
    sub_interval,
    write_csv,
)
from .errors import ConditioningError, DivergenceError, ValidationError
from .fractal_curve import J_at, StaircaseTable, _in_query_order
from .fuzzy_core import (
    DEFAULT_R_LEVELS,
    FuzzyNumber,
    TriangularFuzzy,
    _check_level_grid,
    _level_linear,
    _rejected_rows,
    default_r_grid,
)

__all__ = [
    "CrispTrajectory",
    "solve_crisp_in_J",
    "LinearRhs",
    "FuncRhs",
    "FirstOrderFfdeProblem",
    "MAX_GRID_CELLS",
    "FuzzySolution",
    "solve_first_order",
    "SecondOrderFuzzyBvp",
    "SecondOrderSolution",
    "solve_second_order_bvp",
    "ode_residual_max",
    "VerificationReport",
    "verify_against_closed_form",
    "solution_to_csv",
    "solution_from_csv",
]


# ---------------------------------------------------------------------------
# crisp integration in the J coordinate


def _hermite(x: np.ndarray, y: np.ndarray, m: np.ndarray, xq) -> np.ndarray:
    """Piecewise cubic through nodes ``x`` with values ``y`` and slopes ``m``
    (both along axis 0), evaluated at ``xq`` inside [x[0], x[-1]].

    Coefficients and evaluation repeat scipy's CubicHermiteSpline operation
    for operation (power sum in s = x - x_i, intervals closed on the left),
    so results agree with it bit for bit; the basis-function form differs in
    the last ulp. The last node is reached through the last interval's cubic
    and so is reproduced to rounding, not exactly.

    No coefficient table is built up front. A call takes its queries in
    ascending order, a block of ``_block_rows`` queries at a time, and forms
    the coefficients of only the intervals that block reaches, from slices
    of ``x``, ``y`` and ``m``; every temporary stays block-sized, and each
    value is computed by the same operations as from a full table. Queries
    that are exactly the nodes go to :func:`_at_nodes`.
    """
    inside(xq, x[0], x[-1], "J")
    xq = np.asarray(xq, dtype=float)
    if xq.shape == x.shape and np.array_equal(xq, x):
        return _at_nodes(x, y, m)

    def ascending(xq: np.ndarray) -> np.ndarray:
        """Values at queries that are non-decreasing once ravelled."""
        flat = xq.ravel()
        # the interval closed on the left that holds each query; x[-1] falls
        # in the last one, so interior nodes alone decide
        i = np.searchsorted(x[1:-1], flat, side="right")
        out = np.empty(flat.shape + y.shape[1:])
        step = _block_rows(math.prod(y.shape[1:]))
        for a in range(0, flat.size, step):
            _cubic(x, y, m, flat[a : a + step], i[a : a + step], out[a : a + step])
        return out.reshape(xq.shape + y.shape[1:])

    return _in_query_order(ascending, xq)


def _cubic(x: np.ndarray, y: np.ndarray, m: np.ndarray, q: np.ndarray, i: np.ndarray, out) -> None:
    """Write into ``out`` the cubic at ascending queries ``q``, query k in
    interval i[k], forming the coefficients of intervals i[0]..i[-1] only."""
    col = (-1,) + (1,) * (y.ndim - 1)
    lo, hi = int(i[0]), int(i[-1]) + 1  # intervals lo..hi-1, nodes lo..hi
    dx = (x[lo + 1 : hi + 1] - x[lo:hi]).reshape(col)
    m0 = m[lo:hi]
    slope = y[lo + 1 : hi + 1] - y[lo:hi]
    slope /= dx
    t = m0 + m[lo + 1 : hi + 1]
    t -= 2 * slope
    t /= dx
    # c1 = (slope - m0) / dx - t, c0 = t / dx
    slope -= m0
    slope /= dx
    slope -= t
    t /= dx
    k = i - lo
    s = (q - x[i]).reshape(col)
    # ((c3 + c2 s) + c1 s^2) + c0 s^3, scipy's order of operations;
    # indexing with an array gathers copies, so terms are formed in place
    c2 = m0[k]
    c2 *= s
    c2 += y[i]
    s2 = s * s
    c1 = slope[k]
    c1 *= s2
    c2 += c1
    s2 *= s
    c0 = t[k]
    c0 *= s2
    np.add(c2, c0, out=out)


def _at_nodes(x: np.ndarray, y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``_hermite(x, y, m, x)``: the cubic at its own nodes, with the same bits.

    At node i the cubic of interval i has s = 0, so it adds m0*0, then
    c1*0, then c0*0 to y[i]. With finite coefficients each product is a
    signed zero, and adding a signed zero leaves y[i]'s bits unchanged
    unless y[i] is -0.0. So a block of interior nodes takes its rows of
    ``y`` as they are when :func:`_finite_coefficients` proves its
    intervals' coefficients finite and no value in it is -0.0. Every other
    block goes through the cubic, and so does the last node, which the
    last interval's cubic reaches at s = x[-1] - x[-2].
    """
    out = np.empty(y.shape)
    last = x.size - 1
    step = _block_rows(math.prod(y.shape[1:]))
    for a in range(0, last, step):
        b = min(a + step, last)
        rows = y[a:b]
        if _finite_coefficients(x[a : b + 1], y[a : b + 1], m[a : b + 1]) and not (
            np.signbit(rows[rows == 0.0]).any()
        ):
            out[a:b] = rows
        else:
            _cubic(x, y, m, x[a:b], np.arange(a, b), out[a:b])
    _cubic(x, y, m, x[last:], np.array([last - 1]), out[last:])
    return out


def _finite_coefficients(x: np.ndarray, y: np.ndarray, m: np.ndarray) -> bool:
    """Whether every coefficient of the cubics on nodes ``x`` is finite, by
    a bound on magnitudes; a NaN anywhere fails it.

    With Y = max|y|, M = max|m|, h the smallest step and g = max(1, 1/h),
    each coefficient and each intermediate of forming it is at most
    8 (Y + M) g^3 before rounding, so a bound of twice that below the
    largest double leaves room for the roundings on the way.
    """
    y_max = max(float(y.max()), -float(y.min()))
    m_max = max(float(m.max()), -float(m.min()))
    g = max(1.0, 1.0 / float((x[1:] - x[:-1]).min()))
    return 16.0 * (y_max + m_max) * g * g * g <= sys.float_info.max


@dataclass(frozen=True, eq=False)
class CrispTrajectory:
    """RK4 trajectory on a uniform J grid with cubic Hermite dense output."""

    js: np.ndarray
    states: np.ndarray  # (n_nodes, dim)
    slopes: np.ndarray  # rhs values at the nodes

    def at(self, j):
        """Dense evaluation at J values inside the integration span."""
        return _hermite(self.js, self.states, self.slopes, j)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _uniform_grid(j_span, steps: int, name: str) -> tuple[np.ndarray, float]:
    """Nodes and step of a uniform RK4 grid over an increasing finite span,
    a pair (j0, j1); ``steps`` is a count of at least 16, called ``name`` in
    errors."""
    steps = count(steps, name, 16)
    try:
        j0, j1 = j_span
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ValidationError(f"j_span must be a pair (j0, j1), got {j_span!r}") from None
    j0, j1 = float(j0), float(j1)
    if not (np.isfinite(j0) and np.isfinite(j1)) or j1 <= j0:
        raise ValidationError(f"integration span must be increasing, got [{j0}, {j1}]")
    js = np.linspace(j0, j1, steps + 1)
    if not np.all(js[1:] > js[:-1]):
        raise ValidationError(
            f"integration span [{j0!r}, {j1!r}] is too narrow for {steps} steps: "
            "grid nodes coincide"
        )
    h = (j1 - j0) / steps
    # the dense output divides by the step twice; past this its coefficients overflow
    if math.isinf(1.0 / h / h):
        raise ValidationError(
            f"integration span [{j0!r}, {j1!r}] is too narrow for {steps} steps: "
            "the step's inverse square overflows"
        )
    return js, h


def _raise_divergence(js: np.ndarray, k: int):
    """Report a state that became non-finite on the step from js[k] to js[k + 1]."""
    raise DivergenceError(
        f"state became non-finite between J={js[k]} and J={js[k + 1]}",
        last_valid=float(js[k]),
    )


def solve_crisp_in_J(rhs: Callable, x0, j_span, steps: int) -> CrispTrajectory:
    """Classical 4th-order integration of dy/dJ = rhs(J, y) on a uniform grid.

    ``rhs`` receives and returns numpy arrays; scalars are promoted to
    1-vectors. A non-finite state aborts with the last valid J attached.
    """
    js, h = _uniform_grid(j_span, steps, "steps")
    y = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if y.ndim != 1:
        raise ValidationError("initial state must be a scalar or 1-d array")
    states = np.empty((steps + 1, y.size))
    slopes = np.empty_like(states)
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected explicitly
        for k in range(steps):
            jk = js[k]
            k1 = np.asarray(rhs(jk, y), dtype=float)
            k2 = np.asarray(rhs(jk + 0.5 * h, y + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(rhs(jk + 0.5 * h, y + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(rhs(jk + h, y + h * k3), dtype=float)
            slopes[k] = k1
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                _raise_divergence(js, k)
            states[k + 1] = y
        slopes[-1] = np.asarray(rhs(js[-1], y), dtype=float)
    return CrispTrajectory(js=js, states=states, slopes=slopes)


# Widest band, in levels, integrated in Python floats by _rk4_linear. The
# float kernel's time grows with the level count and the in-place kernel's
# per-step ufunc dispatch does not. Over 4096 steps (best of 21, widths 2-16)
# the two cross between 9 and 10 levels, for swapped and unswapped bands
# alike, so 8 stays on the float kernel's side.
_FLOAT_LEVELS = 8


def _path(lowers, uppers) -> np.ndarray:
    """The row of a band system in path order: the lowers by rising level,
    then the uppers by falling level, the walk round the band that
    ``fuzzy_core._exactly_ordered`` takes. In it the swap P of the lower and
    upper bands is the reversal of the row."""
    return np.concatenate((lowers, np.flip(uppers)))


def _linear_steps_inplace(a, c: np.ndarray, flip: bool, h: float, states, slopes) -> None:
    """Fill states[1:] and slopes of the band system from states[0] with
    18 ufunc calls per step, whatever the band width. Every stage is written
    in place into preallocated 1-d buffers: k1 straight into the slope
    table, the new state straight into the state table, and k2 and k3 as
    the rows of one buffer, so one call doubles both (exactly).

    Each row and ``c`` are in path order (see :func:`_path`), so with
    ``flip`` set P is the reversal of the row: a 1-d view with a negative
    stride, which numpy runs on its strided fast path, not row by row as it
    does a 2-d view with a negative row stride."""
    yt, k4 = np.empty_like(c), np.empty_like(c)
    k23 = np.empty((2, c.size))
    k2, k3 = k23
    # P applied as a view; 0-d arrays are the cheapest scalars to pass to a ufunc.
    # Each row of p_states is the 1-d reversal of a state row.
    p_states, p_yt = (states[:, ::-1], yt[::-1]) if flip else (states, yt)
    a, two, half, h, sixth = (np.array(v) for v in (a, 2.0, 0.5 * h, h, h / 6.0))
    mul, add = np.multiply, np.add
    for k in range(states.shape[0] - 1):
        y, k1 = states[k], slopes[k]
        mul(p_states[k], a, k1)
        add(k1, c, k1)
        mul(k1, half, yt)
        add(yt, y, yt)
        mul(p_yt, a, k2)
        add(k2, c, k2)
        mul(k2, half, yt)
        add(yt, y, yt)
        mul(p_yt, a, k3)
        add(k3, c, k3)
        mul(k3, h, yt)
        add(yt, y, yt)
        mul(p_yt, a, k4)
        add(k4, c, k4)
        # ((k1 + 2 k2) + 2 k3) + k4
        mul(k23, two, k23)
        add(k2, k1, k2)
        add(k2, k3, k2)
        add(k2, k4, k2)
        mul(k2, sixth, k2)
        add(y, k2, states[k + 1])
    mul(p_states[-1], a, slopes[-1])
    add(slopes[-1], c, slopes[-1])


def _linear_steps_floats(a, c: np.ndarray, flip: bool, h: float, states, slopes) -> None:
    """Fill states[1:] and slopes like :func:`_linear_steps_inplace`, one
    level's (lower, upper) pair at a time in Python floats: path entries i
    and -1 - i. Each stage repeats the in-place kernel's operations in the
    same order and association (a product and a sum commute exactly), so
    the tables are bit-identical; the cost grows with the level count
    instead of being a fixed dispatch cost per step."""
    steps = states.shape[0] - 1
    a, half, sixth = float(a), 0.5 * h, h / 6.0
    y0, cs = states[0].tolist(), c.tolist()
    for i in range(c.size // 2):
        lo, up, c_lo, c_up = y0[i], y0[-1 - i], cs[i], cs[-1 - i]
        los, ups, k1s_lo, k1s_up = [], [], [], []
        for _ in range(steps):
            # (p_lo, p_up) is P applied to the stage state
            p_lo, p_up = (up, lo) if flip else (lo, up)
            k1_lo, k1_up = p_lo * a + c_lo, p_up * a + c_up
            t_lo, t_up = k1_lo * half + lo, k1_up * half + up
            p_lo, p_up = (t_up, t_lo) if flip else (t_lo, t_up)
            k2_lo, k2_up = p_lo * a + c_lo, p_up * a + c_up
            t_lo, t_up = k2_lo * half + lo, k2_up * half + up
            p_lo, p_up = (t_up, t_lo) if flip else (t_lo, t_up)
            k3_lo, k3_up = p_lo * a + c_lo, p_up * a + c_up
            t_lo, t_up = k3_lo * h + lo, k3_up * h + up
            p_lo, p_up = (t_up, t_lo) if flip else (t_lo, t_up)
            k4_lo, k4_up = p_lo * a + c_lo, p_up * a + c_up
            lo = lo + sixth * (((k1_lo + 2.0 * k2_lo) + 2.0 * k3_lo) + k4_lo)
            up = up + sixth * (((k1_up + 2.0 * k2_up) + 2.0 * k3_up) + k4_up)
            los.append(lo)
            ups.append(up)
            k1s_lo.append(k1_lo)
            k1s_up.append(k1_up)
        p_lo, p_up = (up, lo) if flip else (lo, up)
        k1s_lo.append(p_lo * a + c_lo)
        k1s_up.append(p_up * a + c_up)
        states[1:, i] = los
        states[1:, -1 - i] = ups
        slopes[:, i] = k1s_lo
        slopes[:, -1 - i] = k1s_up


def _rk4_linear(a: float, c, flip: bool, y0, j_span, steps: int) -> CrispTrajectory:
    """RK4 for the band system y' = a*P*y + c from y0, with y, c and y0
    rows in path order (see :func:`_path`) and P the reversal of the row
    when ``flip`` is set, the identity otherwise.

    The same floating-point operations as :func:`solve_crisp_in_J` driven by
    ``LinearRhs.lower``/``upper``, in the same order and association, so the
    result is bit-identical; only the per-call overhead is gone. Two kernels
    fill the tables with the same bits: a band of at most ``_FLOAT_LEVELS``
    levels (the 0/1-cut path among them) runs :func:`_linear_steps_floats`,
    a wider one :func:`_linear_steps_inplace`. Over 4096 steps (best of 21,
    2 vCPUs, Python 3.11, numpy 2.4) the float kernel takes 7 ms for 2
    levels and 27 ms for 8 against 32 ms in place at either width, bands
    swapped or not; the two cross between 9 and 10 levels whatever the step
    count, since both are linear in it.
    """
    js, h = _uniform_grid(j_span, steps, "j_steps")
    states = np.empty((js.size, c.size))
    slopes = np.empty_like(states)
    states[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected below
        if c.size <= 2 * _FLOAT_LEVELS:
            _linear_steps_floats(a, c, flip, h, states, slopes)
        else:
            _linear_steps_inplace(a, c, flip, h, states, slopes)
    # a non-finite entry stays non-finite in this recurrence, so the first
    # non-finite row is where a per-step check would have stopped
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        _raise_divergence(js, int(np.argmin(finite)))
    return CrispTrajectory(js=js, states=states, slopes=slopes)


def _rk4_func(rhs, swap: bool, rs: np.ndarray, y0, j_span, steps: int) -> CrispTrajectory:
    """RK4 for the band system of a ``FuncRhs`` or a ``LinearRhs`` subclass
    from y0, with y and y0 rows in path order (see :func:`_path`): the lower
    band's slope is ``rhs.lower``, the upper band's ``rhs.upper``, the two
    traded when ``swap`` is set.

    The operations of :func:`solve_crisp_in_J` driven through the two
    callbacks, in the same order and association and at the same J values,
    so the tables are bit-identical; its per-call overhead is gone. Stages
    are written in place into preallocated rows, as in
    :func:`_linear_steps_inplace`. Each callback gets read-only views of one
    stored or stage row and of ``rs``, and its result, once checked to hold
    one value per level, is copied into a stage row, so a result that is
    the callback's own input never aliases a buffer the loop writes. A row
    is checked once per step, after the update, so no callback is handed a
    non-finite state.
    """
    js, h = _uniform_grid(j_span, steps, "j_steps")
    n = rs.size
    states = np.empty((js.size, 2 * n))
    slopes = np.empty_like(states)
    states[0] = y0
    yt, k4 = np.empty(2 * n), np.empty(2 * n)
    k23 = np.empty((2, 2 * n))
    k2, k3 = k23
    zeros = np.zeros(2 * n)
    shape = (n,)
    sides = ("upper", "lower") if swap else ("lower", "upper")
    f_lo, f_up = (getattr(rhs, side) for side in sides)

    def bands(rows):
        """Level k at index k of both bands: views of path-order rows."""
        return rows[..., :n], rows[..., : n - 1 : -1]

    (s_lo, s_up), (t_lo, t_up), levels = bands(states), bands(yt), rs.view()
    for view in (s_lo, s_up, t_lo, t_up, levels):
        view.flags.writeable = False  # a callback that writes into its input raises
    (k1_lo, k1_up), (k2_lo, k2_up), (k3_lo, k3_up), (k4_lo, k4_up) = map(
        bands, (slopes, k2, k3, k4)
    )

    def stage(J, lo, up):
        dlo = np.asarray(f_lo(J, lo, up, levels), dtype=float)
        dup = np.asarray(f_up(J, lo, up, levels), dtype=float)
        if dlo.shape != shape or dup.shape != shape:
            side, d = (sides[0], dlo) if dlo.shape != shape else (sides[1], dup)
            raise ValidationError(
                f"{type(rhs).__name__} {side} returned shape {d.shape}, expected {shape}"
            )
        return dlo, dup
    two, half, hh, sixth = (np.array(v) for v in (2.0, 0.5 * h, h, h / 6.0))
    mul, add = np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected explicitly
        for k, (j0, jm, j1) in enumerate(zip(js[:-1], js[:-1] + 0.5 * h, js[:-1] + h)):
            y, k1 = states[k], slopes[k]
            k1_lo[k], k1_up[k] = stage(j0, s_lo[k], s_up[k])
            mul(k1, half, yt)
            add(yt, y, yt)
            k2_lo[...], k2_up[...] = stage(jm, t_lo, t_up)
            mul(k2, half, yt)
            add(yt, y, yt)
            k3_lo[...], k3_up[...] = stage(jm, t_lo, t_up)
            mul(k3, hh, yt)
            add(yt, y, yt)
            k4_lo[...], k4_up[...] = stage(j1, t_lo, t_up)
            # ((k1 + 2 k2) + 2 k3) + k4
            mul(k23, two, k23)
            add(k2, k1, k2)
            add(k2, k3, k2)
            add(k2, k4, k2)
            mul(k2, sixth, k2)
            # 0 * x is 0 for finite x and NaN for inf or NaN, so the dot
            # with zeros is finite exactly when every entry is
            if not math.isfinite(add(y, k2, states[k + 1]).dot(zeros)):
                _raise_divergence(js, k)
        k1_lo[-1], k1_up[-1] = stage(js[-1], s_lo[-1], s_up[-1])
    return CrispTrajectory(js=js, states=states, slopes=slopes)


# ---------------------------------------------------------------------------
# first-order problems


class LinearRhs:
    """Right-hand side a*x + c for a real coefficient and fuzzy constant c."""

    def __init__(self, a: float, c: FuzzyNumber):
        self.a = float(a)
        self.c = c

    def lower(self, J, lo, up, rs):
        clo, _ = self.c.cuts_at(rs)
        return (self.a * lo if self.a >= 0.0 else self.a * up) + clo

    def upper(self, J, lo, up, rs):
        _, chi = self.c.cuts_at(rs)
        return (self.a * up if self.a >= 0.0 else self.a * lo) + chi


class FuncRhs:
    """Parametric right-hand side (f_lower, f_upper) of a first-order problem,
    built from two endpoint callables.

    Both sides receive (J, lower_band, upper_band, levels), with level k at
    index k of both bands, and return one value per level: a result that
    ``np.asarray(..., dtype=float)`` does not make shape (n,), for n levels,
    raises a ``ValidationError`` naming the side and both shapes. Exposing
    both bands to both sides is what lets case II couple the endpoint
    equations.

    The band arguments are read-only views of the solver's own rows, valid
    only during the call: writing into one raises, and a callback that holds
    on to them past the call must keep a copy. The levels are a read-only
    view of the solution's level grid. The result is copied, so a callback
    may return a band argument as it is.
    """

    def __init__(self, lower_fn: Callable, upper_fn: Callable):
        self.lower = lower_fn
        self.upper = upper_fn


# Largest solution grid a problem may ask for, checked before anything is
# allocated: j_steps x r_points (and u_points x r_points) for a first-order
# problem, (steps + 1) x r_points for the BVP's kappa table. The largest
# grid in the tests and the benchmark, 4096 x 101, is about a tenth of it.
MAX_GRID_CELLS = 2**22


def _check_grid_size(what: str, cells) -> None:
    if cells > MAX_GRID_CELLS:
        raise ValidationError(
            f"grid too large: {what} = {cells:.4g} cells, the cap is {MAX_GRID_CELLS}"
        )


@dataclass(frozen=True)
class FirstOrderFfdeProblem:
    """First-order fuzzy initial-value problem in parametric form.

    ``span`` is the parameter interval to solve over; the staircase table
    supplies J. ``case`` selects the differentiability convention: "I"
    (bands may widen) or "II" (bands shrink, endpoint equations swapped).
    """

    table: StaircaseTable
    rhs: LinearRhs | FuncRhs
    x0: FuzzyNumber
    span: tuple[float, float]
    case: str
    r_points: int = DEFAULT_R_LEVELS
    j_steps: int = 256
    u_points: int | None = None

    def __post_init__(self):
        one_of(self.case, "case", ("I", "II"))
        try:
            u0, u1 = self.span
        except (TypeError, ValueError):  # not iterable, or not two entries
            raise ValidationError(f"span must be a pair (u0, u1), got {self.span!r}") from None
        u0, u1 = sub_interval(u0, u1, *self.table.domain, "span")
        # each count before its cap, and the J grid's nodes only once capped
        count(self.r_points, "r_points", 2)
        count(self.j_steps, "j_steps", 16)
        _check_grid_size("j_steps x r_points", self.j_steps * self.r_points)
        if self.u_points is not None:
            count(self.u_points, "u_points", 2)
            _check_grid_size("u_points x r_points", self.u_points * self.r_points)
        J0, J1 = J_at(self.table, u0), J_at(self.table, u1)
        if J1 <= J0:
            raise ValidationError("staircase does not advance over the span (flat J)")
        _uniform_grid((J0, J1), self.j_steps, "j_steps")
        object.__setattr__(self, "span", (u0, u1))


@dataclass(frozen=True, eq=False)
class FuzzySolution:
    """Solution band table over a parameter grid and a level grid.

    ``lower``/``upper`` have shape (len(us), len(rs)). ``validity`` marks
    the parameter rows whose level slice is a valid fuzzy number; rows past
    a case-II horizon stay in the table with validity False.
    """

    us: np.ndarray
    Js: np.ndarray
    rs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    validity: np.ndarray
    case: str

    @property
    def validity_horizon(self) -> float:
        """Largest parameter value up to which every earlier slice is valid."""
        prefix = int(np.logical_and.accumulate(self.validity).sum())
        return float(self.us[max(prefix - 1, 0)])

    def r_slice(self, i: int) -> FuzzyNumber:
        if not self.validity[i]:
            raise ValidationError(f"slice at u={self.us[i]} is not a valid fuzzy number")
        return FuzzyNumber(self.rs, self.lower[i], self.upper[i])

    def summary(self) -> dict:
        return {
            "case": self.case,
            "u_points": int(self.us.size),
            "r_points": int(self.rs.size),
            "valid_rows": int(np.count_nonzero(self.validity)),
            "validity_horizon": self.validity_horizon,
        }


def _integrate_bands(problem: FirstOrderFfdeProblem, rs: np.ndarray, swap: bool) -> CrispTrajectory:
    """The band trajectory over the problem's J span, in path-order rows."""
    rhs = problem.rhs
    y0 = _path(*problem.x0.cuts_at(rs))
    J0 = J_at(problem.table, problem.span[0])
    J1 = J_at(problem.table, problem.span[1])
    # exact type: a subclass may override lower/upper. LinearRhs multiplies
    # the opposite band when a < 0; case II swaps the two equations, which
    # trades the constants and flips the band once more
    if type(rhs) is LinearRhs:
        clo, chi = rhs.c.cuts_at(rs)
        c = _path(chi, clo) if swap else _path(clo, chi)
        flip = (rhs.a < 0.0) != swap
        return _rk4_linear(rhs.a, c, flip, y0, (J0, J1), problem.j_steps)
    return _rk4_func(rhs, swap, rs, y0, (J0, J1), problem.j_steps)


def _cuts_exact(problem: FirstOrderFfdeProblem) -> bool:
    """Whether the 0/1-cut assembly solves the problem: the band system is
    linear (an exact LinearRhs; a subclass may override lower/upper) and its
    data is level-linear, so every level is the interpolation of the two."""
    rhs = problem.rhs
    return type(rhs) is LinearRhs and _level_linear(problem.x0) and _level_linear(rhs.c)


def solve_first_order(problem: FirstOrderFfdeProblem, method: str = "full") -> FuzzySolution:
    """Solve under the problem's declared case.

    Case I integrates the endpoint equations as given. Case II drives the
    lower endpoint by the upper equation and vice versa; its bands can stop
    being fuzzy numbers at finite J, so the solution carries per-row
    validity flags and a validity horizon. ``method="cuts"`` integrates only
    the 0- and 1-cuts and interpolates the levels between them, which is
    exact only for a LinearRhs with level-linear ``x0`` and ``c``; any
    other problem is refused.
    """
    one_of(method, "method", ("full", "cuts"))
    if method == "cuts" and not _cuts_exact(problem):
        raise ValidationError("method 'cuts' needs a LinearRhs with level-linear x0 and c; use 'full'")
    swap = problem.case == "II"
    rs = default_r_grid(problem.r_points)
    n = rs.size
    u0, u1 = problem.span
    n_u = problem.u_points if problem.u_points is not None else problem.j_steps + 1
    us = np.linspace(u0, u1, n_u)
    Jus = J_at(problem.table, us)

    if method == "full":
        # neither the trajectory nor the dense table outlives the split into
        # bands, so both are freed before the validity pass
        vals = _integrate_bands(problem, rs, swap).at(Jus)
        lower = vals[:, :n].copy()
        upper = vals[:, : n - 1 : -1].copy()
        del vals
    else:
        cut_rs = np.array([0.0, 1.0])
        vals = _integrate_bands(problem, cut_rs, swap).at(Jus)
        lo_c, up_c = vals[:, :2], vals[:, :1:-1]
        w1 = rs[None, :]
        w0 = 1.0 - w1
        lower = w0 * lo_c[:, 0:1] + w1 * lo_c[:, 1:2]
        upper = w0 * up_c[:, 0:1] + w1 * up_c[:, 1:2]

    lo0, up0 = problem.x0.cuts_at(rs)
    lower[0] = lo0  # the initial slice is copied, not integrated
    upper[0] = up0
    # a row is valid exactly when the FuzzyNumber constructor accepts it, so r_slice succeeds
    validity = ~_rejected_rows(lower, upper)
    if not np.any(validity[1:]):
        warnings.warn(
            "no valid fuzzy slice beyond the initial point; the requested case does not "
            "apply on this span",
            RuntimeWarning,
            stacklevel=2,
        )
    return FuzzySolution(
        us=us,
        Js=Jus,
        rs=rs,
        lower=lower,
        upper=upper,
        validity=validity,
        case=problem.case,
    )


# ---------------------------------------------------------------------------
# verification harness


@dataclass(frozen=True)
class VerificationReport:
    max_error: float
    rms_error: float
    n_points: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol

    def to_dict(self) -> dict:
        return {
            "max_error": self.max_error,
            "rms_error": self.rms_error,
            "n_points": self.n_points,
            "tol": self.tol,
            "passed": self.passed,
        }


def verify_against_closed_form(
    sol: FuzzySolution,
    band_fn: Callable,
    tol: float = 1e-6,
    restrict_to_valid: bool = False,
) -> VerificationReport:
    """Compare a solution's endpoint bands with a closed-form band formula.

    ``band_fn(J, r)`` must broadcast over a (len(us), 1) J column and a
    (1, len(rs)) level row and return (lower, upper). With
    ``restrict_to_valid`` only rows flagged valid enter the error. ``tol``
    must be finite and non-negative.
    """
    _check_tol(tol)
    lo_ref, up_ref = band_fn(sol.Js[:, None], sol.rs[None, :])
    err = np.maximum(np.abs(sol.lower - lo_ref), np.abs(sol.upper - up_ref))
    if restrict_to_valid:
        err = err[sol.validity]
    if err.size == 0:
        raise ValidationError("no points to verify (no valid rows)")
    return VerificationReport(
        max_error=float(np.max(err)),
        rms_error=float(np.sqrt(np.mean(err**2))),
        n_points=int(err.size),
        tol=float(tol),
    )


# ---------------------------------------------------------------------------
# csv persistence


def solution_to_csv(sol: FuzzySolution, target) -> None:
    """Write ``u,J,r,lower,upper,valid`` rows, row-major over u then r,
    at full double precision.

    The body is formatted and written a block of ``_block_rows`` u-rows at a
    time, so no table of the whole body's cells is ever built."""
    n_u, n_r = sol.lower.shape
    # n_r lines per u; u, J and the flag are formatted once per u, r once per level
    lines = "".join(f"%s,{r},%.17g,%.17g,%d\n" for r in format_columns(sol.rs).splitlines())
    step = _block_rows(n_r)
    blocks = (_csv_block(sol, slice(a, a + step), lines) for a in range(0, n_u, step))
    write_csv(target, "u,J,r,lower,upper,valid", blocks)


def _csv_block(sol: FuzzySolution, rows: slice, lines: str) -> str:
    """The CSV lines of the u-rows ``rows``, through the per-u format ``lines``."""
    lower = sol.lower[rows]
    cells = np.empty(lower.shape + (4,), dtype=object)
    uj = format_columns(sol.us[rows], sol.Js[rows]).splitlines()
    cells[..., 0] = np.array(uj, dtype=object)[:, None]
    cells[..., 1] = lower
    cells[..., 2] = sol.upper[rows]
    cells[..., 3] = sol.validity[rows].astype(int)[:, None]
    return format_table(lines, cells.reshape(lower.shape[0], -1))


def solution_from_csv(source, case: str = "unknown") -> FuzzySolution:
    """Reload a solution written by :func:`solution_to_csv`."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    header, _, body = text.lstrip().partition("\n")
    if header.strip() != "u,J,r,lower,upper,valid":
        raise ValidationError("not a solution CSV (bad header)")
    if not body or body.isspace():
        raise ValidationError("malformed solution CSV body (no rows)")
    try:  # one C-level parse; blank lines are skipped
        data = np.loadtxt(body.splitlines(), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # numpy appends advice on `usecols` after a semicolon
        raise ValidationError(f"malformed solution CSV body: {str(exc).split(';')[0]}") from None
    if data.shape[1] != 6:
        raise ValidationError("malformed solution CSV body (need 6 columns)")
    col_r = data[:, 2]
    wraps = np.flatnonzero(np.diff(col_r) < 0)
    n_r = int(wraps[0] + 1) if wraps.size else data.shape[0]
    if data.shape[0] % n_r != 0:
        raise ValidationError("solution CSV rows do not form a full u x r grid")
    n_u = data.shape[0] // n_r
    blocks = data.reshape(n_u, n_r, 6)
    # every u-block repeats the first block's r column, and its rows share one
    # u, J and 0/1 flag (NaN fails every comparison, so it is refused too)
    if not (blocks[:, :, 2] == blocks[0, :, 2]).all():
        raise ValidationError("solution CSV u-blocks do not share one r column")
    try:  # FuzzyNumber's rule for a level grid, which r_slice needs
        _check_level_grid(data[:n_r, 2])
    except ValidationError as exc:
        raise ValidationError(f"solution CSV r column: {exc}") from None
    if not np.isin(data[:, 5], (0.0, 1.0)).all():
        raise ValidationError("solution CSV 'valid' column must hold 0 or 1")
    if not (blocks[:, :, [0, 1, 5]] == blocks[:, :1, [0, 1, 5]]).all():
        raise ValidationError("solution CSV rows of one u-block differ in u, J or valid")
    return FuzzySolution(
        us=data[::n_r, 0].copy(),
        Js=data[::n_r, 1].copy(),
        rs=data[:n_r, 2].copy(),
        lower=data[:, 3].reshape(n_u, n_r),
        upper=data[:, 4].reshape(n_u, n_r),
        validity=data[::n_r, 5] != 0.0,
        case=case,
    )


# ---------------------------------------------------------------------------
# second-order boundary-value problem


@dataclass(frozen=True)
class SecondOrderFuzzyBvp:
    """x'' + p x' + q x = g(J) in the J coordinate with triangular fuzzy
    boundary values at the ends of ``j_span``. Only the boundary data is
    fuzzy; the operator coefficients are crisp constants.

    ``forcing`` must accept a 1-d array of J values and return one value per
    point (or a scalar, for a constant forcing): the solver evaluates it once
    on all RK4 stage nodes, and :func:`ode_residual_max` on the grid. A
    forcing that gives the same bits on an array as on each scalar, such as
    one written through ``np.asarray``, solves bit-identically to a
    point-by-point evaluation; a bare ``J**2`` does not (numpy squares an
    array but calls libm ``pow`` on a scalar, 1 ulp apart on ~0.1% of
    values), so its solution moves within rounding only.

    ``r_points`` kappa levels make the table of
    :meth:`SecondOrderSolution.to_solution`, held to ``MAX_GRID_CELLS`` here.
    """

    p: float
    q: float
    forcing: Callable
    boundary_start: TriangularFuzzy
    boundary_end: TriangularFuzzy
    j_span: tuple[float, float] = (0.0, 1.0)
    steps: int = 512
    r_points: int = DEFAULT_R_LEVELS

    def __post_init__(self):
        count(self.r_points, "r_points", 2)
        count(self.steps, "steps", 16)
        _check_grid_size("(steps + 1) x r_points", (self.steps + 1) * self.r_points)
        _uniform_grid(self.j_span, self.steps, "steps")
        object.__setattr__(self, "j_span", (float(self.j_span[0]), float(self.j_span[1])))


def _fundamental_pair(p: float, q: float):
    """Two independent solutions of x'' + p x' + q x = 0."""
    disc = p * p - 4.0 * q
    m = -0.5 * p
    eps = 1e-12 * max(1.0, p * p, abs(4.0 * q))
    if disc > eps:
        s = 0.5 * np.sqrt(disc)
        return (lambda J: np.exp((m + s) * J)), (lambda J: np.exp((m - s) * J))
    if disc < -eps:
        w = 0.5 * np.sqrt(-disc)
        return (
            lambda J: np.exp(m * J) * np.cos(w * J),
            lambda J: np.exp(m * J) * np.sin(w * J),
        )
    return (lambda J: np.exp(m * J)), (lambda J: J * np.exp(m * J))


@dataclass(frozen=True, eq=False)
class SecondOrderSolution:
    """Crisp solution plus uncertainty envelope of a fuzzy-boundary BVP.

    ``crisp`` solves the problem with the boundary peaks; ``un_lower`` /
    ``un_upper`` are the support band of the homogeneous uncertainty part.
    The band at membership level kappa is crisp + (1 - kappa) * envelope,
    so kappa = 1 collapses to the crisp solution exactly.
    """

    js: np.ndarray
    crisp: np.ndarray
    crisp_slope: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    un_lower: np.ndarray
    un_upper: np.ndarray
    boundary_matrix: np.ndarray
    problem: SecondOrderFuzzyBvp

    def crisp_at(self, j):
        return _hermite(self.js, self.crisp, self.crisp_slope, j)

    def q_at(self, j):
        """Interpolation weights (q1, q2) of the boundary uncertainty at J
        inside the integrated span."""
        inside(j, self.js[0], self.js[-1], "J")
        x1, x2 = _fundamental_pair(self.problem.p, self.problem.q)
        p_row = np.array([x1(j), x2(j)], dtype=float)
        return np.linalg.solve(self.boundary_matrix.T, p_row)

    def kappa_band(self, kappa: float) -> tuple[np.ndarray, np.ndarray]:
        inside(kappa, 0, 1, f"kappa={kappa}")
        w = 1.0 - kappa
        return self.crisp + w * self.un_lower, self.crisp + w * self.un_upper

    def to_solution(self) -> FuzzySolution:
        """Band table over the problem's ``r_points`` evenly spaced kappa
        levels from 0 to 1, in the FuzzySolution layout, with rows flagged
        valid by the same rule as a first-order solve."""
        kappas = default_r_grid(self.problem.r_points)
        w = (1.0 - kappas)[None, :]
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf in rows rejected below
            lower = self.crisp[:, None] + w * self.un_lower[:, None]
            upper = self.crisp[:, None] + w * self.un_upper[:, None]
        return FuzzySolution(
            us=self.js.copy(),
            Js=self.js.copy(),
            rs=kappas,
            lower=lower,
            upper=upper,
            validity=~_rejected_rows(lower, upper),
            case="kappa",
        )


def _rk4_shoot(p: float, q: float, g: np.ndarray, x0: float, js: np.ndarray, h: float):
    """RK4 for the two shooting systems of the BVP, advanced together in one
    loop over Python floats: the forced (x, v)' = (v, (g - p v) - q x) from
    (x0, 0) and the homogeneous (y, w)' = (w, -p w - q y) from (0, 1).

    ``g`` is the forcing on the stage nodes, shape (3, steps): J_k,
    J_k + h/2 and J_k + h. Every operation of :func:`solve_crisp_in_J`
    driven by the two right-hand sides is repeated in the same order and
    association, so the states are bit-identical; the per-step arrays and
    calls are gone. Returns the columns x, v, y, w over ``js``.
    """
    p, q, half, sixth = float(p), float(q), 0.5 * h, h / 6.0
    x, v, y, w = float(x0), 0.0, 0.0, 1.0
    xs, vs, ys, ws = [x], [v], [y], [w]
    for g1, g2, g4 in zip(*g.tolist()):
        # k = (velocity, acceleration) at the four stages; stage states are
        # state + (h/2) k1, state + (h/2) k2, state + h k3
        a1 = (g1 - p * v) - q * x
        x2, v2 = x + half * v, v + half * a1
        a2 = (g2 - p * v2) - q * x2
        x3, v3 = x + half * v2, v + half * a2
        a3 = (g2 - p * v3) - q * x3
        x4, v4 = x + h * v3, v + h * a3
        a4 = (g4 - p * v4) - q * x4
        x += sixth * (((v + 2.0 * v2) + 2.0 * v3) + v4)
        v += sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)

        # no forcing term here: (0.0 - p w) and -p w differ on signed zeros
        b1 = -p * w - q * y
        y2, w2 = y + half * w, w + half * b1
        b2 = -p * w2 - q * y2
        y3, w3 = y + half * w2, w + half * b2
        b3 = -p * w3 - q * y3
        y4, w4 = y + h * w3, w + h * b3
        b4 = -p * w4 - q * y4
        y += sixth * (((w + 2.0 * w2) + 2.0 * w3) + w4)
        w += sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)

        xs.append(x)
        vs.append(v)
        ys.append(y)
        ws.append(w)
    # a non-finite float stays non-finite in this recurrence, so the first
    # non-finite row is where a per-step check would stop; the forced solve
    # is checked before the homogeneous one
    cols = np.array([xs, vs, ys, ws])
    for pair in (cols[:2], cols[2:]):
        finite = np.isfinite(pair[:, 1:]).all(axis=0)
        if not finite.all():
            _raise_divergence(js, int(np.argmin(finite)))
    return cols


def solve_second_order_bvp(problem: SecondOrderFuzzyBvp) -> SecondOrderSolution:
    """Linear shooting for the crisp part, fundamental-pair interpolation
    weights for the uncertainty part.

    The crisp problem uses the boundary peaks; its forced and homogeneous
    shooting solves run together in :func:`_rk4_shoot`. The uncertainty envelope is
    q1(J) * (start band) + q2(J) * (end band) where the weights are the
    fundamental row times the inverse boundary matrix, computed by solving
    the 2x2 systems rather than inverting.
    """
    p, q = problem.p, problem.q
    j0, j1 = problem.j_span
    peak0 = problem.boundary_start.b
    peak1 = problem.boundary_end.b

    js, h = _uniform_grid((j0, j1), problem.steps, "steps")
    nodes = np.concatenate((js[:-1], js[:-1] + 0.5 * h, js[:-1] + h))
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected explicitly
        g = per_point(problem.forcing(nodes), nodes, "forcing").reshape(3, -1)
    x, v, y, w = _rk4_shoot(p, q, g, peak0, js, h)
    den = float(y[-1])
    if abs(den) <= 1e-12 * max(1.0, abs(peak1), abs(float(x[-1]))):
        raise DivergenceError("shooting failed: homogeneous solution vanishes at the far end")
    c = (peak1 - float(x[-1])) / den

    x1, x2 = _fundamental_pair(p, q)
    M = np.array([[float(x1(j0)), float(x2(j0))], [float(x1(j1)), float(x2(j1))]])
    scale = max(1.0, float(np.max(np.abs(M))))
    if abs(float(np.linalg.det(M))) <= 1e-12 * scale * scale:
        raise ConditioningError("boundary matrix of the fundamental pair is singular")

    P = np.stack([np.asarray(x1(js), dtype=float), np.asarray(x2(js), dtype=float)], axis=1)
    W = np.linalg.solve(M.T, P.T).T
    q1, q2 = W[:, 0], W[:, 1]

    b0 = problem.boundary_start
    b1 = problem.boundary_end
    lo0, hi0 = b0.a - b0.b, b0.c - b0.b  # boundary bands centered on their peaks
    lo1, hi1 = b1.a - b1.b, b1.c - b1.b
    # a wide finite band can overflow here; to_solution flags such rows invalid
    with np.errstate(over="ignore", invalid="ignore"):
        un_lower = np.minimum(q1 * lo0, q1 * hi0) + np.minimum(q2 * lo1, q2 * hi1)
        un_upper = np.maximum(q1 * lo0, q1 * hi0) + np.maximum(q2 * lo1, q2 * hi1)

    return SecondOrderSolution(
        js=js,
        crisp=x + c * y,
        crisp_slope=v + c * w,
        q1=q1,
        q2=q2,
        un_lower=un_lower,
        un_upper=un_upper,
        boundary_matrix=M,
        problem=problem,
    )


def ode_residual_max(js: np.ndarray, xs: np.ndarray, p: float, q: float, forcing: Callable) -> float:
    """Finite-difference residual of x'' + p x' + q x - g on a uniform grid.

    Fourth-order central stencils on interior nodes; needs >= 5 nodes.
    """
    js = np.asarray(js, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if js.size != xs.size or js.size < 5:
        raise ValidationError("need matching grids with at least 5 nodes")
    hs = np.diff(js)
    h = hs[0]
    if not np.allclose(hs, h, rtol=1e-12, atol=0.0):
        raise ValidationError("residual stencils require a uniform grid")
    d1 = (-xs[4:] + 8.0 * xs[3:-1] - 8.0 * xs[1:-3] + xs[:-4]) / (12.0 * h)
    d2 = (-xs[4:] + 16.0 * xs[3:-1] - 30.0 * xs[2:-2] + 16.0 * xs[1:-3] - xs[:-4]) / (
        12.0 * h * h
    )
    res = d2 + p * d1 + q * xs[2:-2] - per_point(forcing(js[2:-2]), js[2:-2], "forcing")
    return float(np.max(np.abs(res)))
