"""Real-valued calculus on a curve through the staircase coordinate.

The derivative replaces the usual denominator by increments of the
staircase value J, and the integral weights cells by their J increment,
so both reduce to ordinary d/dJ calculus wherever J is strictly
increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._textio import _check_tol, per_point, point, sub_interval
from .errors import DegenerateDenominatorError, IntegrityError, ValidationError
from .fractal_curve import FractalCurve, J_at, StaircaseTable, _vertex_knots

__all__ = ["FIntegralResult", "f_derivative", "f_integral"]


@dataclass(frozen=True)
class FIntegralResult:
    """Midpoint Riemann value together with a lower/upper sum bracket.

    Per-cell infima/suprema are approximated by the endpoint and midpoint
    samples (exact for cell-monotone integrands). ``converged`` flags a
    bracket narrower than the requested tolerance.
    """

    value: float
    lower_sum: float
    upper_sum: float
    n_cells: int
    converged: bool

    @property
    def bracket_width(self) -> float:
        return self.upper_sum - self.lower_sum

    def __float__(self):
        return self.value


def _step(table: StaircaseTable, u: float, h: float | None) -> float:
    """A difference stencil's step at u: ``h``, by default one vertex spacing
    at the working level; it must be positive."""
    if h is None:
        idx = int(np.clip(np.searchsorted(table.us, u, side="right") - 1, 0, table.us.size - 2))
        h = float(table.us[idx + 1] - table.us[idx])
    if not h > 0.0:  # NaN too
        raise ValidationError("step h must be positive")
    return h


def _increment(table: StaircaseTable, u0: float, u1: float, stencil: str) -> float:
    """J(u1) - J(u0), the denominator of a difference quotient over the
    ``stencil`` [u0, u1], which must lie in the domain and not be flat."""
    sub_interval(u0, u1, *table.domain, stencil)
    dJ = J_at(table, u1) - J_at(table, u0)
    if dJ == 0.0:
        raise DegenerateDenominatorError(f"staircase is flat across [{u0}, {u1}]")
    return dJ


def f_derivative(f, table: StaircaseTable, u: float, h: float | None = None) -> float:
    """Central difference quotient of f with denominator measured in J.

    ``h`` defaults to one vertex spacing at the working level. Requires
    the staircase to be strictly increasing across [u - h, u + h].
    """
    u = point(u, "parameter")
    h = _step(table, u, h)
    den = _increment(table, u - h, u + h, "stencil")
    return (float(f(u + h)) - float(f(u - h))) / den


def _cells(curve: FractalCurve, table: StaircaseTable, a: float | None, b: float | None):
    """Knots of the vertex subdivision of [a, b] (default: the table domain) and each cell's dJ."""
    a, b = sub_interval(a, b, *table.domain, "interval")
    sub_interval(a, b, curve.a0, curve.b0, "interval")
    knots = _vertex_knots(table.us, a, b)
    dJ = np.diff(np.interp(knots, table.us, table.Js))
    if np.any(dJ < 0.0):
        raise IntegrityError("staircase increments are negative; table is corrupt")
    return knots, dJ


def f_integral(
    f,
    curve: FractalCurve,
    table: StaircaseTable,
    a: float | None = None,
    b: float | None = None,
    bracket_tol: float = 1e-6,
) -> FIntegralResult:
    """Riemann sum of f over the sub-curve [a, b] with cell weights dJ.

    The value uses midpoint samples; the attached bracket uses per-cell
    min/max over the endpoint and midpoint samples, mirroring lower and
    upper sums. Summation is numpy's pairwise reduction, so the result is
    independent of any evaluation-order choice. ``f`` is any real function
    of u that accepts numpy arrays: it is called once per array of samples
    and returns one value per sample, or a scalar for all of them.
    ``bracket_tol`` must be finite and non-negative.
    """
    _check_tol(bracket_tol, "bracket_tol")
    knots, dJ = _cells(curve, table, a, b)
    mids = 0.5 * (knots[:-1] + knots[1:])
    fm, fl, fr = (per_point(f(x), x, "f") for x in (mids, knots[:-1], knots[1:]))
    value = float(np.sum(fm * dJ))
    lower = float(np.sum(np.minimum(np.minimum(fl, fr), fm) * dJ))
    upper = float(np.sum(np.maximum(np.maximum(fl, fr), fm) * dJ))
    width = upper - lower
    return FIntegralResult(
        value=value,
        lower_sum=lower,
        upper_sum=upper,
        n_cells=int(dJ.size),
        converged=bool(width <= bracket_tol * (1.0 + abs(value))),
    )
