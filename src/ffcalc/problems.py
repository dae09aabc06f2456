"""Built-in benchmark problems with closed-form solutions, and the JSON
problem-spec loader.

Both built-ins live on the unit segment, where the staircase coordinate
coincides with the parameter (J = u), so every closed form below is an
explicit function of J.
"""

from __future__ import annotations

import math

import numpy as np

from ._textio import _RUN_FIELDS, BUILTIN_NAMES, spec_fields, spec_integer, spec_kind, spec_number
from .errors import ValidationError
from .ffde import FirstOrderFfdeProblem, LinearRhs, SecondOrderFuzzyBvp
from .fractal_curve import StaircaseTable, build_staircase, curve_from_json, generate_polyline
from .fuzzy_core import DEFAULT_R_LEVELS, TriangularFuzzy, fuzzy_from_json, make_triangular

__all__ = [
    "unit_segment_table",
    "example1_problem",
    "example1_case1_band",
    "example1_case2_band",
    "EXAMPLE1_CASE2_HORIZON_J",
    "example2_bvp",
    "example2_crisp_closed_form",
    "BUILTIN_NAMES",
    "problem_from_json",
]

# J where the case-II band of example 1 stops being a fuzzy number
EXAMPLE1_CASE2_HORIZON_J = math.log(2.0)


def unit_segment_table() -> StaircaseTable:
    """Staircase of the unit segment at order 1: J(u) = u exactly."""
    segment = generate_polyline([0.0, 1.0], [(0.0, 0.0), (1.0, 0.0)])
    return build_staircase(segment, alpha=1.0, p0=0.0)


def example1_problem(
    case: str = "I",
    r_points: int = DEFAULT_R_LEVELS,
    j_steps: int = 256,
    u_points: int | None = None,
    table: StaircaseTable | None = None,
) -> FirstOrderFfdeProblem:
    """dx/dJ = x + c with band initial value [r, 2 - r] and c = [r - 1, 1 - r]."""
    return FirstOrderFfdeProblem(
        table=unit_segment_table() if table is None else table,
        rhs=LinearRhs(1.0, make_triangular(-1.0, 0.0, 1.0)),
        x0=make_triangular(0.0, 1.0, 2.0),
        span=(0.0, 1.0),
        case=case,
        r_points=r_points,
        j_steps=j_steps,
        u_points=u_points,
    )


def example1_case1_band(J, r):
    """Case-I closed form: [e^J (2r - 1) - r + 1, r - e^J (2r - 3) - 1]."""
    e = np.exp(J)
    return e * (2.0 * r - 1.0) - r + 1.0, r - e * (2.0 * r - 3.0) - 1.0


def example1_case2_band(J, r):
    """Case-II closed form, valid for J below ln 2:
    [e^J - r + (2r - 2) e^-J + 1, r + e^J - (2r - 2) e^-J - 1]."""
    e = np.exp(J)
    t = (2.0 * r - 2.0) / e
    return e - r + t + 1.0, r + e - t - 1.0


def example2_bvp(steps: int = 512, r_points: int = DEFAULT_R_LEVELS) -> SecondOrderFuzzyBvp:
    """x'' - 4 x' + 4 x = 1 - 2 J^2 with boundary bands (2,3,4) at J=0 and
    (1, 2, 2.5) at J=1, reported on ``r_points`` kappa levels."""
    return SecondOrderFuzzyBvp(
        p=-4.0,
        q=4.0,
        forcing=lambda J: 1.0 - 2.0 * np.asarray(J, dtype=float) ** 2,
        boundary_start=TriangularFuzzy(2.0, 3.0, 4.0),
        boundary_end=TriangularFuzzy(1.0, 2.0, 2.5),
        j_span=(0.0, 1.0),
        steps=steps,
        r_points=r_points,
    )


def example2_crisp_closed_form(J):
    """Crisp part of the example-2 solution (boundary peaks 3 and 2)."""
    J = np.asarray(J, dtype=float)
    return (
        -0.5 * (J + 1.0) ** 2
        + 3.5 * (1.0 - J) * np.exp(2.0 * J)
        + 4.0 * J * np.exp(2.0 * (J - 1.0))
    )


_RHS_KINDS = {"builtin": ("name",), "linear": ("a", "c")}
_LINEAR_FIELDS = ("alpha", "span", *_RUN_FIELDS)


def problem_from_json(spec: dict):
    """Build a solvable problem from a JSON object, never a string.

    ``rhs.kind`` selects between ``{"kind": "builtin", "name": ...}`` and
    ``{"kind": "linear", "a": ..., "c": {fuzzy}}``. The builtin "example2"
    returns a :class:`SecondOrderFuzzyBvp` and takes no ``case``; everything
    else returns a :class:`FirstOrderFfdeProblem`. The optional fields
    ``case`` ("I"), ``r_points`` (101) and ``j_steps`` (256) take the
    defaults shown; the last two must be JSON integers. A linear spec needs
    ``curve`` and ``x0`` and may set ``alpha`` (1.0) and ``span``. Any
    other field, here or in a nested object, is refused.
    """
    if not isinstance(spec, dict):
        raise ValidationError("problem spec must be a JSON object")
    kind, rhs_spec = spec_kind(spec.get("rhs"), "rhs", _RHS_KINDS)
    if kind == "builtin":
        name = rhs_spec["name"]
        if name not in BUILTIN_NAMES:
            raise ValidationError(f"unknown builtin name {name!r}")
        spec_fields(spec, f"builtin {name!r}", ("rhs",), _RUN_FIELDS)
    else:
        spec_fields(spec, "linear problem spec", ("rhs", "curve", "x0"), _LINEAR_FIELDS)

    r_points = spec_integer(spec.get("r_points", DEFAULT_R_LEVELS), "r_points")
    j_steps = spec_integer(spec.get("j_steps", 256), "j_steps")
    case = spec.get("case", "I")

    if kind == "builtin":
        if name == "example1":
            return example1_problem(case=case, r_points=r_points, j_steps=j_steps)
        if "case" in spec:
            raise ValidationError("builtin 'example2' is second order and takes no 'case'")
        return example2_bvp(steps=j_steps, r_points=r_points)

    rhs = LinearRhs(spec_number(rhs_spec["a"], "a"), fuzzy_from_json(rhs_spec["c"]))
    curve = curve_from_json(spec["curve"])
    x0 = fuzzy_from_json(spec["x0"])
    alpha = spec_number(spec.get("alpha", 1.0), "alpha")
    span = spec.get("span", [curve.a0, curve.b0])
    if not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise ValidationError("'span' must be a pair [u0, u1]")
    return FirstOrderFfdeProblem(
        table=build_staircase(curve, alpha=alpha),
        rhs=rhs,
        x0=x0,
        span=(spec_number(span[0], "span"), spec_number(span[1], "span")),
        case=case,
        r_points=r_points,
        j_steps=j_steps,
    )
