"""The shared input rules of ``_textio`` at every public entry point that
uses them: the domain rule (a point in a closed domain, a sub-interval of
one), the named-option rule and the per-point rule for user functions."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import ffcalc
from ffcalc import (
    DomainError,
    FirstOrderFfdeProblem,
    LinearRhs,
    StaircaseTable,
    TriangularFuzzy,
    ValidationError,
    J_at,
    build_staircase,
    crisp_embedding,
    euclidean_rise,
    example1_problem,
    example2_bvp,
    f_derivative,
    f_integral,
    ff_continuity_probe,
    ff_riemann_integral,
    fractal_hukuhara_derivative,
    gamma_dimension,
    generate_polyline,
    generate_segment,
    make_triangular,
    mass_function,
    ode_residual_max,
    solve_crisp_in_J,
    solve_first_order,
    solve_second_order_bvp,
    u_at,
)

# a polyline over [0, 1.5]: there u -+ H is exact for the points just past
# the ends of a stencil's range, so those stencils leave the domain in floats
# too (near 1.0, u + H would round back onto the end)
CURVE = generate_polyline(
    [0.0, 0.5, 1.0, 1.5], [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [1.5, 0.5]]
)
TABLE = build_staircase(CURVE, 1.0)
LO, HI = TABLE.domain
H = 0.25
FIELD = crisp_embedding(lambda u: u, TABLE.domain)
NUMBER = make_triangular(0.0, 1.0, 2.0)
TRAJECTORY = solve_crisp_in_J(lambda J, y: -y, [1.0], (0.0, 1.0), 16)
BVP = solve_second_order_bvp(example2_bvp(64))


def anchored_table(p0):
    """TABLE's vertices anchored at p0, or at LO when p0 is outside the
    domain or not a number, so that the table's own check of its anchor is
    the one that fails."""
    at = p0 if isinstance(p0, float) and LO <= p0 <= HI else LO
    return StaircaseTable(1.0, p0, TABLE.us, TABLE.Js - np.interp(at, TABLE.us, TABLE.Js))


# entry point, the ends of the closed domain of its checked point, and
# whether it takes an array of points
POINTS = {
    "J_at": (lambda u: J_at(TABLE, u), LO, HI, True),
    "u_at": (lambda J: u_at(TABLE, J), *TABLE.J_range, True),
    "point_at": (CURVE.point_at, LO, HI, True),
    "euclidean_rise": (lambda u: euclidean_rise(CURVE, u), LO, HI, True),
    "build_staircase_anchor": (lambda p0: build_staircase(CURVE, 1.0, p0), LO, HI, False),
    "StaircaseTable_anchor": (anchored_table, LO, HI, False),
    # a central stencil [u - H, u + H] and a forward one [u, u + H]
    "f_derivative_u": (lambda u: f_derivative(lambda x: x, TABLE, u, H), LO + H, HI - H, False),
    "fractal_hukuhara_derivative_u": (
        lambda u: fractal_hukuhara_derivative(FIELD, TABLE, u, "I", H), LO, HI - H, False
    ),
    "CrispTrajectory.at": (TRAJECTORY.at, 0.0, 1.0, True),
    "crisp_at": (BVP.crisp_at, 0.0, 1.0, True),
    "q_at": (BVP.q_at, 0.0, 1.0, True),
    "kappa_band": (BVP.kappa_band, 0.0, 1.0, True),
    "TriangularFuzzy.r_cut": (TriangularFuzzy(0.0, 1.0, 2.0).r_cut, 0.0, 1.0, True),
    "FuzzyNumber.r_cut": (NUMBER.r_cut, 0.0, 1.0, True),
    "cuts_at": (NUMBER.cuts_at, 0.0, 1.0, True),
    "ff_continuity_probe_u0": (
        lambda u0: ff_continuity_probe(FIELD, u0, [0.1, 0.01]), LO, HI, False
    ),
}

# entry point taking the ends a, b of a sub-interval, and its domain
SPANS = {
    "mass_function": (lambda a, b: mass_function(CURVE, 1.0, a, b), LO, HI),
    "gamma_dimension": (
        lambda a, b: gamma_dimension(generate_segment(), a, b, max_level=3, fit_levels=2), 0.0, 1.0
    ),
    "f_integral": (lambda a, b: f_integral(lambda u: u, CURVE, TABLE, a, b), LO, HI),
    "ff_riemann_integral": (lambda a, b: ff_riemann_integral(FIELD, CURVE, TABLE, a, b), LO, HI),
    "problem_span": (
        lambda a, b: FirstOrderFfdeProblem(TABLE, LinearRhs(1.0, NUMBER), NUMBER, (a, b), "I"),
        LO,
        HI,
    ),
}

OUTSIDE = ["nan", "inf", "-inf", "below", "above"]

def outside(where: str, lo: float, hi: float) -> float:
    """NaN, an infinity, or the nearest float below lo or above hi."""
    if where == "below":
        return float(np.nextafter(lo, -np.inf))
    if where == "above":
        return float(np.nextafter(hi, np.inf))
    return float(where)


class TestPointRule:
    @pytest.mark.parametrize("name", POINTS)
    def test_both_closed_ends_are_accepted(self, name):
        call, lo, hi, _ = POINTS[name]
        call(lo)
        call(hi)

    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("where", OUTSIDE)
    def test_a_point_outside_is_a_domain_error(self, name, where):
        call, lo, hi, _ = POINTS[name]
        with pytest.raises(DomainError):
            call(outside(where, lo, hi))

    @pytest.mark.parametrize("name", [name for name, entry in POINTS.items() if entry[3]])
    @pytest.mark.parametrize("where", OUTSIDE)
    def test_an_array_with_one_bad_entry_is_a_domain_error(self, name, where):
        call, lo, hi, _ = POINTS[name]
        with pytest.raises(DomainError):
            call(np.array([0.5 * (lo + hi), outside(where, lo, hi)]))

    @pytest.mark.parametrize("name", POINTS)
    def test_a_point_that_is_not_a_number_is_a_validation_error(self, name):
        call, lo, hi, takes_array = POINTS[name]
        points = ["a", object()] + ([[0.5 * (lo + hi), "a"]] if takes_array else [])
        for point in points:
            with pytest.raises(ValidationError, match="must be a number or an array of numbers"):
                call(point)

    @pytest.mark.parametrize(
        "name, what",
        [
            ("J_at", "parameter"),
            ("u_at", "staircase value"),
            ("cuts_at", "membership levels"),
            ("build_staircase_anchor", "anchor"),
            ("f_derivative_u", "parameter"),
            ("fractal_hukuhara_derivative_u", "parameter"),
        ],
    )
    def test_the_message_names_the_point(self, name, what):
        message = f"{what} must be a number or an array of numbers, got 'a'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            POINTS[name][0]("a")

    @pytest.mark.parametrize(
        "name, what",
        [
            ("build_staircase_anchor", "anchor"),
            ("f_derivative_u", "parameter"),
            ("fractal_hukuhara_derivative_u", "parameter"),
        ],
    )
    def test_an_entry_of_one_point_refuses_an_array(self, name, what):
        call, lo, hi, _ = POINTS[name]
        message = f"{what} must be one number, got an array of shape (2,)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(np.array([lo, hi]))

    def test_a_stencil_with_a_nan_point_gets_the_stencil_message(self):
        for u in (float("nan"), 1.4):
            message = r"^stencil \[.*\] leaves the domain \[0\.0, 1\.5\]$"
            with pytest.raises(DomainError, match=message):
                f_derivative(lambda x: x, TABLE, u, H)


class TestSpanRule:
    @pytest.mark.parametrize("name", SPANS)
    def test_the_whole_domain_is_accepted(self, name):
        call, lo, hi = SPANS[name]
        call(lo, hi)

    @pytest.mark.parametrize("name", SPANS)
    @pytest.mark.parametrize("end", ["a", "b"])
    @pytest.mark.parametrize("where", ["nan", "inf", "-inf", "past_the_end"])
    def test_an_end_outside_is_a_domain_error(self, name, end, where):
        call, lo, hi = SPANS[name]
        if where == "past_the_end":
            where = "below" if end == "a" else "above"
        value = outside(where, lo, hi)
        with pytest.raises(DomainError, match="leaves the domain"):
            call(value, hi) if end == "a" else call(lo, value)

    @pytest.mark.parametrize("name", SPANS)
    def test_an_empty_or_reversed_interval_is_a_domain_error(self, name):
        call, lo, hi = SPANS[name]
        mid = 0.5 * (lo + hi)
        for a, b in ((mid, mid), (hi, lo)):
            with pytest.raises(DomainError, match="does not increase"):
                call(a, b)


def test_only_the_domain_rules_raise_domain_errors():
    # every domain check goes through _textio.inside or _textio.sub_interval,
    # so the NaN rule and the wording live in one place
    constructing = set()
    for path in Path(ffcalc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "DomainError":
                    constructing.add(path.name)
    assert constructing == {"_textio.py"}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: example1_problem(case="X"), "case must be 'I' or 'II', got 'X'"),
        (lambda: solve_first_order(example1_problem(j_steps=16), method="all"),
         "method must be 'full' or 'cuts', got 'all'"),
        (lambda: fractal_hukuhara_derivative(FIELD, TABLE, 0.5, "i"),
         "case must be 'I' or 'II', got 'i'"),
        (lambda: ff_riemann_integral(FIELD, CURVE, TABLE, rule=None),
         "rule must be 'left' or 'midpoint', got None"),
    ],
    ids=["problem_case", "solve_method", "derivative_case", "riemann_rule"],
)
def test_a_named_option_outside_its_names_is_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestPerPointRule:
    JS = np.linspace(0.0, 1.0, 9)

    @pytest.mark.parametrize(
        "result", [np.array([1.0, 2.0]), np.ones(1), np.ones((64, 2)), np.array(["1.0"]), None],
        ids=["short", "one_element", "2d", "strings", "None"],
    )
    def test_f_integral_refuses_a_result_that_is_not_one_real_per_point(self, result):
        with pytest.raises(ValidationError, match="^f must map an array of points"):
            f_integral(lambda u: result, CURVE, TABLE)

    def test_ode_residual_max_refuses_a_forcing_of_the_wrong_shape(self):
        with pytest.raises(ValidationError, match="^forcing must map an array of points"):
            ode_residual_max(self.JS, self.JS, 0.0, 0.0, lambda J: np.ones((len(J), 2)))

    def test_a_field_refuses_a_non_real_part(self):
        f = crisp_embedding(lambda u: np.full(u.shape, "1.0"), TABLE.domain)
        with pytest.raises(ValidationError, match="^f must map an array of points"):
            ff_riemann_integral(f, CURVE, TABLE)

    def test_a_scalar_is_broadcast(self):
        assert ode_residual_max(self.JS, np.zeros(9), 0.0, 0.0, lambda J: 2.0) == 2.0
        assert f_integral(lambda u: 3, CURVE, TABLE).value == pytest.approx(3.0 * TABLE.Js[-1])
