"""Relations that hold exactly on every curve a built-in refiner refines, with
no closed form: the level sums of the similarity ratio, additivity of the
mass function at a vertex, and its scaling under a similarity of the plane
or space (Parvate, Satin & Gangal, "Calculus on fractal curves in R^n",
Fractals 2011; Falconer, *Fractal Geometry*, section 9.2).

The curves are random polylines, 2-D with the Koch refiner and 1-D to 3-D
with the midpoint refiner, with a largest coordinate from 1 to 10 and
segments at least a tenth of it long, so that no length loses more than a
few bits to cancellation; a similarity moves them by at most that
coordinate. Each bound is the worst case measured over 80,000 such
curves (numpy 2.4, x86-64), times ten, rounded up to a power of ten.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ffcalc import FractalCurve, gamma_dimension, mass_function
from ffcalc import fractal_curve

KOCH = fractal_curve._koch_refiner
MIDPOINT = fractal_curve._midpoint_refiner
# splits and divisor of each built-in refiner: pieces per segment, and the
# inverse of each piece's similarity ratio
RATIO = {KOCH: (4, 3), MIDPOINT: (2, 2)}

# worst cases measured: 1.7e-15 (level sums), 2.6e-15 (additivity) and
# 3.9e-15 (similarity)
LEVEL_SUM_REL = 1e-13
ADDITIVITY_REL = 1e-13
SIMILARITY_REL = 1e-13


@st.composite
def refinable_polylines(draw):
    """A random polyline of 1 to 6 segments, with the Koch refiner in 2-D or
    the midpoint refiner in 1 to 3 dimensions, and an order alpha in
    [1, n]."""
    refiner = draw(st.sampled_from([KOCH, MIDPOINT]))
    n = 2 if refiner is KOCH else draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    coord = st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False)
    points = np.array(draw(st.lists(st.tuples(*[coord] * n), min_size=m + 1, max_size=m + 1)))
    top = float(np.abs(points).max())
    assume(top >= 1.0 and np.all(np.linalg.norm(np.diff(points, axis=0), axis=1) >= 0.1 * top))
    steps = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=m, max_size=m))
    params = np.concatenate([[0.0], np.cumsum(steps)])
    alpha = 1.0 + draw(st.floats(min_value=0.0, max_value=1.0)) * (n - 1)
    return FractalCurve(params, points, refiner=refiner), alpha


@st.composite
def similarities(draw, n, reach):
    """w -> lam R w + t, with R a rotation in one coordinate plane (or a
    sign in one dimension) and each entry of t within ``reach`` of 0, as a
    function of an (m, n) point array, and lam."""
    lam = draw(st.floats(min_value=0.2, max_value=5.0))
    shift = np.array(draw(st.lists(st.floats(-reach, reach), min_size=n, max_size=n)))
    rot = np.eye(n)
    if n == 1:
        rot[0, 0] = draw(st.sampled_from([-1.0, 1.0]))
    else:
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        cos, sin = math.cos(theta), math.sin(theta)
        rot[i, i], rot[i, j], rot[j, i], rot[j, j] = cos, -sin, sin, cos
    return (lambda w: lam * (w @ rot.T) + shift), lam


def relative(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class TestRatioRelations:
    @given(refinable_polylines(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_whole_level_sums_scale_by_the_ratio(self, case, depth):
        # each of l's s**d level-d pieces has length l / divisor**d
        curve, alpha = case
        splits, divisor = RATIO[curve.refiner]
        lengths = [math.dist(p, q) for p, q in zip(curve.points[:-1], curve.points[1:])]
        base = math.fsum(length**alpha for length in lengths) / math.gamma(alpha + 1.0)
        levels = mass_function(curve, alpha, max_level=depth).levels
        for d, (level, total) in enumerate(levels):
            assert level == d
            assert relative(total, base * (splits / divisor**alpha) ** d) <= LEVEL_SUM_REL

    @given(refinable_polylines(), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mass_is_additive_at_a_vertex(self, case, depth, data):
        curve, alpha = case
        t = curve.params
        assume(t.size > 2)
        k = data.draw(st.integers(1, t.size - 2))
        a = data.draw(st.floats(min_value=float(t[0]), max_value=float(t[k])))
        c = data.draw(st.floats(min_value=float(t[k]), max_value=float(t[-1])))
        assume(a < t[k] < c)
        whole = mass_function(curve, alpha, a, c, max_level=depth).levels
        left = mass_function(curve, alpha, a, float(t[k]), max_level=depth).levels
        right = mass_function(curve, alpha, float(t[k]), c, max_level=depth).levels
        for (_, total), (_, x), (_, y) in zip(whole, left, right, strict=True):
            assert relative(x + y, total) <= ADDITIVITY_REL

    @given(refinable_polylines(), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_similarity_scales_the_mass_and_keeps_the_dimension(self, case, depth, data):
        curve, alpha = case
        move, lam = data.draw(similarities(curve.ndim, float(np.abs(curve.points).max())))
        image = FractalCurve(curve.params, move(curve.points), refiner=curve.refiner)
        got = mass_function(image, alpha, max_level=depth).levels
        want = mass_function(curve, alpha, max_level=depth).levels
        for (_, x), (_, y) in zip(got, want, strict=True):
            assert relative(x, lam**alpha * y) <= SIMILARITY_REL
        dims = [gamma_dimension(c, tol=1e-6, max_level=depth + 3) for c in (curve, image)]
        assert dims[0] == dims[1]
