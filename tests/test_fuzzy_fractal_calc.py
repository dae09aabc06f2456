"""Fuzzy-valued calculus on a curve: continuity, derivatives, integrals."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from ffcalc import fuzzy_fractal_calc
from ffcalc import (
    CaseInapplicableError,
    ContinuityProbe,
    DegenerateDenominatorError,
    DomainError,
    FuzzyCurveFunction,
    IntegrityError,
    J_at,
    StaircaseTable,
    ValidationError,
    build_staircase,
    crisp_embedding,
    f_integral,
    ff_continuity_probe,
    ff_riemann_integral,
    fractal_hukuhara_derivative,
    generate_koch,
    generate_segment,
    hausdorff_distance,
    hukuhara_diff,
    make_crisp,
    make_triangular,
    scale,
    triangular_field,
)


@pytest.fixture(scope="module")
def segment6():
    curve = generate_segment(level=6)
    return curve, build_staircase(curve, alpha=1.0, p0=0.0)


def case2_band(table):
    """Shrinking band of the linear benchmark problem, valid for J < ln 2."""

    def at(u):
        J = J_at(table, u)
        rs = np.linspace(0.0, 1.0, 41)
        e = math.exp(J)
        lo = e - rs + (2.0 * rs - 2.0) / e + 1.0
        up = rs + e - (2.0 * rs - 2.0) / e - 1.0
        from ffcalc import FuzzyNumber

        return FuzzyNumber(rs, lo, up)

    return at


class TestContinuityProbe:
    def test_constant_function_has_zero_distances(self, segment6):
        _, table = segment6
        f = FuzzyCurveFunction(lambda u: make_triangular(0.0, 1.0, 2.0), (0.0, 1.0))
        probe = ff_continuity_probe(f, 0.5, [0.1, 0.01, 0.001])
        assert np.all(probe.sup == 0.0)
        assert probe.continuous

    def test_crisp_J_distance_equals_delta(self, segment6):
        _, table = segment6
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        probe = ff_continuity_probe(f, 0.5, [0.04, 0.02, 0.01])
        assert probe.sup == pytest.approx([0.04, 0.02, 0.01], rel=1e-12)
        assert probe.decaying and not probe.continuous  # 0.01 above default tol

    def test_step_discontinuity_detected(self, segment6):
        _, table = segment6
        f = FuzzyCurveFunction(
            lambda u: make_crisp(0.0 if u < 0.5 else 1.0), (0.0, 1.0)
        )
        probe = ff_continuity_probe(f, 0.5, [0.1, 0.01, 0.001])
        assert np.all(probe.sup >= 1.0)
        assert not probe.continuous

    def test_domain_clipping(self, segment6):
        _, table = segment6
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        probe = ff_continuity_probe(f, 0.0, [0.1, 0.05])
        assert np.all(np.isnan(probe.left))
        assert np.all(~np.isnan(probe.right))

    def test_deltas_must_decrease(self, segment6):
        _, table = segment6
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        with pytest.raises(ValidationError):
            ff_continuity_probe(f, 0.5, [0.01, 0.02])

    def test_crisp_embedding_keeps_its_domain(self):
        f = crisp_embedding(lambda u: 2.0 * np.asarray(u, dtype=float), (0, 3))
        assert f.domain == (0.0, 3.0)
        assert f(2.5).core.lo == 5.0
        probe = ff_continuity_probe(f, 3.0, [0.5])  # 3 is inside the domain
        assert np.isnan(probe.right[0]) and probe.left[0] == 1.0

    def test_delta_that_samples_neither_side_refused(self):
        f = crisp_embedding(lambda u: 2 * np.asarray(u), (0, 1))
        message = r"^delta=2\.0 leaves the domain \[0\.0, 1\.0\] on both sides of u0=0\.5$"
        with pytest.raises(ValidationError, match=message):
            ff_continuity_probe(f, 0.5, [2.0, 1.0, 0.1, 0.01])
        # a delta that reaches an end exactly still samples it
        probe = ff_continuity_probe(f, 0.5, [0.5, 0.1, 0.01])
        assert probe.sup.tolist() == pytest.approx([1.0, 0.2, 0.02], rel=1e-12)
        assert probe.decaying

    def test_sup_without_warning_where_neither_side_was_probed(self):
        probe = ContinuityProbe(
            u0=0.5,
            deltas=np.array([2.0, 0.4, 0.1]),
            left=np.array([np.nan, np.nan, 0.25]),
            right=np.array([np.nan, 0.5, 0.125]),
            tol=1e-6,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sup = probe.sup
        assert np.isnan(sup[0]) and sup[1:].tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_tol_must_be_finite_and_non_negative(self, segment6, tol):
        _, table = segment6
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        message = f"^tol must be a finite non-negative number, got {tol!r}$"
        with pytest.raises(ValidationError, match=message):
            ff_continuity_probe(f, 0.5, [0.1, 0.01], tol=tol)

    @pytest.mark.parametrize("deltas", [[np.nan], [0.1, np.nan]], ids=["single", "array"])
    def test_nan_delta_rejected(self, segment6, deltas):
        _, table = segment6
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        with pytest.raises(ValidationError, match="positive values"):
            ff_continuity_probe(f, 0.5, deltas)


class TestHukuharaDerivative:
    def test_constant_band_differentiates_to_crisp_zero(self, segment6):
        _, table = segment6
        f = FuzzyCurveFunction(lambda u: make_triangular(1.0, 2.0, 3.0), (0.0, 1.0))
        d = fractal_hukuhara_derivative(f, table, 0.25, "I")
        assert np.all(np.abs(d.lowers) < 1e-12) and np.all(np.abs(d.uppers) < 1e-12)

    def test_widening_band_case1(self, segment6):
        _, table = segment6
        tri = make_triangular(1.0, 2.0, 3.0)
        f = FuzzyCurveFunction(lambda u: scale(J_at(table, u), tri), (0.0, 1.0))
        d = fractal_hukuhara_derivative(f, table, 0.5, "I", h=1e-6)
        assert np.allclose(d.lowers, tri.lowers, atol=1e-8)
        assert np.allclose(d.uppers, tri.uppers, atol=1e-8)

    def test_widening_band_case2_inapplicable(self, segment6):
        _, table = segment6
        tri = make_triangular(1.0, 2.0, 3.0)
        f = FuzzyCurveFunction(lambda u: scale(J_at(table, u), tri), (0.0, 1.0))
        with pytest.raises(CaseInapplicableError) as exc:
            fractal_hukuhara_derivative(f, table, 0.5, "II", h=1e-6)
        assert exc.value.case == "II"
        assert exc.value.failing_r is not None

    def test_case2_on_shrinking_band_matches_analytic(self, segment6):
        # the band at u solves dx/dJ = x + (centered band), so its case-II
        # derivative must equal band(u) + (r - 1, 1 - r) per endpoint
        _, table = segment6
        f = FuzzyCurveFunction(case2_band(table), (0.0, 1.0))
        u0 = 0.3  # J(u0) < ln 2
        d = fractal_hukuhara_derivative(f, table, u0, "II", h=1e-7)
        band = f(u0)
        expected_lo = band.lowers + (band.rs - 1.0)
        expected_up = band.uppers + (1.0 - band.rs)
        assert np.allclose(d.lowers, expected_lo, atol=1e-6)
        assert np.allclose(d.uppers, expected_up, atol=1e-6)

    def test_case1_on_shrinking_band_inapplicable(self, segment6):
        _, table = segment6
        f = FuzzyCurveFunction(case2_band(table), (0.0, 1.0))
        with pytest.raises(CaseInapplicableError):
            fractal_hukuhara_derivative(f, table, 0.3, "I", h=1e-7)

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_a_difference_that_1_over_dJ_magnifies_past_the_tolerance(self, case):
        # narrow - wide exists: its cut inversion of 5e-10 is within the
        # constructor's tolerance of its scale 1; over dJ = 1e-3 it is 5e-7,
        # so case I does not apply from r = 0, and case II's quotient exists
        table = StaircaseTable(alpha=1.0, p0=0.0, us=np.array([0.0, 1.0]), Js=np.array([0.0, 1e-3]))
        wide, narrow = make_triangular(-1.0, 0.0, 1.0 + 5e-10), make_triangular(-1.0, 0.0, 1.0)
        f = FuzzyCurveFunction(lambda u: wide if u == 0.0 else narrow, (0.0, 1.0))
        hukuhara_diff(narrow, wide)
        if case == "I":
            with pytest.raises(CaseInapplicableError) as exc:
                fractal_hukuhara_derivative(f, table, 0.0, "I", h=1.0)
            assert (exc.value.case, exc.value.failing_r) == ("I", 0.0)
            return
        d = fractal_hukuhara_derivative(f, table, 0.0, "II", h=1.0)
        want = scale(-1.0 / 1e-3, hukuhara_diff(wide, narrow))
        assert np.array_equal(d.lowers, want.lowers) and np.array_equal(d.uppers, want.uppers)
        assert np.all(d.lowers <= d.uppers)

    def test_flat_staircase_degenerate(self):
        table = StaircaseTable(
            alpha=1.0, p0=0.0, us=np.array([0.0, 1.0, 2.0, 3.0]), Js=np.array([0.0, 1.0, 1.0, 2.0])
        )
        f = FuzzyCurveFunction(lambda u: make_crisp(u), (0.0, 3.0))
        with pytest.raises(DegenerateDenominatorError):
            fractal_hukuhara_derivative(f, table, 1.0, "I", h=0.5)

    def test_nan_step_rejected(self, segment6):
        _, table = segment6
        f = triangular_field(lambda u: u - 1.0, lambda u: u, lambda u: 2.0 * u + 1.0, (0.0, 1.0))
        with pytest.raises(ValidationError, match="^step h must be positive$"):
            fractal_hukuhara_derivative(f, table, 0.5, "I", h=math.nan)
        with pytest.raises(DomainError):
            fractal_hukuhara_derivative(f, table, math.nan, "I", h=1e-3)

    def test_unknown_case_rejected(self, segment6):
        _, table = segment6
        f = FuzzyCurveFunction(lambda u: make_crisp(u), (0.0, 1.0))
        with pytest.raises(ValidationError):
            fractal_hukuhara_derivative(f, table, 0.5, "III")


class TestRiemannIntegral:
    def test_constant_scales_by_mass(self, segment6):
        curve, table = segment6
        c = make_triangular(1.0, 2.0, 4.0)
        f = FuzzyCurveFunction(lambda u: c, (0.0, 1.0))
        result = ff_riemann_integral(f, curve, table, 0.25, 0.75)
        expected = scale(J_at(table, 0.75) - J_at(table, 0.25), c)
        assert np.allclose(result.lowers, expected.lowers, atol=1e-12)
        assert np.allclose(result.uppers, expected.uppers, atol=1e-12)

    def test_crisp_J_matches_crisp_integral(self, segment6):
        curve, table = segment6
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        fuzzy = ff_riemann_integral(f, curve, table, rule="midpoint")
        crisp = f_integral(lambda u: J_at(table, u), curve, table).value
        assert np.all(fuzzy.lowers == fuzzy.uppers)
        assert fuzzy.lowers[0] == pytest.approx(crisp, abs=1e-12)
        assert fuzzy.lowers[0] == pytest.approx(0.5, abs=1e-6)

    def test_left_rule_converges_first_order(self):
        curve = generate_segment(level=11)
        table = build_staircase(curve, 1.0, 0.0)
        f = crisp_embedding(lambda u: J_at(table, u), (0.0, 1.0))
        val = ff_riemann_integral(f, curve, table, rule="left").lowers[0]
        dJ = 1.0 / curve.n_segments
        assert val == pytest.approx(0.5 - dJ / 2.0, abs=1e-12)  # exact left-sum value

    def test_triangular_field_componentwise(self, segment6):
        curve, table = segment6
        f = triangular_field(
            lambda u: J_at(table, u),
            lambda u: 2.0 * J_at(table, u),
            lambda u: 3.0 * J_at(table, u),
            (0.0, 1.0),
        )
        result = ff_riemann_integral(f, curve, table, rule="midpoint")
        # componentwise crisp integrals of (J, 2J, 3J) over [0, 1]
        assert result.support.lo == pytest.approx(0.5, abs=1e-6)
        assert result.core.lo == pytest.approx(1.0, abs=1e-6)
        assert result.support.hi == pytest.approx(1.5, abs=1e-6)

    def test_endpoint_decomposition(self, segment6):
        curve, table = segment6
        f = FuzzyCurveFunction(lambda u: scale(J_at(table, u), make_triangular(1, 2, 3)), (0, 1))
        result = ff_riemann_integral(f, curve, table, rule="left")
        knots = table.us
        dJ = np.diff(J_at(table, knots))
        for idx in (0, 20, 40):
            r = result.rs[idx]
            samples = np.array([f(u).lowers[idx] for u in knots[:-1]])
            assert result.lowers[idx] == pytest.approx(float(np.sum(dJ * samples)), abs=1e-12)

    def test_crisp_embedding_commutes(self, segment6):
        curve, table = segment6
        g = lambda u: np.exp(J_at(table, u))
        direct = f_integral(g, curve, table).value
        lifted = ff_riemann_integral(crisp_embedding(g, (0, 1)), curve, table, rule="midpoint")
        embedded = make_crisp(direct, rs=lifted.rs)
        assert np.allclose(lifted.lowers, embedded.lowers, atol=1e-12)
        assert np.allclose(lifted.uppers, embedded.uppers, atol=1e-12)

    def test_negative_increment_rejected(self):
        from ffcalc import generate_polyline

        f = FuzzyCurveFunction(lambda u: make_crisp(1.0), (0.0, 3.0))
        # corrupt a table after construction to exercise the negative-increment guard
        table = StaircaseTable(
            alpha=1.0, p0=0.0, us=np.array([0.0, 1.5, 3.0]), Js=np.array([0.0, 1.0, 2.0])
        )
        object.__setattr__(table, "Js", np.array([0.0, 1.0, 0.5]))
        curve = generate_polyline([0.0, 1.5, 3.0], [(0, 0), (1, 0), (2, 0)])
        with pytest.raises(IntegrityError):
            ff_riemann_integral(f, curve, table, 0.0, 3.0)

    def test_mixed_sample_grids_resampled_to_union(self, segment6):
        curve, table = segment6
        # alternate between a coarse and a fine level grid per sample
        def evaluator(u):
            n = 5 if int(u * curve.n_segments) % 2 == 0 else 9
            return make_triangular(0.0, 1.0, 2.0, rs=np.linspace(0.0, 1.0, n))

        f = FuzzyCurveFunction(evaluator, (0.0, 1.0))
        result = ff_riemann_integral(f, curve, table, 0.0, 1.0)
        expected = scale(1.0, make_triangular(0.0, 1.0, 2.0, rs=result.rs))
        assert np.allclose(result.lowers, expected.lowers, atol=1e-12)
        assert np.allclose(result.uppers, expected.uppers, atol=1e-12)

    def test_derivative_recovers_integrand(self, segment6):
        # case-I derivative of the running integral returns the integrand
        # to first order in the step
        curve, table = segment6
        tri = make_triangular(1.0, 2.0, 3.0)
        f = FuzzyCurveFunction(lambda u: scale(1.0 + J_at(table, u), tri), (0.0, 1.0))
        running = FuzzyCurveFunction(
            lambda u: ff_riemann_integral(f, curve, table, 0.0, u, rule="midpoint"),
            (1e-6, 1.0),
        )
        u0 = 0.5
        h = 1.0 / curve.n_segments
        d = fractal_hukuhara_derivative(running, table, u0, "I", h=h)
        target = f(u0)
        assert np.allclose(d.lowers, target.lowers, atol=5.0 * h)
        assert np.allclose(d.uppers, target.uppers, atol=5.0 * h)


KOCH_ALPHA = math.log(4.0) / math.log(3.0)


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


class TestBandEvaluation:
    """ff_riemann_integral evaluates a built-in field once over all cells."""

    @pytest.mark.parametrize("level", [1, 3, 5])
    @pytest.mark.parametrize("rule", ["left", "midpoint"])
    def test_triangular_parts_called_once(self, monkeypatch, level, rule):
        calls = {}
        monkeypatch.setattr(
            fuzzy_fractal_calc, "make_triangular", counted(calls, "make_triangular", make_triangular)
        )
        curve = generate_koch(level)
        table = build_staircase(curve, KOCH_ALPHA)
        f = triangular_field(
            counted(calls, "f1", lambda u: J_at(table, u) - 1.0),
            counted(calls, "f2", lambda u: J_at(table, u)),
            counted(calls, "f3", lambda u: 2.0 * J_at(table, u) + 1.0),
            table.domain,
        )
        ff_riemann_integral(f, curve, table, rule=rule)
        assert calls == {"f1": 1, "f2": 1, "f3": 1}
        f(0.5)  # the per-point route does build through make_triangular
        assert calls == {"f1": 2, "f2": 2, "f3": 2, "make_triangular": 1}

    @pytest.mark.parametrize("level", [1, 5])
    def test_crisp_function_called_once(self, level):
        calls = {}
        curve = generate_koch(level)
        table = build_staircase(curve, KOCH_ALPHA)
        f = crisp_embedding(counted(calls, "f", lambda u: J_at(table, u)), table.domain)
        ff_riemann_integral(f, curve, table, 0.1, 0.9)
        assert calls == {"f": 1}

    def test_constant_parts_may_return_scalars(self, segment6):
        curve, table = segment6
        f = triangular_field(lambda u: 1.0, lambda u: 2.0, lambda u: 4.0, table.domain)
        result = ff_riemann_integral(f, curve, table)
        expected = make_triangular(1.0, 2.0, 4.0)
        assert np.allclose(result.lowers, expected.lowers, atol=1e-12)
        assert np.allclose(result.uppers, expected.uppers, atol=1e-12)

    def test_parts_of_the_wrong_shape_rejected(self, segment6):
        curve, table = segment6
        f = triangular_field(
            lambda u: np.zeros(3), lambda u: J_at(table, u), lambda u: 2.0, table.domain
        )
        with pytest.raises(ValidationError, match="one value per point or a scalar"):
            ff_riemann_integral(f, curve, table)
        g = crisp_embedding(lambda u: np.outer(u, u), table.domain)
        with pytest.raises(ValidationError, match="one value per point or a scalar"):
            ff_riemann_integral(g, curve, table)
        with pytest.raises(ValidationError, match="1-d array"):
            g.bands(np.zeros((2, 2)))


class TestGoldenIntegralBytes:
    """sha256 of (rs, lowers, uppers) of one triangular field's integral on
    Koch-5, recorded while the integral built one number per cell."""

    HASHES = {
        "left": "dad2d9c362ebad536d9fa730782f877fead40c18538bd55220d9758b59edab8d",
        "midpoint": "53c27759731d436e8366feb6ff0f1711737aca6885ba35c9b3eae34144ab6aee",
    }

    @pytest.mark.parametrize("rule", sorted(HASHES))
    def test_koch5_integral_bytes(self, rule):
        curve = generate_koch(5)
        table = build_staircase(curve, KOCH_ALPHA)

        def peak(u):
            J = J_at(table, u)
            return 0.3 - 0.7 * J + 0.45 * J * J

        f = triangular_field(
            lambda u: peak(u) - (0.5 + 0.25 * J_at(table, u)),
            peak,
            lambda u: peak(u) + (0.4 + 0.6 * J_at(table, u)),
            table.domain,
        )
        res = ff_riemann_integral(f, curve, table, rule=rule)
        digest = hashlib.sha256(res.rs.tobytes() + res.lowers.tobytes() + res.uppers.tobytes())
        assert digest.hexdigest() == self.HASHES[rule]
