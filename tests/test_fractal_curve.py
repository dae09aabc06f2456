"""Curve generation, mass sums, dimension estimation and the staircase table."""

import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ffcalc import (
    CapabilityError,
    DomainError,
    EstimationError,
    FirstOrderFfdeProblem,
    FractalCurve,
    LinearRhs,
    OrderError,
    StaircaseTable,
    ValidationError,
    J_at,
    build_staircase,
    f_integral,
    ff_riemann_integral,
    make_triangular,
    solve_first_order,
    triangular_field,
    curve_from_json,
    curve_to_json,
    euclidean_rise,
    gamma_dimension,
    generate_koch,
    generate_polyline,
    generate_segment,
    mass_function,
    staircase_to_csv,
    u_at,
)
from ffcalc import cli, fractal_curve
from ffcalc.fractal_curve import SEGMENT_MAX_LEVEL, _koch_refiner, _midpoint_refiner

KOCH_DIM = math.log(4.0) / math.log(3.0)


def polyline_length(points) -> float:
    """Independent arc-length oracle: plain-python accumulation."""
    total = 0.0
    for p, q in zip(points[:-1], points[1:]):
        total += math.sqrt(sum((qi - pi) ** 2 for pi, qi in zip(p, q)))
    return total


def _no_refinement(curve):
    raise AssertionError("refinement reached")


class TestGenerators:
    def test_koch_level0_is_unit_segment(self):
        c = generate_koch(0)
        assert c.params.size == 2
        assert polyline_length(c.points) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("level,n_points,length", [(1, 5, 4.0 / 3.0), (2, 17, 16.0 / 9.0)])
    def test_koch_refinement_counts_and_length(self, level, n_points, length):
        c = generate_koch(level)
        assert c.params.size == n_points
        assert polyline_length(c.points) == pytest.approx(length, rel=1e-12)

    @pytest.mark.parametrize("level", [-1, 13, 2.5, 1.0, True, False])
    def test_koch_level_bounds(self, level):
        with pytest.raises(ValidationError):
            generate_koch(level)

    def test_koch_refiner_keeps_endpoints(self):
        c = generate_koch(3)
        assert np.allclose(c.points[0], [0.0, 0.0])
        assert np.allclose(c.points[-1], [1.0, 0.0])

    def test_polyline_wraps_data(self):
        c = generate_polyline([0.0, 1.0], [(0.0, 0.0), (1.0, 0.0)])
        assert c.n_segments == 1
        tent = generate_polyline([0.0, 0.5, 1.0], [(0, 0), (0.5, 0.5), (1, 0)])
        assert tent.n_segments == 2

    def test_polyline_rejects_bad_data(self):
        with pytest.raises(ValidationError):
            generate_polyline([0.0, 1.0], [(0.0, 0.0)])  # length mismatch
        with pytest.raises(ValidationError):
            generate_polyline([0.0, 0.0, 1.0], [(0, 0), (0, 0), (1, 0)])  # not increasing
        with pytest.raises(ValidationError, match="n >= 1"):
            generate_polyline([0.0, 1.0], np.empty((2, 0)))  # no coordinates
        with pytest.raises(CapabilityError):
            generate_polyline([0.0, 1.0], [(0, 0), (1, 0)]).refine()

    @pytest.mark.parametrize("level", [-1, SEGMENT_MAX_LEVEL + 1, 40, 2.5, 3.0, True])
    def test_segment_level_bounds(self, monkeypatch, level):
        # a missing check would refine towards 2**40 segments; fail at once instead
        monkeypatch.setattr(FractalCurve, "refine", _no_refinement)
        message = r"^segment level must be an integer in \[0, 24\]$"
        with pytest.raises(ValidationError, match=message):
            generate_segment(level=level)

    def test_segment_level_accepts_numpy_integers(self):
        assert generate_segment(level=np.int64(3)).params.size == 2**3 + 1

    def test_segment_midpoint_refinement_preserves_geometry(self):
        c = generate_segment(level=5)
        assert c.params.size == 2**5 + 1
        assert polyline_length(c.points) == pytest.approx(1.0, abs=1e-15)


class TestLevelGate:
    """Every refinement path checks its target level before it refines."""

    CAPPED = [
        (lambda: generate_koch(0), r"^koch level must be an integer in \[0, 12\]$", 13),
        (lambda: generate_segment(), r"^segment level must be an integer in \[0, 24\]$", 25),
    ]

    @pytest.mark.parametrize("make, message, level", CAPPED, ids=["koch", "segment"])
    def test_over_cap_refused_before_refining(self, monkeypatch, make, message, level):
        # a missing check would refine until memory runs out; fail at once instead
        curve = make()
        monkeypatch.setattr(FractalCurve, "refine", _no_refinement)
        with pytest.raises(ValidationError, match=message):
            gamma_dimension(curve, max_level=level)
        with pytest.raises(ValidationError, match=message):
            mass_function(curve, 1.0, max_level=level)
        with pytest.raises(ValidationError, match=message):
            curve.refined_to(level)

    @pytest.mark.parametrize("level", [2.5, 3.0, "3", True, -1])
    def test_refined_to_needs_an_integer(self, monkeypatch, level):
        curve = generate_koch(0)
        monkeypatch.setattr(FractalCurve, "refine", _no_refinement)
        with pytest.raises(ValidationError, match=r"^koch level must be an integer in \[0, 12\]$"):
            curve.refined_to(level)

    def test_refined_to_below_the_curve_level(self, monkeypatch):
        curve = generate_koch(3)
        monkeypatch.setattr(FractalCurve, "refine", _no_refinement)
        with pytest.raises(ValidationError, match="^level 1 is below the curve's level 3$"):
            curve.refined_to(1)
        with pytest.raises(ValidationError, match="^level 2 is below the curve's level 3$"):
            mass_function(curve, 1.0, max_level=2)
        assert curve.refined_to(3) is curve

    @pytest.mark.parametrize(
        "refiner, level, message",
        [
            (_koch_refiner, 12, r"^koch level must be an integer in \[0, 12\]$"),
            (_midpoint_refiner, 24, r"^segment level must be an integer in \[0, 24\]$"),
        ],
        ids=["koch", "segment"],
    )
    def test_refine_at_the_cap(self, refiner, level, message):
        # two vertices, so even an unchecked refinement costs nothing
        curve = FractalCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], refiner=refiner, level=level)
        with pytest.raises(ValidationError, match=message):
            curve.refine()
        below = FractalCurve(curve.params, curve.points, refiner=refiner, level=level - 1)
        assert below.refine().level == level

    def test_other_refiners_take_any_count(self):
        @dataclasses.dataclass
        class Halving:  # compares by value, so it and its bound methods are unhashable
            def step(self, curve):
                return _midpoint_refiner(curve)

        curve = FractalCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], refiner=Halving().step)
        assert curve.refined_to(np.int64(3)).level == 3
        with pytest.raises(ValidationError, match="^'level' must be an integer, got 2.5$"):
            curve.refined_to(2.5)
        with pytest.raises(ValidationError, match="^level must be >= 0$"):
            curve.refined_to(-1)

    @pytest.mark.parametrize("level", [2.5, True, -1, "2"])
    def test_curve_level_is_a_count(self, level):
        with pytest.raises(ValidationError):
            FractalCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], refiner=_koch_refiner, level=level)

    def test_curve_level_stored_as_int(self):
        curve = FractalCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], level=np.int64(2))
        assert type(curve.level) is int and curve.level == 2

    def test_every_builtin_refiner_is_capped(self):
        # a new built-in refiner must get a cap before it can ship
        refiners = [
            obj for name, obj in vars(fractal_curve).items()
            if name.endswith("_refiner") and callable(obj)
        ]
        assert refiners
        for refiner in refiners:
            assert any(refiner is key for key in fractal_curve._LEVEL_CAPS), refiner.__name__


class TestMassFunction:
    def test_unit_segment_alpha1_is_length(self):
        c = generate_polyline([0.0, 1.0], [(0.0, 0.0), (1.0, 0.0)])
        assert mass_function(c, 1.0).value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_koch_alpha1_grows_as_four_thirds(self, k):
        # oracle: 4**k segments of length 3**-k
        est = mass_function(generate_koch(0), 1.0, max_level=k)
        assert est.value == pytest.approx((4.0 / 3.0) ** k, rel=1e-12)
        assert [lvl for lvl, _ in est.levels] == list(range(k + 1))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_koch_alpha2_decays(self, k):
        est = mass_function(generate_koch(0), 2.0, max_level=k)
        assert est.value == pytest.approx((4.0 / 9.0) ** k / 2.0, rel=1e-12)

    def test_domain_and_order_errors(self):
        c = generate_koch(2)
        with pytest.raises(DomainError):
            mass_function(c, 1.0, a=-0.1, b=0.5)
        with pytest.raises(DomainError):
            mass_function(c, 1.0, a=0.7, b=0.2)
        with pytest.raises(OrderError):
            mass_function(c, 0.5)
        with pytest.raises(OrderError):
            mass_function(c, 2.5)

    def test_additivity_at_vertices(self):
        # disjoint sums over [a,b] and [b,c]; the cut 0.25 is a vertex
        # parameter at every level >= 1
        c = generate_koch(6)
        for alpha in (1.0, KOCH_DIM, 1.5):
            whole = mass_function(c, alpha, 0.0, 1.0).value
            left = mass_function(c, alpha, 0.0, 0.25).value
            right = mass_function(c, alpha, 0.25, 1.0).value
            assert whole == pytest.approx(left + right, abs=1e-12)

    def test_additivity_alpha1_any_cut(self):
        # at order 1 linear interpolation makes any cut point exact
        c = generate_koch(4)
        whole = mass_function(c, 1.0, 0.0, 1.0).value
        left = mass_function(c, 1.0, 0.0, 0.437).value
        right = mass_function(c, 1.0, 0.437, 1.0).value
        assert whole == pytest.approx(left + right, abs=1e-12)

    def test_dimension_dichotomy_across_levels(self):
        est_low = mass_function(generate_koch(0), 1.1, max_level=8)
        sums = [s for _, s in est_low.levels[6:]]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        est_high = mass_function(generate_koch(0), 1.4, max_level=8)
        sums = [s for _, s in est_high.levels[6:]]
        assert all(b < a for a, b in zip(sums, sums[1:]))

    @pytest.mark.parametrize("max_level", [3.7, 3.0, "3", True])
    def test_max_level_must_be_an_integer(self, max_level):
        with pytest.raises(ValidationError, match=r"^koch level must be an integer in \[0, 12\]$"):
            mass_function(generate_koch(0), 1.0, max_level=max_level)
        est = mass_function(generate_koch(0), 1.0, max_level=np.int64(3))
        assert est.levels == mass_function(generate_koch(0), 1.0, max_level=3).levels

    def test_refinement_request_needs_refiner(self):
        c = generate_polyline([0.0, 1.0], [(0, 0), (1, 0)])
        with pytest.raises(CapabilityError):
            mass_function(c, 1.0, max_level=3)


class TestGammaDimension:
    def test_straight_segment_is_one(self):
        assert gamma_dimension(generate_segment(), max_level=10) == pytest.approx(1.0, abs=0.01)

    def test_koch_matches_similarity_dimension(self):
        # oracle: log N / log (1/s) with N=4 pieces scaled by s=1/3
        est = gamma_dimension(generate_koch(0), tol=0.01, max_level=10)
        assert est == pytest.approx(KOCH_DIM, abs=0.05)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.01, np.float64(math.nan)])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValidationError, match="^tol must be a finite positive number$"):
            gamma_dimension(generate_koch(0), tol=tol, max_level=6)

    @pytest.mark.parametrize(
        "max_level, fit_levels", [(7.5, 3), (8.0, 3), (8, 3.0), (8, 2.5), (True, 3), (8, True)]
    )
    def test_levels_must_be_integers(self, monkeypatch, max_level, fit_levels):
        monkeypatch.setattr(FractalCurve, "refine", _no_refinement)
        # fit_levels is checked first, then max_level against the curve's cap
        if type(fit_levels) is int:
            message = r"^koch level must be an integer in \[0, 12\]$"
        else:
            message = re.escape(f"'fit_levels' must be an integer, got {fit_levels!r}")
        with pytest.raises(ValidationError, match=message):
            gamma_dimension(generate_koch(0), max_level=max_level, fit_levels=fit_levels)

    def test_levels_accept_numpy_integers(self):
        est = gamma_dimension(generate_koch(0), max_level=np.int64(7), fit_levels=np.int32(3))
        assert est == gamma_dimension(generate_koch(0), max_level=7, fit_levels=3)

    def test_non_refinable_curve_rejected(self):
        tent = generate_polyline([0.0, 0.5, 1.0], [(0, 0), (0.5, 0.5), (1, 0)])
        with pytest.raises(CapabilityError):
            gamma_dimension(tent)


# squared lengths past the largest float: past 2**500 every level is refined
# whole, and its lengths overflow
HUGE = {
    "segment": (generate_segment((0.0, 0.0), (1e160, 0.0)), 10),
    "koch": (FractalCurve(np.array([0.0, 1.0]), [[0.0, 0.0], [1e160, 0.0]], _koch_refiner), 6),
}


class TestOverflowAndUnderflow:
    @pytest.mark.parametrize("name", sorted(HUGE))
    def test_overflowing_sums_are_refused(self, name):
        curve, max_level = HUGE[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the lengths
            with pytest.raises(EstimationError, match="^mass sums overflow on the requested range$"):
                gamma_dimension(curve, max_level=max_level)
            for top in (0, max_level):
                with pytest.raises(EstimationError, match="overflow"):
                    mass_function(curve, 1.0, max_level=top)

    def test_underflowing_segment_is_straight(self):
        # squared lengths of 1e-320 lose bits, but every level below the
        # curve's own is its length halved, so the sums do not vanish
        curve = generate_segment((0.0, 0.0), (1e-160, 0.0))
        assert gamma_dimension(curve, max_level=10) == 1.0
        sums = {total for _, total in mass_function(curve, 1.0, max_level=10).levels}
        assert len(sums) == 1 and 0.0 < sums.pop() < 1.1e-160


class TestPeakMemory:
    """Peaks traced by tracemalloc for the largest curve passes. Refinement
    and length binning run a block of segments at a time. Mass sums and
    dimension estimates read the levels below a built-in curve's own from
    its refiner's ratio, with no refined vertices, so an estimate to level
    10 or 20 from one segment peaks at ~6 KB (~2.4 MB for a Koch estimate
    and ~3.7 MB for a segment one when every level was walked) and so does
    a Koch-10 mass sum (~13 MB then). The staircase masses are formed in
    blocks straight into the table (~18.4 MB for Koch-10, not ~26 MB), and
    its CSV and the curve command's are formatted and written in blocks
    (~6 MB, not ~145 MB; Koch-9 ~12 MB for ``ffcalc curve``, not ~58 MB)."""

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_koch_dimension_peaks_below_256_kb(self):
        gamma_dimension(generate_koch(0), max_level=5)  # first-call caches
        assert self._peak(lambda: gamma_dimension(generate_koch(0), max_level=10)) < 256 * 1024

    def test_segment_dimension_peaks_below_256_kb(self):
        gamma_dimension(generate_segment(), max_level=5)
        assert self._peak(lambda: gamma_dimension(generate_segment(), max_level=20)) < 256 * 1024

    def test_a_deep_fit_peaks_below_256_kb(self):
        # eleven fitted levels from the one-segment curve
        gamma_dimension(generate_koch(0), max_level=5)
        peak = self._peak(lambda: gamma_dimension(generate_koch(0), max_level=10, fit_levels=11))
        assert peak < 256 * 1024

    def test_koch_mass_peaks_below_256_kb(self):
        mass_function(generate_koch(0), KOCH_DIM, max_level=3)
        peak = self._peak(lambda: mass_function(generate_koch(0), KOCH_DIM, max_level=10))
        assert peak < 256 * 1024

    def test_curve_command_peaks_below_20_mb(self, tmp_path, capsys):
        # ~12 MB measured: the Koch-9 curve, its last refinement and one
        # block of text; the whole table as one string peaked at ~58 MB
        argv = ["curve", "--level", "9", "--out", str(tmp_path / "koch9.csv")]
        assert self._peak(lambda: cli.main(argv)) < 20 * 2**20

    def test_repeated_estimates_hold_no_memory_without_the_cyclic_collector(self):
        # a walk that refers to itself would keep its buffers, ~2 MB a call,
        # until the cyclic garbage collector ran; with it off, two calls of
        # each must leave the traced memory where it was
        def estimates():
            gamma_dimension(generate_koch(0), max_level=10)
            mass_function(generate_koch(0), KOCH_DIM, max_level=10)
            gamma_dimension(generate_koch(0), 0.123456, 0.654321, max_level=10)

        estimates()  # first-call caches
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimates()
            estimates()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert kept < 256 * 1024

    def test_koch_staircase_peaks_below_21_mb(self):
        curve = generate_koch(10)
        build_staircase(generate_koch(2), KOCH_DIM)
        assert self._peak(lambda: build_staircase(curve, KOCH_DIM)) < 21e6

    def test_koch_staircase_peaks_below_12_mb(self):
        # ~10.0 MB measured: Js and one block of masses, with us the curve's
        # own params; a copied grid beside Js peaked at ~18.4 MB
        curve = generate_koch(10)
        build_staircase(generate_koch(2), KOCH_DIM)
        assert self._peak(lambda: build_staircase(curve, KOCH_DIM)) < 12e6

    def test_koch_staircase_csv_peaks_below_10_mb(self, tmp_path):
        table = build_staircase(generate_koch(10), KOCH_DIM)
        staircase_to_csv(build_staircase(generate_koch(2), KOCH_DIM), io.StringIO())
        assert self._peak(lambda: staircase_to_csv(table, tmp_path / "koch10.csv")) < 10e6
        with open(tmp_path / "koch10.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + 4**10 + 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
    @pytest.mark.parametrize(
        "curve, level, stdout",
        [
            ("koch", 12, "gamma-dimension estimate: 1.26172 (curve=koch, levels<=12)\n"),
            ("segment", 24, "gamma-dimension estimate: 1 (curve=segment, levels<=24)\n"),
        ],
    )
    def test_dim_at_the_level_caps_stays_below_60_mb(
        self, tmp_path, cli_env, curve, level, stdout
    ):
        # the child reads its own peak resident set, VmHWM, which starts
        # afresh at exec; getrusage would also count this test process's
        # peak, which a child spawned by vfork inherits at exec
        code = (
            "import sys\n"
            "from ffcalc.cli import main\n"
            f"status = main(['dim', '--curve', '{curve}', '--level', '{level}'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
            "print(peak, file=sys.stderr)\n"
            "sys.exit(status)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
        assert int(proc.stderr) * 1024 < 60e6  # VmHWM is in kB


class TestStaircase:
    def test_unit_segment_identity(self):
        table = build_staircase(generate_segment(level=6), 1.0, p0=0.0)
        for u in (0.0, 0.25, 0.5, 0.875, 1.0):
            assert J_at(table, u) == pytest.approx(u, abs=1e-15)

    def test_anchor_is_zero(self):
        for p0 in (0.0, 1.0 / 3.0, 1.0):
            table = build_staircase(generate_koch(4), KOCH_DIM, p0=p0)
            assert J_at(table, p0) == pytest.approx(0.0, abs=1e-12)

    def test_sign_structure_around_anchor(self):
        table = build_staircase(generate_koch(3), 1.0, p0=0.5)
        below = table.Js[table.us < 0.5]
        above = table.Js[table.us > 0.5]
        assert np.all(below <= 0.0) and np.all(above >= 0.0)

    def test_total_matches_mass_function(self):
        for k in (2, 4):
            curve = generate_koch(k)
            table = build_staircase(curve, KOCH_DIM, p0=0.0)
            mass = mass_function(curve, KOCH_DIM).value
            assert table.Js[-1] == pytest.approx(mass, rel=1e-12)

    def test_monotone(self):
        table = build_staircase(generate_koch(5), KOCH_DIM, p0=0.0)
        assert np.all(np.diff(table.Js) >= 0.0)

    def test_anchor_antisymmetry(self):
        curve = generate_koch(4)
        vertices = curve.params
        p0, u = float(vertices[7]), float(vertices[101])
        t1 = build_staircase(curve, KOCH_DIM, p0=p0)
        t2 = build_staircase(curve, KOCH_DIM, p0=u)
        assert J_at(t1, u) + J_at(t2, p0) == pytest.approx(0.0, abs=1e-12)

    def test_mid_cell_anchor_allowed(self):
        table = build_staircase(generate_koch(2), 1.0, p0=0.4)
        assert J_at(table, 0.4) == pytest.approx(0.0, abs=1e-15)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestBorrowedGrid:
    """A built table holds its curve's params as ``us``, unless they are
    read-only or strided: np.interp copies a read-only grid on every call."""

    @pytest.mark.parametrize(
        "curve",
        [
            generate_koch(3),
            generate_segment(level=4),
            generate_polyline([0.0, 0.5, 2.0], [[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]]),
        ],
        ids=["koch", "segment", "polyline"],
    )
    def test_table_shares_the_curve_params(self, curve):
        table = build_staircase(curve, 1.0, 0.3 * curve.b0)
        assert table.us is curve.params and np.shares_memory(table.us, curve.params)

    @pytest.mark.parametrize("layout", ["strided", "read-only"])
    def test_a_grid_numpy_would_copy_is_copied_once(self, layout):
        grid = np.linspace(0.0, 1.0, 33)
        params = grid[::2] if layout == "strided" else np.frombuffer(grid[::2].tobytes())
        curve = generate_polyline(params, np.column_stack([params, np.sin(7.0 * params)]))
        flags = curve.params.flags
        assert not (flags.c_contiguous if layout == "strided" else flags.writeable)
        table = build_staircase(curve, 1.2, 0.3)
        assert table.us.flags.c_contiguous and table.us.flags.writeable
        assert not np.shares_memory(table.us, curve.params)
        assert table.us.tobytes() == np.ascontiguousarray(curve.params).tobytes()
        reference = build_staircase(generate_polyline(params.copy(), curve.points), 1.2, 0.3)
        assert table.Js.tobytes() == reference.Js.tobytes()

    def test_no_library_path_writes_the_grid(self):
        curve = generate_koch(4)
        before = _sha256(curve.params)
        table = build_staircase(curve, KOCH_DIM, 0.3)
        us = np.linspace(0.0, 1.0, 65)
        J_at(table, 0.37)
        u_at(table, float(table.Js[5]))
        u_at(table, J_at(table, us[::-1]))  # batches out of order are sorted
        problem = FirstOrderFfdeProblem(
            table=table,
            rhs=LinearRhs(-1.0, make_triangular(0.0, 0.1, 0.2)),
            x0=make_triangular(0.9, 1.0, 1.1),
            span=(0.0, 1.0),
            case="I",
            j_steps=16,
        )
        solve_first_order(problem)
        f_integral(lambda u: np.cos(u), curve, table, 0.1, 0.9)
        field = triangular_field(lambda u: u, lambda u: 2.0 * u, lambda u: 3.0 * u, table.domain)
        ff_riemann_integral(field, curve, table, 0.2, 0.8)
        assert _sha256(curve.params) == before and table.us is curve.params


class TestLookups:
    def test_forward_basics(self):
        table = build_staircase(generate_segment(level=4), 1.0, 0.0)
        assert J_at(table, 0.5) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            J_at(table, 1.5)

    def test_inverse_leftmost_on_flat(self):
        # hand-built degenerate table with a flat stretch
        table = StaircaseTable(
            alpha=1.0, p0=0.0, us=np.array([0.0, 1.0, 2.0, 3.0]), Js=np.array([0.0, 1.0, 1.0, 2.0])
        )
        assert u_at(table, 1.0) == pytest.approx(1.0)
        assert u_at(table, 0.5) == pytest.approx(0.5)
        assert u_at(table, 1.5) == pytest.approx(2.5)
        with pytest.raises(DomainError):
            u_at(table, 2.5)

    @pytest.mark.parametrize(
        "query",
        [math.nan, np.float64(math.nan), np.array(math.nan), np.array([0.25, math.nan, 0.5])],
        ids=["float", "float64", "0d", "array"],
    )
    def test_nan_query_is_a_domain_error(self, query):
        table = build_staircase(generate_koch(3), KOCH_DIM, p0=0.3)
        with pytest.raises(DomainError, match=r"^parameter outside \[0\.0, 1\.0\]$"):
            J_at(table, query)
        with pytest.raises(DomainError, match=r"^staircase value outside \["):
            u_at(table, query)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip_on_strictly_increasing_table(self, u):
        table = build_staircase(generate_segment(level=6), 1.0, 0.0)
        assert u_at(table, J_at(table, u)) == pytest.approx(u, abs=1e-9)

    def test_round_trip_on_koch(self):
        table = build_staircase(generate_koch(5), KOCH_DIM, p0=0.0)
        for u in np.linspace(0.0, 1.0, 37):
            assert u_at(table, J_at(table, u)) == pytest.approx(u, abs=1e-9)

    def test_monotonicity_of_J(self):
        table = build_staircase(generate_koch(4), 1.2, p0=0.25)
        us = np.linspace(0.0, 1.0, 101)
        js = J_at(table, us)
        assert np.all(np.diff(js) >= 0.0)

    def test_vectorized_inverse(self):
        table = build_staircase(generate_koch(4), KOCH_DIM, p0=0.0)
        js = np.linspace(table.Js[0], table.Js[-1], 23)
        us = u_at(table, js)
        assert us.shape == js.shape
        assert np.allclose(J_at(table, us), js, atol=1e-12)

    @given(
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=12),
        st.floats(min_value=1.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_staircase_invariants_on_random_polylines(self, ys, alpha, p0_frac):
        params = np.linspace(0.0, 1.0, len(ys))
        curve = generate_polyline(params, [(t, y) for t, y in zip(params, ys)])
        p0 = float(params[int(p0_frac * (len(ys) - 1))])
        table = build_staircase(curve, alpha, p0=p0)
        assert np.all(np.diff(table.Js) >= 0.0)
        assert J_at(table, p0) == pytest.approx(0.0, abs=1e-12)
        assert np.all(table.Js[table.us < p0] <= 1e-12)
        assert np.all(table.Js[table.us > p0] >= -1e-12)

    def test_kochs_critical_order_mass_is_gamma_reciprocal(self):
        # at the similarity order the per-level geometric factors cancel:
        # 4**k segments of length 3**-k give sum 4**k * 3**(-k*dim) = 1,
        # so the total staircase rise is 1/Gamma(dim + 1) at every level
        for k in (2, 5):
            table = build_staircase(generate_koch(k), KOCH_DIM, p0=0.0)
            assert table.Js[-1] == pytest.approx(1.0 / math.gamma(KOCH_DIM + 1.0), rel=1e-9)


class TestEuclideanRise:
    def test_segment_from_origin(self):
        c = generate_segment()
        assert euclidean_rise(c, 1.0) == pytest.approx(1.0)
        assert euclidean_rise(c, 0.0) == pytest.approx(0.0)

    def test_koch_level1_midpoint(self):
        c = generate_koch(1)
        # u=0.5 is the bump apex: (1/2, sqrt(3)/6)
        expected = math.hypot(0.5, math.sqrt(3.0) / 6.0)
        assert euclidean_rise(c, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            euclidean_rise(generate_segment(), 2.0)

    def test_2d_batch_matches_point_by_point_calls(self):
        curve = generate_koch(3)
        u = np.array([[0.1, 0.5], [0.9, 0.2]])
        got = euclidean_rise(curve, u)
        want = np.array([[euclidean_rise(curve, float(x)) for x in row] for row in u])
        assert got.shape == (2, 2) and got.tobytes() == want.tobytes()
        assert np.allclose(got, [[0.141, 0.577], [0.876, 0.252]], atol=1e-3)

    def test_float_only_for_a_scalar_or_0d_query(self):
        curve = generate_koch(3)
        for u in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(euclidean_rise(curve, u)) is float
        for u in ([0.3], np.array([0.3]), np.empty(0), np.empty((2, 0))):
            got = euclidean_rise(curve, u)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(u)
        assert euclidean_rise(curve, [0.3])[0] == euclidean_rise(curve, 0.3)

    def test_1d_batch_keeps_its_bits(self):
        curve = generate_koch(4)
        u = np.random.default_rng(3).uniform(0.0, 1.0, 257)
        row_wise = np.sqrt(np.sum(np.atleast_2d(curve.point_at(u)) ** 2, axis=1))
        assert euclidean_rise(curve, u).tobytes() == row_wise.tobytes()

    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
    def test_nan_parameter_is_a_domain_error(self, u):
        curve = generate_koch(2)
        with pytest.raises(DomainError, match=r"^parameter outside \[0\.0, 1\.0\]$"):
            curve.point_at(u)
        with pytest.raises(DomainError, match=r"^parameter outside \[0\.0, 1\.0\]$"):
            euclidean_rise(curve, u)


def _one_bad(at: int, bad: float) -> list:
    """The column 0, 1, 2 with ``bad`` at index ``at``: an end or inside."""
    column = [0.0, 1.0, 2.0]
    column[at] = bad
    return column


class TestTypesAndIO:
    @pytest.mark.parametrize(
        "p0, us, Js, error, message",
        [
            (0.0, 0.5, [0, 1], ValidationError, "us must be 1-dimensional, got shape ()"),
            (0.0, [[0, 1]], [0, 1], ValidationError, "us must be 1-dimensional, got shape (1, 2)"),
            (0.0, [0, 1], 0.0, ValidationError, "Js must be 1-dimensional, got shape ()"),
            (0.0, [0, 1], [[0, 1]], ValidationError, "Js must be 1-dimensional, got shape (1, 2)"),
            *(
                (0.0, _one_bad(at, bad), [0, 1, 2], ValidationError, "us contains non-finite values")
                for bad in (math.nan, math.inf, -math.inf)
                for at in range(3)
            ),
            *(
                (0.0, [0, 1, 2], _one_bad(at, bad), ValidationError, "Js contains non-finite values")
                for bad in (math.nan, math.inf, -math.inf)
                for at in range(3)
            ),
            (0.0, [0, 1, 2], [0, 1], ValidationError, "us and Js must have equal length >= 2"),
            (0.0, [0], [0], ValidationError, "us and Js must have equal length >= 2"),
            (0.0, [0, 1, 1, 2], [0, 1, 2, 3], ValidationError, "us must be strictly increasing"),
            (0.0, [0, 2, 1], [0, 1, 2], ValidationError, "us must be strictly increasing"),
            (0.0, [0, 1], [0, -1], ValidationError, "Js must be non-decreasing"),
            (0.5, [0, 1], [0, 1], ValidationError, "table is not anchored: S(p0) != 0"),
            (2.0, [0, 1], [0, 1], DomainError, "anchor 2.0 outside [0.0, 1.0]"),
            # the checks run in this order
            (0.0, [[0, 1]], [math.nan, 1], ValidationError, "us must be 1-dimensional, got shape (1, 2)"),
            (0.0, [math.nan, 1], 0.0, ValidationError, "us contains non-finite values"),
            (0.0, [0, 2, 1], [0, 1], ValidationError, "us and Js must have equal length >= 2"),
            (0.0, [0, 2, 1], [0, 2, 1], ValidationError, "us must be strictly increasing"),
            (0.5, [0, 1, 2], [0, 2, 1], ValidationError, "Js must be non-decreasing"),
            (9.0, [0, 1], [0, 1], DomainError, "anchor 9.0 outside [0.0, 1.0]"),
        ],
    )
    def test_staircase_table_validation(self, p0, us, Js, error, message):
        us, Js = np.array(us, dtype=float), np.array(Js, dtype=float)
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            StaircaseTable(1.0, p0, us, Js)

    @pytest.mark.parametrize(
        "us, Js",
        [
            ([0, 1, 2], [-1, 0, 1]),
            (np.arange(3), np.array([-1, 0, 1])),
            (np.arange(3, dtype=np.float32), np.array([-1.0, 0.0, 1.0], dtype=">f8")),
            ((np.arange(6.0) / 2.0)[::2], np.array([-1.0, 0.0, 1.0])),
            (np.arange(3.0).view(np.ma.MaskedArray), np.array([-1.0, 0.0, 1.0])),
        ],
        ids=["lists", "ints", "float32-and-big-endian", "strided", "subclass"],
    )
    def test_staircase_table_converts_what_it_accepts(self, us, Js):
        table = StaircaseTable(1.0, 1.0, us, Js)
        for column, given in ((table.us, us), (table.Js, Js)):
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert np.array_equal(column, np.asarray(given, dtype=float))

    def test_csv_export_full_precision(self):
        table = build_staircase(generate_koch(2), KOCH_DIM, p0=0.0)
        buf = io.StringIO()
        staircase_to_csv(table, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "u,J"
        assert len(lines) == table.us.size + 1
        u, J = (float(x) for x in lines[5].split(","))
        assert u == table.us[4] and J == table.Js[4]  # exact round trip

    def test_curve_json_round_trip(self):
        koch = curve_from_json({"kind": "koch", "level": 2})
        assert koch.params.size == 17
        poly = curve_from_json(json.loads(json.dumps(curve_to_json(koch))))
        assert np.array_equal(poly.points, koch.points)

    def test_curve_json_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            curve_from_json({"kind": "sierpinski"})
        with pytest.raises(ValidationError):
            curve_from_json({"kind": "polyline", "params": [0, 1]})

    @pytest.mark.parametrize("level", [True, 1.0, 1.5])
    def test_curve_json_level_must_be_an_integer(self, level):
        with pytest.raises(ValidationError, match=r"^koch level must be an integer"):
            curve_from_json({"kind": "koch", "level": level})

    def test_curve_json_segment(self):
        built = curve_from_json({"kind": "segment", "level": 3})
        ref = generate_segment(level=3)
        assert np.array_equal(built.params, ref.params)
        assert np.array_equal(built.points, ref.points)
        assert (built.level, built.refiner) == (ref.level, ref.refiner)
        message = r"^segment level must be an integer in \[0, 24\]$"
        with pytest.raises(ValidationError, match=message):
            curve_from_json({"kind": "segment", "level": 25})
        with pytest.raises(ValidationError, match="^segment curve spec needs field 'level'$"):
            curve_from_json({"kind": "segment"})

    def test_curve_point_interpolation(self):
        c = generate_polyline([0.0, 1.0], [(0.0, 0.0), (2.0, 2.0)])
        assert np.allclose(c.point_at(0.5), [1.0, 1.0])

    def test_immutability(self):
        c = generate_koch(1)
        with pytest.raises(AttributeError):
            c.level = 5
        t = build_staircase(c, 1.0, 0.0)
        with pytest.raises(AttributeError):
            t.alpha = 2.0
