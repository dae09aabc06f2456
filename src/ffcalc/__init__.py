"""Calculus on fractal curves, fuzzy numbers in level-cut form, their
combination, and solvers for the resulting fuzzy differential equations.

The modules build on each other in layers: ``fractal_curve`` (curves and
their staircase), ``fuzzy_core`` (fuzzy numbers), ``fractal_calc`` and
``fuzzy_fractal_calc`` (the calculus), ``ffde`` and ``problems`` (the
differential equations). ``import ffcalc`` loads none of them, so a caller
pays only for the layers it uses:

- a submodule (``from ffcalc import ffde``, or the attribute ``ffcalc.ffde``
  for the modules that export names) loads that module and what it
  imports, nothing else;
- the first access to any name in ``__all__`` (``ffcalc.add``,
  ``from ffcalc import add``, ``from ffcalc import *``) loads every module
  and binds every exported name in the package at once; from then on each
  is a plain attribute, the very object its module defines;
- any other name is an ``AttributeError`` and loads nothing.
"""

import importlib

# module -> the names the package exports from it, its __all__
_EXPORTS = {
    "errors": (
        "CapabilityError",
        "CaseInapplicableError",
        "ConditioningError",
        "DegenerateDenominatorError",
        "DivergenceError",
        "DomainError",
        "EstimationError",
        "FFCalcError",
        "HukuharaNonexistenceError",
        "IntegrityError",
        "NumericError",
        "OrderError",
        "ValidationError",
    ),
    "fractal_curve": (
        "FractalCurve",
        "MassEstimate",
        "StaircaseTable",
        "J_at",
        "build_staircase",
        "curve_from_json",
        "curve_to_json",
        "euclidean_rise",
        "gamma_dimension",
        "generate_koch",
        "generate_polyline",
        "generate_segment",
        "mass_function",
        "staircase_to_csv",
        "u_at",
    ),
    "fuzzy_core": (
        "DEFAULT_R_LEVELS",
        "FuzzyNumber",
        "Interval",
        "TriangularFuzzy",
        "ValidationReport",
        "Violation",
        "add",
        "default_r_grid",
        "fuzzy_from_json",
        "fuzzy_to_json",
        "hausdorff_distance",
        "hukuhara_diff",
        "make_crisp",
        "make_triangular",
        "scale",
        "validate",
    ),
    "fractal_calc": ("FIntegralResult", "f_derivative", "f_integral"),
    "fuzzy_fractal_calc": (
        "ContinuityProbe",
        "FuzzyCurveFunction",
        "crisp_embedding",
        "ff_continuity_probe",
        "ff_riemann_integral",
        "fractal_hukuhara_derivative",
        "triangular_field",
    ),
    "ffde": (
        "CrispTrajectory",
        "FirstOrderFfdeProblem",
        "FuncRhs",
        "FuzzySolution",
        "LinearRhs",
        "MAX_GRID_CELLS",
        "SecondOrderFuzzyBvp",
        "SecondOrderSolution",
        "VerificationReport",
        "ode_residual_max",
        "solution_from_csv",
        "solution_to_csv",
        "solve_crisp_in_J",
        "solve_first_order",
        "solve_second_order_bvp",
        "verify_against_closed_form",
    ),
    "problems": (
        "BUILTIN_NAMES",
        "EXAMPLE1_CASE2_HORIZON_J",
        "example1_case1_band",
        "example1_case2_band",
        "example1_problem",
        "example2_bvp",
        "example2_crisp_closed_form",
        "problem_from_json",
        "unit_segment_table",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def _export_all() -> None:
    """Load every module and bind all of its exported names in the package.

    All names are bound at the first access, never one by one as each is
    first used. Afterwards the package holds every name, so code that
    rebinds a function wherever the loaded modules bind it (a tracer's
    wrappers) finds the package's binding and restores it too; a name bound
    later, while such a wrapper is in place, would keep the wrapper. The
    first access itself copies what the modules hold, so such code must be
    installed after it, or before any submodule is loaded."""
    package = globals()
    for module, names in _EXPORTS.items():
        loaded = importlib.import_module(f"{__name__}.{module}")
        for name in names:
            package[name] = getattr(loaded, name)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        _export_all()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
