"""Calculus on fractal curves, fuzzy numbers in level-cut form, their
combination, and solvers for the resulting fuzzy differential equations."""

from .errors import (
    CapabilityError,
    CaseInapplicableError,
    ConditioningError,
    DegenerateDenominatorError,
    DivergenceError,
    DomainError,
    EstimationError,
    FFCalcError,
    HukuharaNonexistenceError,
    IntegrityError,
    NumericError,
    OrderError,
    ValidationError,
)
from .fractal_curve import (
    FractalCurve,
    MassEstimate,
    StaircaseTable,
    J_at,
    build_staircase,
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
from .fuzzy_core import (
    DEFAULT_R_LEVELS,
    FuzzyNumber,
    Interval,
    TriangularFuzzy,
    ValidationReport,
    Violation,
    add,
    default_r_grid,
    fuzzy_from_json,
    fuzzy_to_json,
    hausdorff_distance,
    hukuhara_diff,
    make_crisp,
    make_triangular,
    scale,
    validate,
)
from .fractal_calc import FIntegralResult, f_derivative, f_integral
from .fuzzy_fractal_calc import (
    ContinuityProbe,
    FuzzyCurveFunction,
    crisp_embedding,
    ff_continuity_probe,
    ff_riemann_integral,
    fractal_hukuhara_derivative,
    triangular_field,
)
from .ffde import (
    CrispTrajectory,
    FirstOrderFfdeProblem,
    FuncRhs,
    FuzzySolution,
    LinearRhs,
    MAX_GRID_CELLS,
    SecondOrderFuzzyBvp,
    SecondOrderSolution,
    VerificationReport,
    ode_residual_max,
    solution_from_csv,
    solution_to_csv,
    solve_crisp_in_J,
    solve_first_order,
    solve_second_order_bvp,
    verify_against_closed_form,
)
from .problems import (
    BUILTIN_NAMES,
    EXAMPLE1_CASE2_HORIZON_J,
    example1_case1_band,
    example1_case2_band,
    example1_problem,
    example2_bvp,
    example2_crisp_closed_form,
    problem_from_json,
    unit_segment_table,
)

__version__ = "0.1.0"
