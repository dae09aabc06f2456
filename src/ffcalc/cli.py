"""Command-line surface: curve/staircase export, dimension estimates,
calculus on a curve, solving and verifying the built-in problems.

Exit status: 0 success, 1 validation error, 2 numeric failure,
3 verification-tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._textio import _RUN_FIELDS, BUILTIN_NAMES, _check_tol
from .errors import FFCalcError, NumericError, ValidationError
from .fractal_curve import (
    J_at,
    _write_columns,
    build_staircase,
    curve_from_json,
    gamma_dimension,
    staircase_to_csv,
)

# The calculus, solver and problem modules are imported by the commands that
# use them, each from its own module, so that `ffcalc dim` or `ffcalc
# staircase` loads no layer above the curves.


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # validation-error status by raising instead
    def error(self, message):
        raise _UsageError(message)


def _curve(args, level):
    """The --curve curve at ``level``, checked against its cap before it is built."""
    return curve_from_json({"kind": args.curve, "level": level})


def _curve_and_table(args):
    """The subcommand's curve and its staircase, anchored at the curve's start."""
    curve = _curve(args, args.level)
    return curve, build_staircase(curve, alpha=args.alpha)


def _write_record(path, record: dict) -> None:
    """Write ``record`` as a JSON line to ``path``, if given. Commands call it
    before printing, so a failed write prints nothing but the error."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
            fh.write("\n")


_FUNCTIONS = {
    "one": lambda table: (lambda u: np.ones_like(np.asarray(u, dtype=float))),
    "J": lambda table: (lambda u: J_at(table, u)),
    "J2": lambda table: (lambda u: J_at(table, u) ** 2),
    "expJ": lambda table: (lambda u: np.exp(J_at(table, u))),
}


def _run_spec(args) -> dict:
    """The run's problem spec: the --spec file, or the named builtin, with
    each given flag filling its field. A flag may not restate a field the
    spec sets, so every run parameter has one value."""
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        # a JSON string in the file is data, not a second document to parse
        if not isinstance(spec, dict):
            raise ValidationError("problem spec must be a JSON object")
    elif args.builtin:
        spec = {"rhs": {"kind": "builtin", "name": args.builtin}}
    else:
        raise ValidationError("provide either --builtin or --spec")
    for name in _RUN_FIELDS:
        value = getattr(args, name)
        if value is not None:
            if name in spec:
                flag = "--" + name.replace("_", "-")
                raise ValidationError(f"{flag} conflicts with the spec field '{name}'")
            spec[name] = value
    return spec


def _cmd_curve(args) -> int:
    curve = _curve(args, args.level)
    if curve.ndim <= 3:
        names = ["x", "y", "z"][: curve.ndim]
    else:
        names = [f"x{k}" for k in range(curve.ndim)]
    _write_columns(args.out, "u," + ",".join(names), (curve.params, *curve.points.T))
    print(f"{args.curve} level {curve.level}: {curve.params.size} vertices -> {args.out}")
    return 0


def _cmd_dim(args) -> int:
    # gamma_dimension reads the levels below the level-0 curve from its refiner's ratio, and
    # refuses an over-cap --level first
    est = gamma_dimension(_curve(args, 0), tol=args.tol, max_level=args.level)
    _write_record(args.out, {"curve": args.curve, "max_level": args.level, "estimate": est})
    print(f"gamma-dimension estimate: {est:.6g} (curve={args.curve}, levels<={args.level})")
    return 0


def _cmd_staircase(args) -> int:
    _, table = _curve_and_table(args)
    staircase_to_csv(table, args.out)
    print(f"staircase: {table.us.size} rows, J range [{table.Js[0]:.12g}, {table.Js[-1]:.12g}] -> {args.out}")
    return 0


def _cmd_integrate(args) -> int:
    from .fractal_calc import f_integral

    curve, table = _curve_and_table(args)
    f = _FUNCTIONS[args.fn](table)
    result = f_integral(f, curve, table)
    _write_record(
        args.out,
        {
            "fn": args.fn,
            "value": result.value,
            "lower_sum": result.lower_sum,
            "upper_sum": result.upper_sum,
            "converged": result.converged,
        },
    )
    print(
        f"integral of {args.fn} over the whole curve: {result.value:.12g} "
        f"(bracket [{result.lower_sum:.12g}, {result.upper_sum:.12g}], "
        f"converged={result.converged})"
    )
    return 0


def _cmd_differentiate(args) -> int:
    from .fractal_calc import f_derivative

    _, table = _curve_and_table(args)
    f = _FUNCTIONS[args.fn](table)
    value = f_derivative(f, table, args.at)
    print(f"derivative of {args.fn} at u={args.at:.12g}: {value:.12g}")
    return 0


def _cmd_solve(args) -> int:
    from .ffde import (
        SecondOrderFuzzyBvp,
        solution_to_csv,
        solve_first_order,
        solve_second_order_bvp,
    )
    from .problems import problem_from_json

    problem = problem_from_json(_run_spec(args))
    if isinstance(problem, SecondOrderFuzzyBvp):
        sol2 = solve_second_order_bvp(problem)
        sol = sol2.to_solution()
        solution_to_csv(sol, args.out)
        print(
            f"second-order BVP: crisp boundaries ({sol2.crisp[0]:.12g}, {sol2.crisp[-1]:.12g}), "
            f"{sol.us.size} J-points x {sol.rs.size} kappa-levels -> {args.out}"
        )
        return 0
    sol = solve_first_order(problem)
    solution_to_csv(sol, args.out)
    info = sol.summary()
    print(
        f"case {info['case']}: {info['u_points']} u-points x {info['r_points']} r-levels, "
        f"valid rows {info['valid_rows']}, validity horizon u={info['validity_horizon']:.12g} "
        f"-> {args.out}"
    )
    return 0


def _verify_example1(problem, tol: float) -> tuple[bool, dict]:
    from .ffde import solve_first_order, verify_against_closed_form
    from .problems import example1_case1_band, example1_case2_band

    case = problem.case
    sol = solve_first_order(problem)
    band = example1_case1_band if case == "I" else example1_case2_band
    report = verify_against_closed_form(sol, band, tol=tol, restrict_to_valid=(case == "II"))
    out = report.to_dict()
    out["builtin"] = "example1"
    out["case"] = case
    if case == "II":
        out["validity_horizon"] = sol.validity_horizon
    return report.passed, out


def _verify_example2(problem, tol: float) -> tuple[bool, dict]:
    from .ffde import ode_residual_max, solve_second_order_bvp
    from .problems import example2_crisp_closed_form

    sol2 = solve_second_order_bvp(problem)
    crisp_err = float(np.max(np.abs(sol2.crisp - example2_crisp_closed_form(sol2.js))))
    boundary_err = max(abs(sol2.crisp[0] - 3.0), abs(sol2.crisp[-1] - 2.0))
    residual = ode_residual_max(sol2.js, sol2.crisp, -4.0, 4.0, sol2.problem.forcing)
    q_err = max(
        float(np.max(np.abs(sol2.q_at(0.0) - [1.0, 0.0]))),
        float(np.max(np.abs(sol2.q_at(1.0) - [0.0, 1.0]))),
    )
    lo1, up1 = sol2.kappa_band(1.0)
    collapse_exact = bool(np.all(lo1 == sol2.crisp) and np.all(up1 == sol2.crisp))
    nested = True
    prev = sol2.kappa_band(0.0)
    for kappa in (0.25, 0.5, 0.75, 1.0):
        cur = sol2.kappa_band(kappa)
        nested &= bool(np.all(cur[0] >= prev[0]) and np.all(cur[1] <= prev[1]))
        prev = cur
    ok = (
        crisp_err <= tol
        and boundary_err <= 1e-9
        and residual <= 10.0 * tol
        and q_err <= 1e-10
        and collapse_exact
        and nested
    )
    return ok, {
        "builtin": "example2",
        "crisp_max_error": crisp_err,
        "boundary_error": boundary_err,
        "ode_residual": residual,
        "q_identity_error": q_err,
        "kappa1_collapses": collapse_exact,
        "kappa_bands_nested": nested,
        "tol": tol,
        "passed": ok,
    }


def _cmd_verify(args) -> int:
    from .ffde import SecondOrderFuzzyBvp
    from .problems import problem_from_json

    if args.spec:
        raise ValidationError("verify needs a builtin with a known closed form (--builtin)")
    if args.builtin is None:
        raise ValidationError("provide --builtin example1 or --builtin example2")
    _check_tol(args.tol)  # before the solve, for both builtins
    problem = problem_from_json(_run_spec(args))
    if isinstance(problem, SecondOrderFuzzyBvp):
        ok, report = _verify_example2(problem, args.tol)
    else:
        ok, report = _verify_example1(problem, args.tol)
    _write_record(args.out, report)
    for key, val in report.items():
        print(f"{key}: {val}")
    print("VERIFY PASS" if ok else "VERIFY FAIL")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_flags(p, default_level, alpha=False):
        p.add_argument("--curve", choices=("koch", "segment"), default="koch")
        p.add_argument("--level", type=int, default=default_level)
        if alpha:  # only the subcommands that build a staircase read it
            p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser("curve", help="generate a curve and export its vertices")
    add_curve_flags(p, 4)
    p.add_argument("--out", default="curve.csv")

    p = sub.add_parser("dim", help="estimate the gamma-dimension")
    add_curve_flags(p, 10)
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--out", default=None)

    p = sub.add_parser("staircase", help="tabulate the staircase function as CSV")
    add_curve_flags(p, 6, alpha=True)
    p.add_argument("--out", default="staircase.csv")

    p = sub.add_parser("integrate", help="integrate a named function of J over the curve")
    add_curve_flags(p, 8, alpha=True)
    p.add_argument("--fn", choices=sorted(_FUNCTIONS), default="J")
    p.add_argument("--out", default=None)

    p = sub.add_parser("differentiate", help="differentiate a named function of J")
    add_curve_flags(p, 8, alpha=True)
    p.add_argument("--fn", choices=sorted(_FUNCTIONS), default="J")
    p.add_argument("--at", type=float, default=0.5)

    for name in ("solve", "verify"):
        p = sub.add_parser(name, help=f"{name} a built-in or JSON-spec problem")
        source = p.add_mutually_exclusive_group()
        source.add_argument("--builtin", choices=BUILTIN_NAMES)
        source.add_argument("--spec")
        # unset flags leave the spec's field, or problem_from_json's default
        p.add_argument("--case", choices=("I", "II"))
        p.add_argument("--r-points", type=int)
        p.add_argument("--j-steps", type=int)
        if name == "solve":
            p.add_argument("--out", default="solution.csv")
        else:
            p.add_argument("--tol", type=float, default=1e-6)
            p.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "curve": _cmd_curve,
    "dim": _cmd_dim,
    "staircase": _cmd_staircase,
    "integrate": _cmd_integrate,
    "differentiate": _cmd_differentiate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON spec at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (FFCalcError, OSError, UnicodeDecodeError) as exc:  # unreadable spec, unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
