"""CLI surface: commands, artifacts, exit-status taxonomy, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffcalc.cli import main
from ffcalc import MAX_GRID_CELLS, FractalCurve, solution_from_csv


def _without(obj: dict, field: str) -> dict:
    return {k: v for k, v in obj.items() if k != field}


def run_cli(args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ffcalc", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


_TRI = {"kind": "triangular", "a": -1, "b": 0, "c": 1}
_EXAMPLE1 = {"kind": "builtin", "name": "example1"}
_TABLE = {"kind": "table", "rs": [0, 1], "lowers": [0, 1], "uppers": [2, 1]}
_LINEAR_SPEC = {
    "curve": {"kind": "polyline", "params": [0, 1], "points": [[0, 0], [1, 0]]},
    "case": "I",
    "rhs": {"kind": "linear", "a": 1.0, "c": _TRI},
    "x0": {"kind": "triangular", "a": 0, "b": 1, "c": 2},
    "span": [0.0, 1.0],
    "r_points": 5,
    "j_steps": 32,
}


class TestInProcess:
    def test_dim_koch(self, capsys):
        assert main(["dim", "--curve", "koch", "--level", "8"]) == 0
        out = capsys.readouterr().out
        value = float(out.split(":")[1].split("(")[0])
        assert abs(value - math.log(4.0) / math.log(3.0)) < 0.05

    def test_staircase_csv(self, tmp_path, capsys):
        out = tmp_path / "stairs.csv"
        assert main(["staircase", "--curve", "koch", "--level", "3", "--alpha", "1.2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,J"
        assert len(lines) == 4**3 + 2

    def test_curve_export(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--curve", "koch", "--level", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,x,y" and len(lines) == 18

    def test_integrate_and_differentiate(self, capsys):
        assert main(["integrate", "--curve", "segment", "--level", "10", "--fn", "J"]) == 0
        value = float(capsys.readouterr().out.split(":")[1].split("(")[0])
        assert value == pytest.approx(0.5, abs=1e-5)
        assert main(["differentiate", "--curve", "segment", "--level", "10", "--fn", "J2", "--at", "0.5"]) == 0
        value = float(capsys.readouterr().out.rsplit(":", 1)[1])
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_solve_example1_case2_horizon(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        assert main(["solve", "--builtin", "example1", "--case", "II", "--out", str(out)]) == 0
        sol = solution_from_csv(out, case="II")
        cell = sol.us[1] - sol.us[0]
        assert abs(sol.validity_horizon - math.log(2.0)) <= cell
        flags = sol.validity
        assert flags[0] and not flags[-1]  # flips along the way

    def test_csv_reproduces_single_level_band(self, tmp_path):
        # a plotting tool can filter the CSV at one membership level and get
        # the closed-form band; check level r = 0.3 for the shrinking case
        out = tmp_path / "sol.csv"
        assert main(["solve", "--builtin", "example1", "--case", "II", "--out", str(out)]) == 0
        rows = np.array(
            [[float(x) for x in ln.split(",")] for ln in out.read_text().splitlines()[1:]]
        )
        band = rows[rows[:, 2] == 0.3]
        assert band.shape[0] == 257
        J, lo, up = band[:, 1], band[:, 3], band[:, 4]
        valid = band[:, 5] != 0.0
        ref_lo = np.exp(J) - 0.3 + (2 * 0.3 - 2) * np.exp(-J) + 1
        ref_up = 0.3 + np.exp(J) - (2 * 0.3 - 2) * np.exp(-J) - 1
        assert np.allclose(lo[valid], ref_lo[valid], atol=1e-6)
        assert np.allclose(up[valid], ref_up[valid], atol=1e-6)

    def test_solve_example2_kappa_csv(self, tmp_path):
        out = tmp_path / "bvp.csv"
        assert main(["solve", "--builtin", "example2", "--out", str(out), "--r-points", "5"]) == 0
        sol = solution_from_csv(out)
        assert sol.rs.size == 5
        # kappa = 1 column equals the crisp solution at the boundaries
        assert sol.lower[0, -1] == pytest.approx(3.0, abs=1e-9)
        assert sol.lower[-1, -1] == pytest.approx(2.0, abs=1e-9)

    def test_solve_example2_spec_kappa_levels(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rhs": {"kind": "builtin", "name": "example2"}, "r_points": 5}))
        out = tmp_path / "bvp.csv"
        assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 0
        sol = solution_from_csv(out)
        assert sol.rs.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0] and sol.us.size == 257

    @pytest.mark.parametrize(
        "spec",
        [
            {k: v for k, v in _LINEAR_SPEC.items() if k not in ("r_points", "j_steps")},
            {"rhs": {"kind": "builtin", "name": "example1"}, "case": "II"},
            {"rhs": {"kind": "builtin", "name": "example2"}},
        ],
        ids=["linear", "example1", "example2"],
    )
    def test_flags_fill_fields_the_spec_leaves_out(self, tmp_path, spec):
        path, out = tmp_path / "spec.json", tmp_path / "sol.csv"
        path.write_text(json.dumps(spec))
        args = ["solve", "--spec", str(path), "--r-points", "5", "--j-steps", "32"]
        assert main([*args, "--out", str(out)]) == 0
        assert solution_from_csv(out).lower.shape == (33, 5)  # 257 x 101 if the flags are dropped

    def test_verify_example1_both_cases(self, capsys):
        assert main(["verify", "--builtin", "example1", "--case", "I", "--tol", "1e-6"]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out
        assert main(["verify", "--builtin", "example1", "--case", "II", "--tol", "1e-6"]) == 0

    def test_verify_example2(self, capsys):
        assert main(["verify", "--builtin", "example2", "--tol", "1e-6"]) == 0
        assert "VERIFY PASS" in capsys.readouterr().out

    def test_json_artifacts(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["verify", "--builtin", "example1", "--case", "I", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True and payload["max_error"] < 1e-6
        integ = tmp_path / "integral.json"
        assert main(
            ["integrate", "--curve", "segment", "--level", "8", "--fn", "J", "--out", str(integ)]
        ) == 0
        payload = json.loads(integ.read_text())
        assert payload["value"] == pytest.approx(0.5, abs=1e-4)
        dim = tmp_path / "dim.json"
        assert main(["dim", "--curve", "koch", "--level", "7", "--out", str(dim)]) == 0
        assert abs(json.loads(dim.read_text())["estimate"] - 1.2619) < 0.05

    def test_verify_reports_failure_status(self, capsys):
        # impossible tolerance: solver error is finite, so this must fail
        assert main(["verify", "--builtin", "example1", "--case", "I", "--tol", "1e-18"]) == 3

    def test_solve_from_spec_file(self, tmp_path):
        spec = {
            "curve": {"kind": "polyline", "params": [0, 1], "points": [[0, 0], [1, 0]]},
            "case": "I",
            "rhs": {"kind": "linear", "a": 1.0, "c": {"kind": "triangular", "a": -1, "b": 0, "c": 1}},
            "x0": {"kind": "triangular", "a": 0, "b": 1, "c": 2},
            "span": [0.0, 1.0],
            "r_points": 5,
            "j_steps": 32,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sol.csv"
        assert main(["solve", "--spec", str(path), "--out", str(out)]) == 0
        assert out.exists()


class TestExitStatus:
    def test_unknown_builtin_is_validation_error(self, capsys):
        assert main(["solve", "--builtin", "example1", "--case", "II", "--r-points", "0"]) == 1

    def test_missing_source(self):
        assert main(["solve"]) == 1

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rhs": {\n  "kind": }')
        assert main(["solve", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_usage_error_maps_to_one(self, capsys):
        assert main(["solve", "--builtin", "example9"]) == 1

    @pytest.mark.parametrize("command", ["dim", "curve"])
    def test_alpha_refused_where_unread(self, capsys, command):
        # only the subcommands that build a staircase take --alpha
        assert main([command, "--level", "4", "--alpha", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --alpha 1.5\n"

    def test_numeric_failure_maps_to_two(self, tmp_path, capsys):
        # a custom problem whose staircase cannot be built: non-refinable
        # curve asked for dimension estimation
        assert main(["dim", "--curve", "segment", "--level", "2"]) == 1  # too few levels
        spec = {
            "curve": {"kind": "polyline", "params": [0, 1], "points": [[0, 0], [1, 0]]},
            "case": "I",
            "rhs": {"kind": "linear", "a": 40.0, "c": {"kind": "triangular", "a": 0, "b": 0, "c": 0}},
            "x0": {"kind": "triangular", "a": 1e300, "b": 1e300, "c": 1e300},
            "span": [0.0, 1.0],
            "r_points": 3,
            "j_steps": 32,
        }
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('"spec"', "problem spec must be a JSON object"),
            (json.dumps(json.dumps(_LINEAR_SPEC)), "problem spec must be a JSON object"),
            (
                json.dumps({**_LINEAR_SPEC, "curve": json.dumps(_LINEAR_SPEC["curve"])}),
                "curve spec must be an object with a 'kind' field",
            ),
            (
                json.dumps({**_LINEAR_SPEC, "x0": json.dumps(_TRI)}),
                "fuzzy spec must be an object with a 'kind' field",
            ),
        ],
        ids=["string", "encoded_spec", "encoded_curve", "encoded_x0"],
    )
    def test_json_string_in_spec_not_parsed_again(self, tmp_path, capsys, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "patch",
        [
            {"r_points": "abc"},
            {"j_steps": [256]},
            {"alpha": None},
            {"span": [0.0, "end"]},
            {"rhs": {"kind": "linear", "a": "q", "c": _TRI}},
            {"rhs": {"kind": "linear", "a": 1.0, "c": {"kind": "triangular", "a": "x", "b": 0, "c": 1}}},
            {"x0": {"kind": "triangular", "a": 0, "b": [1], "c": 2}},
            {"x0": {"kind": "table", "rs": [0, 1], "lowers": ["lo", 1], "uppers": [2, 1]}},
            {"x0": {"kind": "table", "rs": [0, [1]], "lowers": [0, 1], "uppers": [2, 1]}},
            {"curve": {"kind": "polyline", "params": [0, "end"], "points": [[0, 0], [1, 0]]}},
            # float() and numpy convert these, but JSON strings and bools are not numbers
            {"alpha": "1.5"},
            {"alpha": True},
            {"rhs": {"kind": "linear", "a": "1", "c": _TRI}},
            {"x0": {"kind": "triangular", "a": 0, "b": True, "c": 2}},
            {"span": ["0", 1]},
            {"x0": {"kind": "table", "rs": [0, 1], "lowers": ["0", "1"], "uppers": [2, 1]}},
            {"curve": {"kind": "polyline", "params": [0, 1], "points": [[0, 0], ["1", 0]]}},
        ],
        ids=["r_points", "j_steps", "alpha", "span", "rhs_a", "triangular_a", "triangular_b",
             "table_lowers", "table_ragged", "polyline_params", "alpha_str", "alpha_bool",
             "rhs_a_str", "triangular_b_bool", "span_str", "table_lowers_str",
             "polyline_points_str"],
    )
    def test_non_numeric_spec_field(self, tmp_path, capsys, patch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LINEAR_SPEC, **patch}))
        assert main(["solve", "--spec", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_numeric_spec_field_subprocess(self, tmp_path, cli_env):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LINEAR_SPEC, "r_points": "abc"}))
        proc = run_cli(["solve", "--spec", str(path)], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    # Python's json writes and reads NaN, Infinity and -Infinity, which are
    # not JSON numbers; the -Infinity foot used to warn from numpy first
    @pytest.mark.parametrize(
        "patch, shown",
        [
            ({"rhs": {"kind": "linear", "a": math.nan, "c": _TRI}}, "nan"),
            ({"rhs": {"kind": "linear", "a": math.inf, "c": _TRI}}, "inf"),
            ({"x0": {"kind": "triangular", "a": -math.inf, "b": 1, "c": 2}}, "-inf"),
        ],
        ids=["linear_a_nan", "linear_a_inf", "triangular_a_minus_inf"],
    )
    def test_non_finite_spec_number_subprocess(self, tmp_path, cli_env, patch, shown):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LINEAR_SPEC, **patch}))
        proc = run_cli(["solve", "--spec", str(path)], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: 'a' must be a finite number, got {shown}\n"
        assert not (tmp_path / "solution.csv").exists()

    def test_dim_tol_nan_subprocess(self, tmp_path, cli_env):
        args = ["dim", "--curve", "koch", "--level", "6", "--tol", "nan"]
        proc = run_cli(args, env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: tol must be a finite positive number\n"

    @pytest.mark.parametrize("builtin", ["example1", "example2"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
    def test_verify_tol_checked_before_solve(self, monkeypatch, capsys, builtin, tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve reached")

        # the verify command imports the solvers from ffde when it runs
        monkeypatch.setattr("ffcalc.ffde.solve_first_order", no_solve)
        monkeypatch.setattr("ffcalc.ffde.solve_second_order_bvp", no_solve)
        assert main(["verify", "--builtin", builtin, f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: tol must be a finite non-negative number, got {float(tol)!r}\n"

    def test_verify_tol_nan_subprocess(self, tmp_path, cli_env):
        args = ["verify", "--builtin", "example1", "--tol", "nan"]
        proc = run_cli(args, env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: tol must be a finite non-negative number, got nan\n"

    @pytest.mark.parametrize(
        "curve, level, cap",
        [("koch", 13, 12), ("koch", -1, 12), ("segment", 25, 24), ("segment", 40, 24)],
    )
    def test_dim_level_over_cap(self, monkeypatch, capsys, curve, level, cap):
        # a missing check would refine until memory runs out; fail at once instead
        def no_refinement(self):
            raise AssertionError("refinement reached")

        monkeypatch.setattr(FractalCurve, "refine", no_refinement)
        assert main(["dim", "--curve", curve, "--level", str(level)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {curve} level must be an integer in [0, {cap}]\n"

    def test_differentiate_at_nan_subprocess(self, tmp_path, cli_env):
        proc = run_cli(["differentiate", "--level", "4", "--at", "nan"], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: stencil [nan, nan] leaves the domain [0.0, 1.0]\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--builtin", "example1", "--j-steps", str(MAX_GRID_CELLS // 101 + 1)],
            ["--builtin", "example1", "--r-points", str(MAX_GRID_CELLS // 256 + 1)],
            ["--builtin", "example2", "--j-steps", str(MAX_GRID_CELLS + 1)],
        ],
        ids=["example1_j_steps", "example1_r_points", "example2_steps"],
    )
    def test_grid_just_over_cap(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main(["solve", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid too large") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "span, steps",
        [([0.5, 0.5 + 1e-15], 256), ([0.0, 1e-160], 16)],
        ids=["coincident_nodes", "step_squared_underflows"],
    )
    def test_span_too_narrow_subprocess(self, tmp_path, cli_env, span, steps):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LINEAR_SPEC, "span": span, "j_steps": steps}))
        proc = run_cli(["solve", "--spec", str(path)], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: integration span") and proc.stderr.count("\n") == 1
        assert "too narrow" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "solution.csv").exists()

    def test_grid_just_over_cap_subprocess(self, tmp_path, cli_env):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**_LINEAR_SPEC, "j_steps": MAX_GRID_CELLS // 5 + 1}))
        proc = run_cli(["solve", "--spec", str(path)], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: grid too large") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "r_points, message",
        [
            (-1, "error: r_points must be >= 2"),
            (0, "error: r_points must be >= 2"),
            (1, "error: r_points must be >= 2"),
            # the default --j-steps 256 gives the kappa table 257 rows
            (MAX_GRID_CELLS // 257 + 1, "error: grid too large"),
        ],
        ids=["neg", "zero", "one", "over_cap"],
    )
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_example2_kappa_levels_checked(self, tmp_path, capsys, command, r_points, message):
        out = tmp_path / "x.out"
        args = [command, "--builtin", "example2", "--r-points", str(r_points), "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_example2_spec_steps_checked(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rhs": {"kind": "builtin", "name": "example2"}, "j_steps": 8}))
        out = tmp_path / "x.csv"
        assert main(["solve", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: steps must be >= 16\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, spec, message",
        [
            (["solve", "--case", "II"], _LINEAR_SPEC,
             "--case conflicts with the spec field 'case'"),
            (["solve", "--r-points", "7"], _LINEAR_SPEC,
             "--r-points conflicts with the spec field 'r_points'"),
            (["solve", "--j-steps", "32"], _LINEAR_SPEC,
             "--j-steps conflicts with the spec field 'j_steps'"),
            (["solve", "--builtin", "example1"], _LINEAR_SPEC,
             "argument --spec: not allowed with argument --builtin"),
            (["verify", "--builtin", "example1"], _LINEAR_SPEC,
             "argument --spec: not allowed with argument --builtin"),
            (["solve", "--builtin", "example1", "--tol", "1e-6"], None,
             "unrecognized arguments: --tol 1e-6"),
            (["solve"], {**_LINEAR_SPEC, "r_points": 2.5},
             "'r_points' must be an integer, got 2.5"),
            (["solve"], {**_LINEAR_SPEC, "j_steps": 16.9},
             "'j_steps' must be an integer, got 16.9"),
            (["solve"], {**_LINEAR_SPEC, "j_steps": 32.0},
             "'j_steps' must be an integer, got 32.0"),
            (["solve"], {**_LINEAR_SPEC, "r_points": True},
             "'r_points' must be an integer, got True"),
            (["solve"], {**_LINEAR_SPEC, "curve": {"kind": "koch", "level": True}},
             "koch level must be an integer in [0, 12]"),
            (["solve", "--builtin", "example2", "--case", "II"], None,
             "builtin 'example2' is second order and takes no 'case'"),
            (["verify", "--builtin", "example2", "--case", "II"], None,
             "builtin 'example2' is second order and takes no 'case'"),
            (["solve"], {"rhs": {"kind": "builtin", "name": "example2"}, "case": "I"},
             "builtin 'example2' is second order and takes no 'case'"),
            (["solve"], {"rhs": _EXAMPLE1, "span": ["x", 1]},
             "builtin 'example1' takes no 'span'"),
            (["solve"], {"rhs": _EXAMPLE1, "span": [0.0, 0.5]},
             "builtin 'example1' takes no 'span'"),
            (["solve"], {"rhs": _EXAMPLE1, "curve": _LINEAR_SPEC["curve"]},
             "builtin 'example1' takes no 'curve'"),
            (["solve"], {"rhs": _EXAMPLE1, "alpha": 1.5},
             "builtin 'example1' takes no 'alpha'"),
            (["solve", "--case", "II"], {"rhs": _EXAMPLE1, "x0": _TRI},
             "builtin 'example1' takes no 'x0'"),
            (["solve"], {"rhs": {"kind": "builtin", "name": "example2"}, "x0": _TRI},
             "builtin 'example2' takes no 'x0'"),
        ],
        ids=["case_twice", "r_points_twice", "j_steps_twice", "builtin_and_spec",
             "verify_builtin_and_spec", "solve_tol", "r_points_float", "j_steps_float",
             "j_steps_whole_float", "r_points_bool", "koch_level_bool", "example2_case_flag",
             "verify_example2_case_flag", "example2_case_field", "builtin_bad_span",
             "builtin_span", "builtin_curve", "builtin_alpha", "builtin_x0",
             "example2_x0"],
    )
    def test_one_value_per_run_parameter(self, tmp_path, capsys, args, spec, message):
        out = tmp_path / "out.csv"
        argv = [*args, "--out", str(out)]
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv += ["--spec", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({**_without(_LINEAR_SPEC, "j_steps"), "r_points": 3, "j_step": 16},
             "linear problem spec takes no 'j_step'"),
            (_without(_LINEAR_SPEC, "x0"), "linear problem spec needs field 'x0'"),
            ({"rhs": _EXAMPLE1, "j_step": 16}, "builtin 'example1' takes no 'j_step'"),
            ({"j_steps": 16}, "rhs spec must be an object with a 'kind' field"),
            (
                {"rhs": {"kind": "builtin", "name": "example1", "a": 5.0}, "j_steps": 16, "r_points": 3},
                "builtin rhs spec takes no 'a'",
            ),
            ({"rhs": {"kind": "builtin"}}, "builtin rhs spec needs field 'name'"),
            ({**_LINEAR_SPEC, "rhs": {**_LINEAR_SPEC["rhs"], "b": 2.0}},
             "linear rhs spec takes no 'b'"),
            ({**_LINEAR_SPEC, "rhs": _without(_LINEAR_SPEC["rhs"], "c")},
             "linear rhs spec needs field 'c'"),
            ({**_LINEAR_SPEC, "curve": {"kind": "koch", "levle": 5}},
             "koch curve spec takes no 'levle'"),
            ({**_LINEAR_SPEC, "curve": {"kind": "koch"}}, "koch curve spec needs field 'level'"),
            ({**_LINEAR_SPEC, "curve": {**_LINEAR_SPEC["curve"], "closed": True}},
             "polyline curve spec takes no 'closed'"),
            ({**_LINEAR_SPEC, "curve": _without(_LINEAR_SPEC["curve"], "points")},
             "polyline curve spec needs field 'points'"),
            ({**_LINEAR_SPEC, "x0": {**_LINEAR_SPEC["x0"], "d": 3}},
             "triangular fuzzy spec takes no 'd'"),
            ({**_LINEAR_SPEC, "x0": _without(_LINEAR_SPEC["x0"], "c")},
             "triangular fuzzy spec needs field 'c'"),
            ({**_LINEAR_SPEC, "x0": {**_TABLE, "levels": 2}}, "table fuzzy spec takes no 'levels'"),
            ({**_LINEAR_SPEC, "x0": _without(_TABLE, "uppers")},
             "table fuzzy spec needs field 'uppers'"),
            ({**_LINEAR_SPEC, "x0": {"kind": ["x"]}}, "unknown fuzzy kind ['x']"),
        ],
        ids=["custom_unknown", "custom_missing", "builtin_unknown", "builtin_missing",
             "builtin_rhs_unknown", "builtin_rhs_missing", "linear_rhs_unknown",
             "linear_rhs_missing", "koch_unknown", "koch_missing", "polyline_unknown",
             "polyline_missing", "triangular_unknown", "triangular_missing", "table_unknown",
             "table_missing", "kind_not_a_string"],
    )
    def test_spec_fields_checked(self, tmp_path, capsys, spec, message):
        # every spec object holds exactly the fields of its kind: a misspelt or
        # extra field is refused by name, never dropped in favour of a default
        out = tmp_path / "out.csv"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", "--spec", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--spec", "missing.json"], "No such file or directory: 'missing.json'"),
            (["--spec", "."], "Is a directory: '.'"),
            (["--spec", "latin1.json"], "'utf-8' codec can't decode byte 0xe9"),
            (["--builtin", "example1", "--out", "no/such/dir.csv"], "No such file or directory"),
        ],
        ids=["missing_spec", "directory_spec", "undecodable_spec", "unwritable_out"],
    )
    def test_file_errors_subprocess(self, tmp_path, cli_env, args, message):
        (tmp_path / "latin1.json").write_bytes('{"case": "\xe9"}'.encode("latin-1"))
        proc = run_cli(["solve", *args], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["dim", "--curve", "segment", "--level", "4"],
            ["integrate", "--level", "4"],
            ["verify", "--builtin", "example1"],
        ],
        ids=["dim", "integrate", "verify"],
    )
    def test_unwritable_out_prints_nothing_subprocess(self, tmp_path, cli_env, args):
        # the record is written before the result is printed
        proc = run_cli([*args, "--out", "no/such/dir.json"], env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "No such file or directory" in proc.stderr

    def test_example2_kappa_levels_overflow_subprocess(self, tmp_path, cli_env):
        args = ["solve", "--builtin", "example2", "--r-points", str(10**29)]
        proc = run_cli(args, env=cli_env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: grid too large") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


# JSON values a spec field may hold: small valid sizes, values at and past
# the limits, non-finite floats and values of the wrong type; each draw is a
# fresh copy, so a later mutation cannot write into a shared list or dict
_FIELD = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.sampled_from([MAX_GRID_CELLS + 1, 1e30]),
    st.sampled_from([None, True, "3", "x", "{}", [], [1, 2], {}, {"kind": "koch"}]),
).map(copy.deepcopy)
_UNIT = st.floats(min_value=0.0, max_value=1.0)


def _triangular(draw, width=1.0):
    a, b, c = sorted(draw(st.floats(min_value=-width, max_value=width)) for _ in range(3))
    return {"kind": "triangular", "a": a, "b": b, "c": c}


@st.composite
def _sound_specs(draw):
    """A spec that solves: a linear problem on a segment or a Koch curve, or a builtin."""
    kind = draw(st.sampled_from(["segment", "koch", "example1", "example2"]))
    sizes = {
        "r_points": draw(st.integers(min_value=2, max_value=11)),
        "j_steps": draw(st.integers(min_value=16, max_value=64)),
        "case": draw(st.sampled_from(["I", "II"])),
    }
    if kind == "example2":
        del sizes["case"]  # a second-order problem takes no case
    if kind.startswith("example"):
        return {"rhs": {"kind": "builtin", "name": kind}, **sizes}
    u0, u1 = sorted(draw(st.tuples(_UNIT, _UNIT)))
    if kind == "segment":
        curve = {"kind": "polyline", "params": [0, 1], "points": [[0, 0], [1, 0]]}
        alpha = 1.0
    else:
        curve = {"kind": "koch", "level": draw(st.integers(min_value=0, max_value=3))}
        alpha = draw(st.floats(min_value=1.0, max_value=2.0))
    return {
        "curve": curve,
        "alpha": alpha,
        "rhs": {"kind": "linear", "a": draw(st.floats(-3.0, 3.0)), "c": _triangular(draw)},
        "x0": _triangular(draw, 2.0),
        "span": [u0, u1],
        **sizes,
    }


# where a mutation may land: a top-level field, a field of a nested object,
# or a nested object as a whole
_PATHS = [
    ("rhs",), ("rhs", "kind"), ("rhs", "name"), ("rhs", "a"), ("rhs", "c"), ("rhs", "c", "kind"),
    ("rhs", "c", "a"), ("rhs", "c", "b"), ("x0",), ("x0", "kind"), ("x0", "a"), ("x0", "c"),
    ("x0", "rs"), ("x0", "lowers"), ("curve",), ("curve", "kind"), ("curve", "level"),
    ("curve", "params"), ("curve", "points"), ("alpha",), ("span",), ("span", 0), ("span", 1),
    ("case",), ("r_points",), ("j_steps",),
]


# a field no spec object has
_UNKNOWN = "no_such_field"


def _objects(node):
    """The spec object and every object nested in it, depth first."""
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from _objects(child)


@st.composite
def _specs(draw):
    """A sound spec with up to three fields replaced or deleted, then at
    times an unknown field put into the spec or an object nested in it, or a
    JSON value that is not an object."""
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        return draw(st.sampled_from([[], "spec", '{"rhs": {"kind": "builtin"}}', 3, None]))
    spec = draw(_sound_specs())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        *parents, last = draw(st.sampled_from(_PATHS))
        node = spec
        for key in parents:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, list) and isinstance(last, int) and last < len(node):
            node[last] = draw(_FIELD)
        elif isinstance(node, dict):
            if draw(st.booleans()):
                node.pop(last, None)
            else:
                node[last] = draw(_FIELD)
    if draw(st.booleans()):
        draw(st.sampled_from(list(_objects(spec))))[_UNKNOWN] = draw(_FIELD)
    return spec


class TestSpecFuzz:
    """`solve --spec` on arbitrary spec objects ends in a status, not a traceback."""

    @given(spec=_specs())
    @settings(max_examples=300, deadline=None)
    def test_solve_spec_exits_cleanly(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "spec.json", Path(tmp) / "x.csv"
            path.write_text(json.dumps(spec))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # "no valid slice"
                    status = main(["solve", "--spec", str(path), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert status in (0, 1, 2)
        if _UNKNOWN in json.dumps(spec):
            assert status == 1  # refused while the spec is read, before any solve
        if status == 0:
            assert lines == []
        else:
            assert len(lines) == 1
            assert lines[0].startswith("error: " if status == 1 else "numeric failure: ")
            assert "malformed JSON" not in lines[0]  # the file always holds valid JSON


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tmp_path, cli_env):
        for case in ("I", "II"):
            blobs = []
            for k in range(2):
                out = tmp_path / f"rep_{case}_{k}.csv"
                proc = run_cli(
                    ["solve", "--builtin", "example1", "--case", case, "--out", str(out)],
                    env=cli_env,
                    cwd=tmp_path,
                )
                assert proc.returncode == 0, proc.stderr
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"case {case}"


class TestGoldenBytes:
    """sha256 of CLI outputs recorded while dense output still came from
    scipy's CubicHermiteSpline and each writer formatted its own values; any
    change to a number's computation or to its text form shows up here."""

    KOCH_ALPHA = repr(math.log(4.0) / math.log(3.0))
    CASES = {
        "example1_I": (
            ["solve", "--builtin", "example1", "--case", "I"],
            "0f869391a29d3698e63704f82eccb70745d2ea9089a2becf2d95a3a39674bcb8",
        ),
        "example1_II": (
            ["solve", "--builtin", "example1", "--case", "II"],
            "53e35b065776352cc14a0aa0327720937df13ec63e71476377bafe0ae607a4f6",
        ),
        "example2": (
            ["solve", "--builtin", "example2"],
            "92d161e31dc01965dd0de5e943e64d1ef1a80f9a3f16416fa90aa650ce328c8f",
        ),
        "staircase_koch8": (
            ["staircase", "--curve", "koch", "--level", "8", "--alpha", KOCH_ALPHA],
            "205c36a6ce9b2db9d6213a94ba27e42affa7a263a36283e4202bef24da6c8ff0",
        ),
        "curve_koch4": (
            ["curve", "--curve", "koch", "--level", "4"],
            "5e1d7b7601337976927804fe131a4945cbc6b09c73ccc331fb05f2f6756791ec",
        ),
    }

    # recorded while every bisection step summed over every segment; --tol
    # 1e-9 takes 30 steps, so 30 sign decisions must match
    DIM_CASES = {
        "dim_koch10": (
            ["dim", "--curve", "koch", "--level", "10"],
            "b5c89510da79728728ddfb4b5c1f6ba14149c8d4b2b2cdbd9d4baec2a4d6d71f",
            "742b5e35d038a19b770f2a126b20f72e8c59530a8283e944b82c0e1a863492c0",
        ),
        "dim_koch8_tol1e-9": (
            ["dim", "--curve", "koch", "--level", "8", "--tol", "1e-9"],
            "4752c057e972f74c3d2f9dac7f143443c7e6120dbc455e159a39ad6134ca6623",
            "c093877fb13f564443149b4c907db35b4ad9dce82ab03ea14f64a6eebc145dcf",
        ),
        # recorded before the stencil, the refinement walk and the --out
        # writers each became one function
        "integrate_expJ_koch6": (
            ["integrate", "--fn", "expJ", "--level", "6"],
            "a26f424dadb516c10d5c19380d2f6595913571bdb16200bf67cc4a4fbdabe344",
            "87f3fa777bc9472311919dec296f057c42e5847681067a3eba2a6cb29840df81",
        ),
        "verify_example1_II": (
            ["verify", "--builtin", "example1", "--case", "II"],
            "eea5ab99273eeaa49088da8be5beb8df8b287482dfb31cfa0fef9b3d355cafc9",
            "1c94ec36364c468eb731d72a008bf6f9e9a7f7d46dcfdcea7236294e4f02056f",
        ),
        "verify_example2": (
            ["verify", "--builtin", "example2"],
            "c4c3c59b31e8a669b6053c79b2d495f7c7dc31690dfa63c91c8952f2a2fae1ab",
            "3872b37df1d10a3e0645ff50f71ee8e0f7063f37b717c41200120a93da341045",
        ),
    }

    STDOUT_CASES = {
        "differentiate_J2_koch8": (
            ["differentiate", "--fn", "J2", "--level", "8"],
            "9f9710edbf6970f123cd00d7eae53459c2f309a7e36a9ff1da5e8bd6548e9ab5",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_hash(self, tmp_path, capsys, name):
        args, digest = self.CASES[name]
        out = tmp_path / "out.csv"
        assert main([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(DIM_CASES))
    def test_dim_stdout_and_json_hash(self, tmp_path, capsys, name):
        args, stdout_digest, json_digest = self.DIM_CASES[name]
        out = tmp_path / "out.json"
        assert main([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest

    @pytest.mark.parametrize("name", sorted(STDOUT_CASES))
    def test_stdout_hash(self, capsys, name):
        args, digest = self.STDOUT_CASES[name]
        assert main(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestSurface:
    """Every --help text and a set of usage errors, exactly as recorded in
    cli_surface.json: text, stream and exit status. argparse words them,
    so the record holds only under the Python version that made it."""

    RECORD = json.loads((Path(__file__).parent / "cli_surface.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "case", RECORD["cases"], ids=lambda case: " ".join(case["argv"]) or "no_arguments"
    )
    def test_as_recorded(self, monkeypatch, capsys, case):
        if "%d.%d" % sys.version_info[:2] != self.RECORD["python"]:
            pytest.skip(f"recorded under Python {self.RECORD['python']}")
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
        try:
            status = main(case["argv"])
        except SystemExit as exc:  # --help prints and exits
            status = exc.code
        out, err = capsys.readouterr()
        assert (status, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_cli_does_not_import_scipy(tmp_path, cli_env):
    code = (
        "import sys, ffcalc\n"
        "from ffcalc.cli import main\n"
        "assert main(['solve', '--builtin', 'example1', '--out', 'sol.csv']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
