"""Quick self-check of the harness, about a minute:

    python3 bench/run.py --smoke

1. every op of every workload runs once and passes its check, and every
   check rejects the same output once its numbers are perturbed;
2. one traced and one untraced run print a result line with exactly the
   keys and metric names BENCHMARK.json promises;
3. a directory holding only BENCHMARK.json and bench/ makes the run fail.

It lives outside tests/ so that timing noise can never fail the test suite.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np

import harness
from harness import BENCH, OUT, CheckFailed


def _perturb(x):
    """Move every float in an op output by 5% of its size plus 0.05."""
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        return x + 0.05 * (1.0 + np.abs(x))
    if isinstance(x, float):
        return x + 0.05 * (1.0 + abs(x))
    if isinstance(x, tuple):
        return tuple(_perturb(v) for v in x)
    return x


def _perturb_cli(out):
    """Move one number of a command's CSV, or every number it printed."""
    rc, stdout, stderr, data = out
    if data:
        lines = data.split(b"\n")
        row, col = (107, 3) if lines[0].startswith(b"u,J,r") else (2, 1)
        fields = lines[row].split(b",")
        fields[col] = repr(float(fields[col]) + 0.05).encode()
        lines[row] = b",".join(fields)
        return (rc, stdout, stderr, b"\n".join(lines))
    bumped = re.sub(rb"\d+\.\d+", lambda m: repr(float(m.group()) + 0.05).encode(), stdout)
    return (rc, bumped.replace(b"VERIFY PASS", b"VERIFY FAIL"), stderr, data)


def _self_test(kinds, perturb) -> list[str]:
    problems = []
    for kind in kinds:
        out = kind.run(0)
        try:
            kind.check(0, out)
        except CheckFailed as exc:
            problems.append(f"{kind.name}: correct output rejected: {exc}")
            continue
        try:
            kind.check(0, perturb(out))
            problems.append(f"{kind.name}: perturbed output accepted")
        except CheckFailed:
            pass
    return problems


def _check_result_line(stdout: str, section: str) -> list[str]:
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"run not correct: {result.get('failed')} failed")
    names = [m["name"] for m in manifest[section]]
    if list(result["metrics"]) != names:
        problems.append(f"{section} metric names differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number")
    return problems


def main() -> int:
    import wl_cli
    import wl_curve
    import wl_ivp

    problems = []
    ff = harness.import_ffcalc()
    for module in (wl_ivp, wl_curve):
        problems += _self_test(module.Workload(ff, 0).kinds, _perturb)
    cli = wl_cli.Workload(0)
    try:
        problems += _self_test(cli.kinds, _perturb_cli)
    finally:
        cli.close()

    run = [sys.executable, str(BENCH / "run.py"), "--workload", "curve_calculus", "--seconds", "0"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(run + ["--trace", trace], capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            problems.append(f"trace {trace} run exited {proc.returncode}: {proc.stderr[-500:]}")
        else:
            problems += _check_result_line(proc.stdout, section)

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve_calculus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without sources did not fail cleanly")

    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
