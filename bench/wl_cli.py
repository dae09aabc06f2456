"""cli_oneshot: one fresh ``python -m ffcalc`` child at a time.

This is how the tool is used. Interpreter start and imports take most of
each call and CSV writing comes next, so import, CLI and CSV-write gains
show here and solver gains barely do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import oracle
from harness import OUT, OpKind, by_kind, child_env, require, within
from inputs import INPUTS, KOCH6, linear_params, linear_spec, rng_for

# example1 as its documentation states it: x' = x + c, x0 = (0, 1, 2), c = (-1, 0, 1)
EXAMPLE1 = {"a": 1.0, "x0": (0.0, 1.0, 2.0), "c": (-1.0, 0.0, 1.0)}

COMMANDS = {
    "solve_I": ["solve", "--builtin", "example1", "--case", "I", "--out", "{out}"],
    "solve_II": ["solve", "--builtin", "example1", "--case", "II", "--out", "{out}"],
    "solve_spec": ["solve", "--spec", "{spec}", "--out", "{out}"],
    "verify_ex2": ["verify", "--builtin", "example2"],
    "dim_koch10": ["dim", "--curve", "koch", "--level", "10"],
    "staircase_koch8": [
        "staircase", "--curve", "koch", "--level", "8", "--alpha", repr(oracle.KOCH_DIM),
        "--out", "{out}",
    ],
}

# per-layer metric -> the commands whose median child wall time it reports
CLI_METRICS = {
    "cli.solve_s": ("solve_I", "solve_II"),
    "cli.solve_spec_s": ("solve_spec",),
    "cli.verify_s": ("verify_ex2",),
    "cli.dim_s": ("dim_koch10",),
    "cli.staircase_s": ("staircase_koch8",),
}


class Workload:
    def __init__(self, seed: int):
        rng = rng_for(seed, "cli_oneshot")
        self.work = OUT / f"work-cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.spec_params = [linear_params(rng, "I" if k % 2 == 0 else "II") for k in range(INPUTS)]
        for k, params in enumerate(self.spec_params):
            with open(self.work / f"spec-{k}.json", "w", encoding="utf-8") as fh:
                json.dump(linear_spec(params, KOCH6, 256), fh)
        self.out_bytes: list[int] = []
        checks = {
            "solve_I": self._check_solve(lambda i: dict(EXAMPLE1, case="I"), lambda u: u),
            "solve_II": self._check_solve(lambda i: dict(EXAMPLE1, case="II"), lambda u: u),
            "solve_spec": self._check_solve(lambda i: self.spec_params[i % INPUTS], oracle.koch_J),
            "verify_ex2": self._check_verify,
            "dim_koch10": self._check_dim,
            "staircase_koch8": self._check_staircase,
        }
        self.kinds = [
            OpKind(name, self._runner(name), checks[name], ref="spawn") for name in COMMANDS
        ]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def argv(self, name: str, i: int) -> list[str]:
        out = self.work / f"{name}.csv"
        spec = self.work / f"spec-{i % INPUTS}.json"
        return [a.format(out=out, spec=spec) for a in COMMANDS[name]]

    def _runner(self, name):
        def run(i):
            argv = self.argv(name, i)
            out = self.work / f"{name}.csv"
            out.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "ffcalc", *argv],
                cwd=self.work, env=child_env(), capture_output=True, timeout=120,
            )
            data = out.read_bytes() if out.exists() else b""
            self.out_bytes.append(len(proc.stdout) + len(data))
            return (proc.returncode, proc.stdout, proc.stderr, data)

        return run

    # -- checks ----------------------------------------------------------------

    @staticmethod
    def _exit_ok(out):
        rc, _stdout, stderr, _data = out
        require(rc == 0, f"exit {rc}: {stderr.decode(errors='replace')[-300:]}")

    def _check_solve(self, params_of, J_of_u):
        def check(i, out):
            self._exit_ok(out)
            cols = oracle.parse_solution_csv(out[3])
            require(cols[0].size == 257 and cols[2].size == 101, "table is not 257 x 101")
            return oracle.check_linear_solution(params_of(i), *cols, J_of_u)

        return check

    def _check_verify(self, i, out):
        self._exit_ok(out)
        text = out[1].decode()
        require("VERIFY PASS" in text, "verify did not pass")
        m = re.search(r"crisp_max_error: (\S+)", text)
        require(m is not None, "no crisp_max_error line")
        within("reported crisp error", float(m.group(1)), 1e-6)

    def _check_dim(self, i, out):
        self._exit_ok(out)
        m = re.search(r"gamma-dimension estimate: (\S+)", out[1].decode())
        require(m is not None, "no estimate line")
        oracle.check_dimension(float(m.group(1)), "koch")

    def _check_staircase(self, i, out):
        self._exit_ok(out)
        oracle.check_koch_table(*oracle.parse_staircase_csv(out[3]), 8)

    # -- traced run ------------------------------------------------------------

    def cli_metrics(self, samples) -> dict:
        per_kind = by_kind(samples)
        out = {
            metric: statistics.median([t for k in kinds for t in per_kind.get(k, [])])
            for metric, kinds in CLI_METRICS.items()
        }
        out["cli.out_bytes"] = statistics.fmean(self.out_bytes)
        return out

    def attribute_layers(self, tracer) -> dict:
        """Run every command in-process through ``ffcalc.cli.main`` once
        untraced (after a warm-up round) and once traced, so the traced
        round attributes a CLI call's time to layers and the pair gives the
        tracing overhead."""
        import ffcalc.cli

        rounds = {}
        for label in ("warm", "plain", "traced"):
            total = 0.0
            for k, name in enumerate(COMMANDS):
                if label == "traced":
                    tracer.install()
                    tracer.op_id = f"{name}#cli"
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = ffcalc.cli.main(self.argv(name, k))
                finally:
                    total += time.perf_counter() - t0
                    if label == "traced":
                        tracer.uninstall()
                if rc != 0:
                    raise SystemExit(f"bench: in-process {name} exited {rc}")
            rounds[label] = total
        return {
            "layers": tracer.layer_metrics(len(COMMANDS)),
            "overhead": rounds["traced"] / rounds["plain"] - 1.0,
        }
