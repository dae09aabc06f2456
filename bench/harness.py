"""Shared machinery of the ffcalc benchmark: paths, the closed loop,
latency statistics, fresh-interpreter probes and the machine facts.

Timing is wall clock (``time.perf_counter``) taken on the benchmark's own
process and the children it starts. Nothing traces the whole system and no
cache is dropped.

The host this runs on changes speed by up to 2x in streaks of seconds to
minutes (a fixed pure-Python loop shows it as much as ffcalc does), so the
gated latencies are relative: every op is divided by the wall time of a
fixed reference computation timed just before and just after it, and the
host's speed cancels. CPU-bound work, cache-bound work and starting a fresh
interpreter slow by different amounts, so there are three references and
each op kind names the one it is made of. Raw seconds stay in the report.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# fresh interpreters started per run to measure set-up time, half before
# the loop and half after it, so their median spans the run
SETUP_PROBES = 4
# fresh interpreters started per traced run to split the import time
IMPORT_PROBES = 3

# the reference computations run again once this much op time has passed
REF_EVERY_S = 0.25
_REF_RATES = np.linspace(0.5, 1.5, 101)
# 16 MB, the size of a Koch-10 staircase table: past L2, inside the L3
_REF_STREAM = np.ones(2 * 1024 * 1024)

TIMING_NOTE = (
    "wall clock (time.perf_counter) on the benchmark's own process and its "
    "children only; no system-wide tracing, no cache dropping; gated "
    "latencies are divided by a reference computation timed beside each op"
)


def require_source() -> None:
    """Stop unless the checkout holds the ffcalc sources the run builds on."""
    if not (SRC / "ffcalc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ffcalc sources under {SRC}; run from a full checkout")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources come first."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def import_ffcalc():
    """Import ffcalc from the checkout's sources and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ffcalc

    if not Path(ffcalc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: ffcalc imported from {ffcalc.__file__}, not from {SRC}")
    return ffcalc


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def within(name: str, err: float, tol: float) -> float:
    """Raise unless ``err <= tol``; return the error as a share of the tolerance."""
    if not np.isfinite(err) or err > tol:
        raise CheckFailed(f"{name}: error {err:.3g} above tolerance {tol:.3g}")
    return err / tol


@dataclass
class OpKind:
    """One kind of op in a workload's cycle.

    ``run(i)`` performs the timed work on the i-th input and returns its
    output; ``check(i, out)`` is untimed, raises :class:`CheckFailed` on a
    wrong answer and may return the error as a share of its tolerance.
    ``ref`` names the reference in :data:`REFERENCES` the op is made of:
    ``"stream"`` for kinds that sweep a curve or table larger than L2,
    ``"spawn"`` for kinds that start a fresh interpreter.
    """

    name: str
    run: Callable[[int], object]
    check: Callable[[int, object], float | None]
    ref: str = "cpu"


def digest(obj) -> str:
    """Hash of an op output (arrays, numbers, text and bytes, nested in tuples)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        elif isinstance(x, bytes):
            h.update(x)
        elif isinstance(x, str):
            h.update(x.encode())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _ref_cpu() -> None:
    """An RK4 sweep over 101-point numpy arrays and a pure-Python loop, the
    work most of ffcalc's in-process ops are made of; about 10 ms."""
    x, h = np.ones(101), 1e-4
    for _ in range(300):
        k1 = _REF_RATES * x
        k2 = _REF_RATES * (x + 0.5 * h * k1)
        k3 = _REF_RATES * (x + 0.5 * h * k2)
        k4 = _REF_RATES * (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    acc = 0
    for i in range(50_000):
        acc += i * i


def _ref_stream() -> None:
    """Sum and scale a 16 MB array twice; about 7 ms."""
    for _ in range(2):
        _REF_STREAM.sum()
        np.multiply(_REF_STREAM, 1.0, out=_REF_STREAM)


def _ref_spawn() -> None:
    """A fresh interpreter that imports numpy and exits, the start-up work
    a CLI call is mostly made of; about 0.2 s."""
    subprocess.run(
        [sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120
    )


# fixed computations that never touch ffcalc, by the name an OpKind gives
REFERENCES = {"cpu": _ref_cpu, "stream": _ref_stream, "spawn": _ref_spawn}


def reference_seconds(names) -> dict[str, float]:
    """Wall time of each named reference, run once."""
    out = {}
    for name in names:
        t0 = time.perf_counter()
        REFERENCES[name]()
        out[name] = time.perf_counter() - t0
    return out


@dataclass
class Sample:
    kind: str
    cycle: int
    seconds: float
    ok: bool
    traced: bool
    # mean time of the op's reference in the probes just before and after it
    ref: float = float("nan")

    @property
    def rel(self) -> float:
        return self.seconds / self.ref


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    determinism_failed: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    err_margin: float = 0.0
    wall: float = 0.0


def _attempt(kind: OpKind, i: int, result: LoopResult):
    """Run and check one op; returns (seconds, ok, output)."""
    result.attempted += 1
    out = None
    t0 = time.perf_counter()
    try:
        out = kind.run(i)
        dt = time.perf_counter() - t0
        margin = kind.check(i, out)
        if margin is not None:
            result.err_margin = max(result.err_margin, float(margin))
        return dt, True, out
    except CheckFailed as exc:
        msg = f"{kind.name}[{i}]: {exc}"
    except Exception:  # an op that raises is a failed op; the loop goes on
        msg = f"{kind.name}[{i}]: {traceback.format_exc(limit=4)}"
    result.failed += 1
    if len(result.failures) < 20:
        result.failures.append(msg)
    return time.perf_counter() - t0, False, out


def closed_loop(kinds: list[OpKind], seconds: float, tracer=None) -> LoopResult:
    """One client, next op only after the previous one completed.

    Whole cycles over ``kinds`` run until ``seconds`` have passed, so every
    kind is sampled equally often. With a tracer, odd cycles are traced and
    even ones are not, which gives the tracing overhead from interleaved
    runs. Afterwards the cycle-0 op of every kind is repeated and its output
    compared byte for byte; a mismatch is a failed op.

    The references run before the first op and again whenever
    ``REF_EVERY_S`` of op time has passed; each op's ``ref`` is the mean of
    its reference in the probes on either side of it.
    """
    result = LoopResult()
    first: dict[str, str] = {}
    min_cycles = 2 if tracer is not None else 1
    pending: list[tuple[Sample, str]] = []
    refs = sorted({kind.ref for kind in kinds})
    prev_ref = reference_seconds(refs)
    since_ref = 0.0

    def probe():
        nonlocal prev_ref, since_ref
        now = reference_seconds(refs)
        for s, ref in pending:
            s.ref = 0.5 * (prev_ref[ref] + now[ref])
        pending.clear()
        prev_ref, since_ref = now, 0.0

    t_start = time.perf_counter()
    deadline = t_start + seconds
    cycle = 0
    while cycle < min_cycles or time.perf_counter() < deadline:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        try:
            for kind in kinds:
                if since_ref >= REF_EVERY_S:
                    probe()
                if traced:
                    tracer.op_id = f"{kind.name}#{cycle}"
                dt, ok, out = _attempt(kind, cycle, result)
                sample = Sample(kind.name, cycle, dt, ok, traced)
                result.samples.append(sample)
                pending.append((sample, kind.ref))
                since_ref += dt
                if cycle == 0 and ok:
                    first[kind.name] = digest(out)
        finally:
            if traced:
                tracer.uninstall()
        cycle += 1
    probe()
    result.wall = time.perf_counter() - t_start

    for kind in kinds:
        _, ok, out = _attempt(kind, 0, result)
        if ok and kind.name in first and digest(out) != first[kind.name]:
            result.failed += 1
            result.determinism_failed.append(kind.name)
            result.failures.append(f"{kind.name}[0]: output differs on repeat")
    return result


def tail_stat(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n). Below 11 samples no percentile has ten
    beyond it and the maximum is returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def by_kind(samples: list[Sample]) -> dict[str, list[float]]:
    """Latencies grouped by op kind."""
    out: dict[str, list[float]] = {}
    for s in samples:
        out.setdefault(s.kind, []).append(s.seconds)
    return out


def median_of_kinds(groups: dict[str, list[float]]) -> float:
    """Median over op kinds of each kind's median.

    Every kind is sampled equally often, so this is the median op; taking
    each kind's median first keeps single outliers from moving it along the
    kind that happens to sit in the middle.
    """
    return statistics.median(statistics.median(v) for v in groups.values())


def latency_summary(samples: list[Sample]) -> dict:
    """End-to-end numbers from the untraced samples of a loop: relative to
    the reference computation (the gated ones) and in raw seconds."""
    plain = [s for s in samples if not s.traced]
    lat = [s.seconds for s in plain]
    rel = [s.rel for s in plain]
    tail, pct, n = tail_stat(lat)
    rel_tail, _, _ = tail_stat(rel)
    done = [s for s in plain if s.ok]
    rel_by_kind: dict[str, list[float]] = {}
    for s in plain:
        rel_by_kind.setdefault(s.kind, []).append(s.rel)
    return {
        "op_p50_rel": median_of_kinds(rel_by_kind),
        "op_tail_rel": rel_tail,
        "ops_per_ref": len(done) / sum(rel),
        "op_p50_s": median_of_kinds(by_kind(plain)),
        "op_tail_s": tail,
        "op_tail_percentile": pct,
        "samples": n,
        "ops_per_s": len(done) / sum(lat),
        "per_kind": {
            k: {"n": len(v), "min_s": min(v), "p50_s": statistics.median(v), "max_s": max(v)}
            for k, v in by_kind(plain).items()
        },
    }


def tracing_overhead(samples: list[Sample]) -> float:
    """Cycle time with tracing over cycle time without, minus one.

    Uses per-kind mean latencies so unequal cycle counts do not bias it.
    """
    def cycle_time(traced):
        groups = by_kind([s for s in samples if s.traced == traced])
        return sum(statistics.fmean(v) for v in groups.values())

    return cycle_time(True) / cycle_time(False) - 1.0


def setup_times(argv: list[str], probes: int) -> list[float]:
    """Wall times of ``probes`` fresh interpreters, each set up and exiting."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(
                f"bench: probe {argv[1:]} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace')[-2000:]}"
            )
    return times


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _import_tree(stderr: str) -> list:
    """Nodes (name, cumulative seconds, children) of ``-X importtime`` output,
    which lists every module after its own imports, indented by depth."""
    stack: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3))
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop()[1])
        stack.append((depth, (m.group(4), int(m.group(2)) * 1e-6, children)))
    return [node for _, node in stack]


def _outermost(nodes, pred) -> float:
    total = 0.0
    for name, cum, children in nodes:
        if pred(name):
            total += cum
        else:
            total += _outermost(children, pred)
    return total


def import_breakdown(probes: int = IMPORT_PROBES) -> dict:
    """Medians over fresh interpreters of what ``import ffcalc`` spends in
    numpy, in scipy (scipy.interpolate and its parents) and in ffcalc's own
    modules."""
    rows = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ffcalc"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: import probe failed: {proc.stderr[-2000:]}")
        nodes = _import_tree(proc.stderr)
        numpy_s = _outermost(nodes, lambda n: n == "numpy")
        scipy_s = _outermost(nodes, lambda n: n == "scipy" or n.startswith("scipy."))
        total = _outermost(nodes, lambda n: n == "ffcalc")
        rows.append((numpy_s, scipy_s, total - numpy_s - scipy_s))
    med = [statistics.median(col) for col in zip(*rows)]
    return {
        "import.numpy_s": med[0],
        "import.scipy_interpolate_s": med[1],
        "import.ffcalc_own_s": med[2],
    }


def _cache_sizes() -> dict:
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def machine_facts() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "cache_bytes": _cache_sizes(),
        "timing": TIMING_NOTE,
    }


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0
