"""Benchmark of ffcalc: three seeded closed-loop workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --smoke

Run from a checkout; ffcalc is taken from its ``src`` directory. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is the full report (machine facts, seed, sample counts, per-kind
latencies, tracing overhead), which is also written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

import harness
from harness import BENCH, OUT, SETUP_PROBES

WORKLOADS = ("cli_oneshot", "ivp_sweep", "curve_calculus")


def _manifest() -> dict:
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _units() -> dict:
    m = _manifest()
    return {x["name"]: x["unit"] for x in m["end_to_end"] + m["per_layer"]}


def _in_process_module(name: str):
    if name == "ivp_sweep":
        import wl_ivp

        return wl_ivp
    import wl_curve

    return wl_curve


def _end_to_end(loop, setup, rss_mb) -> dict:
    lat = harness.latency_summary(loop.samples)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_rel": lat["op_p50_rel"],
        "op_tail_rel": lat["op_tail_rel"],
        "ops_per_ref": lat["ops_per_ref"],
        "ok_frac": 1.0 - loop.failed / loop.attempted,
        "peak_rss_mb": rss_mb,
    }, lat


def run_cli(args, report: dict) -> tuple:
    import wl_cli

    probe = [sys.executable, "-c", "import ffcalc"]
    setup = harness.setup_times(probe, SETUP_PROBES // 2)
    wl = wl_cli.Workload(args.seed)
    try:
        loop = harness.closed_loop(wl.kinds, args.seconds)
        rss = harness.peak_rss_mb(resource.RUSAGE_CHILDREN)
        setup += harness.setup_times(probe, SETUP_PROBES - SETUP_PROBES // 2)
        metrics, lat = _end_to_end(loop, setup, rss)
        layers = {}
        if args.trace:
            from spans import Tracer

            harness.import_ffcalc()
            tracer = Tracer()
            attributed = wl.attribute_layers(tracer)
            layers = {**attributed["layers"], **wl.cli_metrics(loop.samples)}
            layers["problems.spec_load_s"] = tracer.spec_load_seconds()
            layers["trace.overhead_frac"] = attributed["overhead"]
            layers["ffde.err_margin"] = loop.err_margin
            report["trace_overhead_basis"] = "in-process cli.main round, traced vs untraced"
            tracer.dump(OUT / f"spans-cli_oneshot-seed{args.seed}.json")
    finally:
        wl.close()
    return loop, setup, metrics, lat, layers


def run_in_process(args, report: dict) -> tuple:
    module = _in_process_module(args.workload)
    probe = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup"]
    setup = harness.setup_times(probe, SETUP_PROBES // 2)
    ff = harness.import_ffcalc()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wl = module.Workload(ff, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report["workload_info"] = wl.info
    loop = harness.closed_loop(wl.kinds, args.seconds, tracer)
    rss = harness.peak_rss_mb(resource.RUSAGE_SELF)
    setup += harness.setup_times(probe, SETUP_PROBES - SETUP_PROBES // 2)
    metrics, lat = _end_to_end(loop, setup, rss)
    layers = {}
    if tracer is not None:
        traced_ops = sum(1 for s in loop.samples if s.traced)
        layers = tracer.layer_metrics(traced_ops)
        layers["problems.spec_load_s"] = tracer.spec_load_seconds()
        layers["trace.overhead_frac"] = harness.tracing_overhead(loop.samples)
        layers["ffde.err_margin"] = loop.err_margin
        report["trace_overhead_basis"] = "interleaved cycles, traced vs untraced"
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return loop, setup, metrics, lat, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true", help="quick self-check of the harness")
    args = p.parse_args(argv)

    harness.require_source()
    if args.smoke:
        import smoke

        return smoke.main()
    if args.workload is None:
        p.error("--workload is required")
    if args.probe_setup:
        _in_process_module(args.workload).Workload(harness.import_ffcalc(), args.seed)
        return 0

    units = _units()
    OUT.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.machine_facts(),
        "loop": "closed, one client",
    }
    runner = run_cli if args.workload == "cli_oneshot" else run_in_process
    loop, setup, end_to_end, lat, layers = runner(args, report)
    report["end_to_end"] = end_to_end
    metrics = end_to_end
    if args.trace:
        layers.update(harness.import_breakdown())
        metrics = report["per_layer"] = {
            x["name"]: layers.get(x["name"], 0.0) for x in _manifest()["per_layer"]
        }
    report.update(
        setup_samples_s=setup,
        setup_probes=SETUP_PROBES,
        latency=lat,
        op_tail_percentile=lat["op_tail_percentile"],
        samples=lat["samples"],
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures,
        determinism_failed=loop.determinism_failed,
        err_margin=loop.err_margin,
        loop_wall_s=loop.wall,
        samples_s=[[x.kind, x.cycle, x.seconds, x.traced, x.ref] for x in loop.samples],
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
