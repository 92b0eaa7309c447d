#!/usr/bin/env python3
"""Benchmark of modular-ppt: PPT sampling, the PPT minimizer and cone certification.

One workload per process:

    python3 bench/run.py --workload cone-certify --seed 3 --seconds 30 --trace 0

runs whole rounds of the workload for --seconds, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  ``--workload all`` runs every workload
in its own process, untraced and then traced, and prints a table.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# No matrix here is larger than 9x9; one BLAS thread per process.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("sqrt-sampling", "ppt-minimize", "cone-certify")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
SETUP_PROBE_S = 0.1   # speed-probe time before and after each set-up process
DEFAULT_SECONDS = 30


def import_package():
    """Import modular_ppt from the checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC_DIR)
    try:
        import modular_ppt
    except ImportError as exc:
        print(f"bench: cannot import modular_ppt from {SRC_DIR}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    where = os.path.dirname(os.path.abspath(modular_ppt.__file__))
    if os.path.dirname(where) != SRC_DIR:
        print(f"bench: modular_ppt was imported from {where}, not from {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    return modular_ppt


class Tally:
    """Ops attempted and failed, op latencies, redrawn inputs and problems found by the checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.redrawn: list[str] = []
        self.problems: list[str] = []


def run_round(workload, r: int, tally: Tally, tracer=None, probe=None) -> float:
    """Run round r op by op; returns the time spent inside the package's calls.

    With a speed probe, kernel units run after each op, outside its timer.
    """
    import workloads

    spent = 0.0
    gen = workload.round(r)
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            return spent
        span = tracer.begin("op") if tracer is not None else None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            elapsed = time.perf_counter() - start
            if span is not None:
                tracer.finish(span)
            if op.redraw and workloads.is_rounding_fault(exc):
                # a drawn input that hit build_composite's rounding fault: not counted
                tally.redrawn.append(f"round {r} {op.label}: {exc}")
                result = workloads.REDRAW
                continue
            # any other op that raises is a wrong answer; report it and stop the round
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append(f"round {r} {op.label}: raised\n{traceback.format_exc()}")
            gen.close()
            return spent + elapsed
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.finish(span)
        if probe is not None:
            probe.after_op(elapsed)
        tally.attempted += 1
        spent += elapsed
        tally.latencies.append(elapsed)
        tally.by_label.setdefault(op.label, []).append(elapsed)
        problems = [f"round {r} {op.label}: {p}" for p in op.check(result)]
        tally.problems += problems
        if problems or (op.fault is not None and op.fault(result)):
            tally.failed += 1


def measure_setup(workload: str, seed: int, probe) -> tuple[list, list]:
    """Wall time of fresh processes that import the package and build the inputs.

    Returns the raw times and the times scaled by the machine speed that the
    probe measures just before and just after each process.  The child is
    awaited with a blocking wait: ``Popen.wait(timeout)`` polls with sleeps
    of up to 50 ms, which would round every sample up to that grid.  A timer
    kills a child that hangs.
    """
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        mark = probe.mark()
        probe.run_for(SETUP_PROBE_S)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-only",
                                 "--workload", workload, "--seed", str(seed)],
                                stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} exited with code {code}")
        probe.run_for(SETUP_PROBE_S)
        scaled.append(samples[-1] * probe.scale_since(mark))
    return samples, scaled


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads_set": int(BLAS_THREADS),
    }


def timed_run(workload, seconds: float, tally: Tally, probe) -> tuple[list, list, list]:
    """Whole rounds, each on fresh inputs, until --seconds have passed.

    Returns each round's time in the package, its speed scale, and every op
    latency scaled by its round's scale.
    """
    round_times, scales, scaled_latencies = [], [], []
    start = time.perf_counter()
    r = 0
    while not round_times or time.perf_counter() - start < seconds:
        first_op, mark = len(tally.latencies), probe.mark()
        round_times.append(run_round(workload, r, tally, probe=probe))
        scales.append(probe.scale_since(mark))
        scaled_latencies += [t * scales[-1] for t in tally.latencies[first_op:]]
        r += 1
    return round_times, scales, scaled_latencies


def traced_run(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Round 0 alternately traced and untraced until --seconds have passed.

    Counts come from the first traced pass and must repeat in every later one;
    a count that differs is a problem, which makes the run incorrect.  Times
    are medians over passes.  Tracing overhead is the traced minus the
    untraced time of the same round.  The spans of the first traced pass are
    kept and written out; later passes keep only their metrics.
    """
    import tracing

    tracer = tracing.Tracer()
    passes: list[dict] = []
    traced, untraced = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer.install()
        mark = tracer.mark()
        try:
            traced.append(run_round(workload, 0, tally, tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer.pass_metrics(mark))
        if len(passes) > 1:
            tracer.discard(mark)
        untraced.append(run_round(workload, 0, tally))
    metrics = dict(passes[0])
    counts_repeat = True
    for name in metrics:
        stat = name.rsplit(".", 1)[1]
        values = [p[name] for p in passes]
        if stat in tracing.COUNT_STATS or stat.endswith(("_share", "_per_step")):
            if any(v != values[0] for v in values):
                counts_repeat = False
                tally.problems.append(f"count {name} differs between passes of round 0: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.pass.traced_s"] = statistics.median(traced)
    metrics["trace.pass.untraced_s"] = statistics.median(untraced)
    metrics["trace.pass.overhead_s"] = metrics["trace.pass.traced_s"] - metrics["trace.pass.untraced_s"]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload.name}-seed{workload.seed}-spans.json")
    tracer.write_spans(spans_path)
    return metrics, {"passes": len(passes), "counts_repeat": counts_repeat,
                     "traced_pass_s": traced, "untraced_pass_s": untraced, "spans_file": spans_path}


def run_workload(args) -> int:
    import_package()
    import speed
    import tracing
    import workloads

    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.setup_only:
            return 0
        tally = Tally()
        detail: dict = {}
        if args.trace:
            metrics, detail = traced_run(workload, args.seconds, tally)
            units = {name: tracing.STAT_UNITS[name.rsplit(".", 1)[1]][0] for name in metrics}
        else:
            probe = speed.SpeedProbe()
            round_times, scales, latencies = timed_run(workload, args.seconds, tally, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_raw, setup = measure_setup(args.workload, args.seed, probe)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.fmean(t * k for t, k in zip(round_times, scales)),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
            detail = {"rounds": len(round_times), "round_s_raw": round_times, "round_speed_scale": scales,
                      "setup_s_raw": setup_raw, "setup_s_scaled": setup,
                      "wall_s_raw": statistics.fmean(round_times),
                      "op_p50_ms_raw": statistics.median(tally.latencies) * 1e3,
                      "op_p50_ms_raw_by_label": {k: statistics.median(v) * 1e3
                                                 for k, v in sorted(tally.by_label.items())}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not tally.problems
    summary = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
               "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    results_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine_facts(), **summary,
                   "detail": detail, "redrawn": tally.redrawn, "problems": tally.problems}, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for problem in tally.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: ops attempted={tally.attempted} "
          f"failed={tally.failed} correct={correct}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  results: {os.path.relpath(results_path, REPO_DIR)}")
    print(json.dumps(summary))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                status = 1
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)
        rows.append((name, *results))
    print(f"{'workload':15s} {'attempted':>9s} {'failed':>6s} " +
          " ".join(f"{m + ' (' + u + ')':>16s}" for m, u in END_TO_END))
    for name, plain, _ in rows:
        if plain is None:
            print(f"{name:15s} no result")
            continue
        print(f"{name:15s} {plain['attempted']:9d} {plain['failed']:6d} " +
              " ".join(f"{plain['metrics'][m]['value']:16.4f}" for m, _ in END_TO_END))
    for name, _, traced in rows:
        if traced is None:
            continue
        print(f"\n{name} per layer (round 0, traced):")
        for metric, entry in traced["metrics"].items():
            print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
