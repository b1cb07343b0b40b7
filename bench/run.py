"""flagsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload paper-cruise --seed 0 --seconds 15 --trace 0

Workloads: paper-cruise, tiny-gen-data, tiny-closed-loop (see NOTES.md).
With --trace 0 the run reports sim_rate, setup_s and peak_rss_mb (and prints
train_s where the workload trains); with --trace 1 it wraps flagsim's layers in spans (tracer.py), reports the
per-layer metrics, and reruns one unit of work untraced to check that
tracing changes no bit and to measure its overhead. Every metric is
printed as "name value unit"; the last line is one JSON object with
correct, attempted, failed and metrics. One process, BLAS pinned to one
thread. Exits 2 without a result when flagsim's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, flagsim) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workers": 1,
        "seed": args.seed,
        "use_compiled_kernels": bool(getattr(flagsim.elastic, "USE_COMPILED_KERNELS", False)),
    }


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


# One set-up in a fresh interpreter: imports (numpy, scipy, flagsim), the
# preset, build_initial_configuration and RestConfiguration.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build_setup(sys.argv[3])
print(time.perf_counter() - start)
"""
SETUP_REPEATS = 3


def setup_seconds(rod: str) -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, HERE, rod],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def end_to_end(run, setup_times) -> dict:
    return {
        "sim_rate": (median(run.rates), "sim_s/s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run, tracer, overhead) -> dict:
    spans, counts = tracer.spans, tracer.counts
    steps = spans["stepper.step"].calls
    iters = counts["newton_iters"]
    evals = spans["elastic.evaluate_elastics"].calls
    ops = max(run.ops, 1)

    def per_step(value):
        return value / steps if steps else 0.0

    def ms_per_step(name, self_time=False):
        s = spans[name]
        return per_step(1e3 * (s.self_time if self_time else s.total))

    def ms_per_call(name):
        s = spans[name]
        return 1e3 * s.total / s.calls if s.calls else 0.0

    entries = counts["spectrum_entries"]
    return {
        "stepper.step.ms": (ms_per_step("stepper.step"), "ms/step"),
        "stepper.step.self_ms": (ms_per_step("stepper.step", True), "ms/step"),
        "stepper.external_force.self_ms": (ms_per_step("stepper.external_force", True), "ms/step"),
        "elastic.evaluate_elastics.ms": (ms_per_step("elastic.evaluate_elastics"), "ms/step"),
        "elastic.evaluate_elastics.calls_per_step": (per_step(evals), "calls/step"),
        "elastic.jacobian_from_eval.ms": (ms_per_step("elastic.jacobian_from_eval"), "ms/step"),
        "hydro.assemble_mobility.ms": (ms_per_step("hydro.assemble_mobility"), "ms/step"),
        "hydro.clamped_spectrum.ms": (ms_per_step("hydro.clamped_spectrum"), "ms/step"),
        "hydro.clamped_spectrum.calls": (per_step(spans["hydro.clamped_spectrum"].calls),
                                         "calls/step"),
        "hydro.solve_forces_and_head_spin.ms": (ms_per_step("hydro.solve_forces_and_head_spin"),
                                                "ms/step"),
        "hydro.clamped_modes_share": (counts["spectrum_clamped"] / entries if entries else 0.0,
                                      "fraction"),
        "stepper.newton_iters_per_step": (per_step(iters), "iters/step"),
        "stepper.linesearch_evals_per_iter": ((evals - steps) / iters if iters else 0.0,
                                              "evals/iter"),
        "stepper.substeps": (counts["substeps"] / ops, "1/op"),
        "learning.train_regressor.ms": (ms_per_call("learning.train_regressor"), "ms/call"),
        "learning.train_regressor.epochs": (
            counts["epochs"] / spans["learning.train_regressor"].calls
            if spans["learning.train_regressor"].calls else 0.0, "epochs/call"),
        "learning.measure_cruise.ms": (ms_per_call("learning.measure_cruise"), "ms/call"),
        "learning.extract_segments.ms": (ms_per_call("learning.extract_segments"), "ms/call"),
        "learning.datapoints": (run.counts["datapoints"] / ops, "1/op"),
        "learning.segment_rejections": (run.counts["segment_rejections"] / ops, "1/op"),
        "control.Controller.decide.ms": (ms_per_call("control.Controller.decide"), "ms/call"),
        "control.decisions": (run.counts["decisions"] / ops, "1/op"),
        "control.planned": (run.counts["planned"] / ops, "1/op"),
        "control.max_tracking_error_m": (float(run.counts["max_tracking_error_m"]), "m"),
        "control.waypoints_passed": (run.counts["waypoints_passed"] / ops, "1/op"),
        "rod.build_initial_configuration.ms": (ms_per_call("rod.build_initial_configuration"),
                                               "ms/call"),
        "trace.sim_rate": (median(run.rates), "sim_s/s"),
        "trace.overhead": (overhead, "fraction"),
    }


def untraced_rerun(run, workload) -> float:
    """Rerun one traced unit of work untraced: same bits, and the tracing overhead."""
    from workloads import same_bits

    overhead = [float("nan")]

    def rerun():
        key, arrays, rate = workload.probe()
        traced = run.units.get(key)
        if traced is None:
            return [f"{key}: no traced counterpart"]
        overhead[0] = 1.0 - traced[1] / rate
        if not same_bits(traced[0], arrays):
            return [f"{key}: traced and untraced outputs differ in bits"]
        return []

    run.attempt("untraced rerun", rerun)
    return overhead[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "flagsim")):
        print(f"flagsim sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    import flagsim
    if os.path.dirname(os.path.abspath(flagsim.__file__)) != os.path.join(SRC, "flagsim"):
        print(f"imported flagsim from {flagsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]
    env = environment(args, flagsim)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(flagsim)
    run = workloads.Run()
    setup = workloads.build_setup(kind.rod)
    workload = kind(args.seed, setup)
    reference = workloads.load_reference()

    workload.prepare(run)
    t0 = time.perf_counter()
    while run.ops < kind.min_ops or time.perf_counter() - t0 < args.seconds:
        workload.operation(run, run.ops, reference)
        run.ops += 1

    if tracer:
        tracer.uninstall()
        overhead = untraced_rerun(run, workload)
        for line in tracer.table():
            print(line)
        metrics = per_layer(run, tracer, overhead)
    else:
        metrics = end_to_end(run, [setup_seconds(kind.rod) for _ in range(SETUP_REPEATS)])

    for problem in run.problems:
        print(f"check failed: {problem}")
    print("operation rates " + " ".join(f"{r:.6g}" for r in run.rates) + " sim_s/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if run.train_times:
        print(f"train_s {median(run.train_times):.6g} s")
    print(f"error_rate {run.failed / max(run.attempted, 1):.6g} failed/attempted "
          f"({run.failed}/{run.attempted})")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
