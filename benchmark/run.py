"""Benchmark for bevtrack: one workload per process, run from the repository root.

    python3 benchmark/run.py --workload train-c05 --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (set-up time, median step, throughput, peak memory).
With ``--trace 1`` the run alternates untraced rounds of steps with rounds
in which the package's public functions are replaced by span-recording
wrappers (see tracer.py); the last line then holds the per-layer metrics,
the gap between the two kinds of round is the tracing overhead, and every
span goes to ``benchmark/out``.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count is pinned before numpy loads; see README.md for why 1.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7  # set-ups per untraced run; setup_s is their median


def timed_steps(wl, st, seconds, tracer=None):
    """Whole rounds of steps until ``seconds`` have passed; per-step seconds and span roots."""
    times, roots = [], []
    end = time.perf_counter() + seconds
    while True:
        for _ in range(wl.round_size):
            idx = tracer.open("step") if tracer else None
            t0 = time.perf_counter()
            wl.step(st)
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(idx)
                roots.append(idx)
            wl.record(st)
        if time.perf_counter() >= end:
            return times, roots


def timed_setup(wl, tracer=None):
    idx = tracer.open("setup") if tracer else None
    t0 = time.perf_counter()
    st = wl.setup()
    dt = time.perf_counter() - t0
    if tracer:
        tracer.close(idx)
    return st, dt, idx


def run_untraced(wl, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        st, dt, _ = timed_setup(wl)
        setups.append(dt)
    times, _ = timed_steps(wl, st, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, failed = wl.check(st)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "step_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "frames_per_s": (len(times) * wl.frames_per_step / sum(times), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, len(times), failed, problems, {"setup_s_each": setups, "step_s_each": times}


def run_traced(wl, seconds, trace_path):
    """Untraced and traced rounds in turn on one state, then an untimed counting round."""
    import tracer as tr

    tracer = tr.Tracer()
    tr.install(tracer)
    tr.install_iou_counters(tracer)
    try:
        st, _, setup_root = timed_setup(wl, tracer)
    finally:
        tracer.restore()
    setup_counts = dict(tracer.counts)
    plain, times, roots = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        plain += timed_steps(wl, st, 0.0)[0]
        tr.install(tracer)
        try:
            t, r = timed_steps(wl, st, 0.0, tracer)
        finally:
            tracer.restore()
        times += t
        roots += r
    step_counts = {k: v - setup_counts.get(k, 0.0) for k, v in tracer.counts.items()}
    before = dict(tracer.counts)
    tr.install_iou_counters(tracer)  # a counting wrapper costs about a tenth of an IoU call
    try:
        counted, _ = timed_steps(wl, st, 0.0)
    finally:
        tracer.restore()
    for name in tr.IOU_COUNTS:
        step_counts[name] = (tracer.counts.get(name, 0.0) - before.get(name, 0.0)) * len(times) / len(counted)
    problems, failed = wl.check(st)
    values = tr.per_layer_metrics(tracer, [setup_root], roots, setup_counts, step_counts)
    untraced, traced = statistics.median(plain) * 1e3, statistics.median(times) * 1e3
    values["trace.untraced_step_ms_p50"] = untraced
    values["trace.traced_step_ms_p50"] = traced
    values["trace.self_sum_share"] = values["trace.self_sum_ms"] / untraced
    values["trace.overhead_share"] = traced / untraced - 1.0
    units = tr.per_layer_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    tracer.write(trace_path, {"metrics": values, "untraced_step_s_each": plain, "traced_step_s_each": times})
    return metrics, len(plain) + len(times) + len(counted), failed, problems, {}


def main(argv=None):
    if not (ROOT / "src" / "bevtrack" / "__init__.py").is_file():
        print(f"error: no bevtrack sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, outdir)
    try:
        if args.trace:
            metrics, attempted, failed, problems, extra = run_traced(wl, args.seconds, outdir / f"trace-{tag}.json")
        else:
            metrics, attempted, failed, problems, extra = run_untraced(wl, args.seconds)
    finally:
        for path in wl.files:
            path.unlink(missing_ok=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(outdir / f"result-{tag}.json", "w") as f:
        json.dump({**result, "problems": problems, "host": host(), **extra}, f, indent=1)
    print(json.dumps(result))
    return 0


def host():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
