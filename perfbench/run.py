"""Benchmark of ewtforecast: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run, which also times untraced passes to give
its own overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the machine and environment and the digest of the forecasts. The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SPANS, LayerProbe, layer_metrics, per_layer_units
from tracer import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
PACKAGE = "ewtforecast"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "rmse_vs_persistence": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share ``q`` of the sample at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _blas_info() -> dict:
    """Name and thread count of the OpenBLAS that numpy loaded, where it can be asked."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "threads": None}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["name"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_thread_env": {k: os.environ[k] for k in sorted(os.environ)
                            if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def measure(workload, seconds: float) -> dict:
    """Untraced passes for ``seconds``; the end-to-end metrics."""
    setup_s = statistics.median(_timed_setup(workload) for _ in range(SETUP_REPEATS))
    pass_times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(pass_times) < 2:
        pass_times.append(workload.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps_ms = [t * 1e3 for t in workload.latencies_s]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(pass_times),
        "step_ms_p50": percentile(steps_ms, 0.50),
        "step_ms_p99": percentile(steps_ms, 0.99),
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(workload, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    probe = LayerProbe()
    setup_tracer = Tracer()
    with instrument(setup_tracer, PACKAGE, probe.hooks(workload.traced_setup_spans)):
        workload.setup()

    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        untraced.append(workload.run_pass())
        probe.reset_pass()
        with instrument(tracer, PACKAGE, probe.hooks(SPANS)):
            traced.append(workload.run_pass())

    per_pass = tracer.totals(1.0 / len(traced))
    totals = dict(per_pass)
    for name, value in setup_tracer.totals().items():
        totals[name] = totals.get(name, 0.0) + value
    maxima = {**setup_tracer.maxima, **tracer.maxima}
    metrics = layer_metrics(totals, maxima)
    self_per_pass = sum(per_pass.get(f"{span}.self_s", 0.0) for span in SPANS)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.coverage_frac"] = self_per_pass / statistics.mean(traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE).is_dir():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, work, SRC)
        if args.trace:
            values, units = measure_traced(workload, args.seconds), per_layer_units()
        else:
            values, units = measure(workload, args.seconds), END_TO_END_UNITS
        digest = workload.finish()
        if not args.trace:
            values["rmse_vs_persistence"] = workload.rmse_ratio
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run still uses it

    for failure in workload.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not workload.failures
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
