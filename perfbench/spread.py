"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads wf_adaptive,stream_step --seeds 10 \
        [--first-seed 0] [--seconds S] [--out trajectory.json]

Runs are sequential, one process at a time, from the root of the checkout.
For every workload and metric it prints the median, the quartiles and the
spread (third minus first quartile, as a share of the median), and checks
the spread against the metric's bound from ``BENCHMARK.json``. ``--out``
writes every run's result and environment record plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return {"seed": seed, "env": env, "digest": digest, "result": json.loads(lines[-1])}


def summarise(values: list, bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": None if bound is None else spread < bound / 3.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["result"]["metrics"].items()),
                flush=True)
        names = runs[0]["result"]["metrics"] if len(runs) > 1 else {}
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs],
                                   bounds.get(name) if not args.trace else None)
                   for name in names}
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
