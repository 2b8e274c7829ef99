"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads ladder dense scan --seeds 1-10 \
        --seconds 20 [--trace 1] [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, from
the root of the checkout.  For each workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
With ``--out`` it also writes the summary, the seeds, the Python version
and the number of usable CPUs as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The run's result line, and how long the whole run took."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads:
        runs = []
        durations = []
        for seed in args.seeds:
            result, duration = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            durations.append(duration)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} in {duration:.1f} s", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name] = {"unit": first["unit"], **stats}
            print(f"  {name:28s} median {stats['median']:.6g} {first['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}", flush=True)
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_wall_s": summarise(durations),
            "metrics": metrics,
        }
    if args.out is not None:
        doc = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": args.seeds,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
