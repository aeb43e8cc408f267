"""Run every workload on several seeds and record medians and spreads.

Usage, from the root of a checkout::

    python3 benchmark/record_baseline.py --out benchmark/baseline.json

Each workload runs ten times untraced (seeds 1 to 10) and once traced
(seed 1).  For every metric the file records the median, the quartiles
and the spread (inter-quartile distance over the median), next to the
environment the numbers belong to.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

from run import BLAS_THREADS, HERE, ROOT, WORKLOAD_NAMES

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    workloads = {}
    for name in WORKLOAD_NAMES:
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(name, SEEDS[0], seconds, 1)
        end_to_end = {}
        for metric in runs[0]["metrics"]:
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            s["bound"] = bounds.get(metric)
            end_to_end[metric] = s
            print(f"{name:15s} {metric:20s} median {s['median']:.5g} spread {s['spread']:.3f}", file=sys.stderr)
        workloads[name] = {
            "why": why.get(name, ""),
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    doc = {
        "commit": commit(),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": BLAS_THREADS,
            "machine": platform.machine(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
