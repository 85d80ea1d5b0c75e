#!/usr/bin/env python3
"""Measure every workload on several seeds and write a baseline record.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BASELINE.json

For each workload in BENCHMARK.json: one untraced run per seed, then one traced run on the
first seed.  The record holds, per end-to-end metric, the values, median,
quartiles and spread (interquartile range over median, as the bounds in
BENCHMARK.json are judged), the traced per-layer metrics, and the git
revision, Python and numpy versions and CPU count it was measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    record = {
        "revision": revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in [w["name"] for w in benchmark["workloads"]]:
        runs = [bench(name, seed, seconds, 0) for seed in args.seeds]
        traced = bench(name, args.seeds[0], seconds, 1)
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                metric: {"unit": runs[0]["metrics"][metric]["unit"],
                         **summary([r["metrics"][metric]["value"] for r in runs])}
                for metric in runs[0]["metrics"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, {m: round(v["spread"], 4) for m, v in record["workloads"][name]["end_to_end"].items()})
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
