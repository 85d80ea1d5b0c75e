#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload occ-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; topowin is imported from its ``src/``.
The script writes the seeded input CSV, measures set-up in separate
processes, runs the workload in a worker process and prints, as the last
line of stdout, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0`` (times
normalised to the reference machine speed by ``calibration.py``), the
per-layer metrics with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from workloads import DEFAULT_SEED, WORKLOADS, write_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes
TIME_LIMIT_S = 170  # every worker must have ended by then


def worker(spec: dict, deadline: float) -> dict:
    """Run worker.py with ``spec``; its last stdout line is its result.

    The calibration task runs right before the worker starts, so together
    with the worker's own run right after set-up it brackets the set-up."""
    before = calibration.sample()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "setup_calibration_before_s": before}


def end_to_end(results: list[dict]) -> dict[str, float]:
    last = results[-1]
    times = last["normalised_times"]
    setups = [
        calibration.normalised(r["setup_s"], r["setup_calibration_before_s"], r["setup_calibration_s"])
        for r in results
    ]
    print(f"run_s: median of {len(times)} normalised iterations: {', '.join(f'{t:.4f}' for t in times)} s")
    print(f"setup_s: median of {len(setups)} normalised set-ups: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(
        f"wall time: run median {statistics.median(last['run_times']):.4f} s, set-up median "
        f"{statistics.median(r['setup_s'] for r in results):.4f} s; calibration task: median "
        f"{statistics.median(last['calibration_times']):.4f} s (reference {calibration.REFERENCE_S} s)"
    )
    return {
        "run_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": last["peak_rss_mb"],
        "success_rate": 1.0 - last["failed"] / last["attempted"],
    }


def per_layer(result: dict) -> dict[str, float]:
    layers = result["layers"]
    print(
        f"traced: {len(result['traced_times'])} iterations, mean {layers['trace.run_s']:.4f} s; "
        f"untraced: {len(result['run_times'])} iterations, mean {layers['trace.untraced_run_s']:.4f} s"
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topowin" / "__init__.py").is_file():
        print(f"topowin sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = work / "series.csv"
        write_csv(data, args.seed, wl.rows)
        spec = {
            "src": str(SRC),
            "workload": wl.name,
            "seed": args.seed,
            "data": str(data),
            "seconds": args.seconds,
        }
        if args.trace:
            results = [worker({**spec, "work": str(work / "main"), "mode": "trace"}, deadline)]
        else:
            results = [
                worker({**spec, "work": str(work / f"probe{i}"), "mode": "probe"}, deadline)
                for i in range(SETUP_SAMPLES - 1)
            ]
            results.append(worker({**spec, "work": str(work / "main"), "mode": "plain"}, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        spans = work / "main" / "spans.json"
        if spans.exists():
            kept = HERE / ".work" / f"spans-{wl.name}-{args.seed}.json"
            spans.replace(kept)
            print(f"spans written to {kept.relative_to(ROOT)}")
        shutil.rmtree(work, ignore_errors=True)

    last = results[-1]
    for problem in last["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    values = per_layer(last) if args.trace else end_to_end(results)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(
        json.dumps(
            {
                "correct": last["failed"] == 0,
                "attempted": last["attempted"],
                "failed": last["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
