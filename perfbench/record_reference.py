#!/usr/bin/env python3
"""Record the default-seed outputs the benchmark's check compares against.

    python3 perfbench/record_reference.py

Runs each reference workload once at the default seed with the topowin in
this checkout's ``src/`` and writes ``perfbench/reference/<name>.json``:
the test x train distances (exact float repr), the k-NN predictions, the
confusion matrix and the exact accuracy.  Re-record only when a change is
meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

from check import REFERENCE_DIR, confusion, knn_predictions, only_file, read_distmat, window_labels
from workloads import DEFAULT_SEED, WORKLOADS, write_csv

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from topowin import pipeline

    work = HERE / ".work" / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    recorded = set()
    for wl in WORKLOADS.values():
        if wl.reference in recorded:
            continue
        recorded.add(wl.reference)
        shutil.rmtree(work, ignore_errors=True)
        data = work / "series.csv"
        write_csv(data, DEFAULT_SEED, wl.rows)
        cfg = pipeline.PipelineConfig.from_dict(wl.config_dict(DEFAULT_SEED))
        pipeline.run(cfg, data, runs_root=work / "runs", workers=wl.workers)
        run_dir = work / "runs" / cfg.run_id
        train_labels, test_labels = window_labels(data, wl)
        D = read_distmat(only_file(run_dir, "distances", "distmat.csv"))
        predictions = knn_predictions(D, train_labels, wl.k)
        classes, C = confusion(predictions, test_labels)
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        if report["confusion"] != C:
            raise SystemExit(f"{wl.name}: report confusion {report['confusion']} != recomputed {C}")
        accuracy = Fraction(sum(C[i][i] for i in range(len(C))), len(test_labels))
        payload = {
            "workload": wl.name,
            "seed": DEFAULT_SEED,
            "predictions": predictions,
            "classes": classes,
            "confusion": C,
            "accuracy": str(accuracy),
            "distances": D.tolist(),
        }
        path = REFERENCE_DIR / f"{wl.reference}.json"
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}: accuracy {accuracy}, confusion {C}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
