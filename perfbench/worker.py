"""One benchmark process: import topowin from the checkout, set up, then run
the workload in a closed loop (the next ``pipeline.run`` starts when the
previous one has returned and been checked) until the time is up.

Invoked by ``run.py`` as ``python3 perfbench/worker.py '<spec json>'``.  The
spec names the workload, seed, input CSV, work directory, seconds and mode:

* ``probe``: set up once, print the set-up time and exit;
* ``plain``: set up, then timed iterations with tracing off, each between
  two runs of the calibration task (``calibration.py``);
* ``trace``: set up, untraced and traced iterations in turn, then the
  microbenchmarks.

Set-up time runs from before ``import topowin`` until the first timed
iteration may start; for a warm workload it includes the priming run.  The
calibration task runs right after set-up (``run.py`` runs it right before
starting this process).  The last line of stdout is one JSON object with the
measurements.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def main(spec: dict) -> dict:
    started = time.perf_counter()
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import topowin
    from topowin import pipeline

    if not Path(topowin.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"topowin imported from {topowin.__file__}, not from {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    cfg = pipeline.PipelineConfig.from_dict(wl.config_dict(spec["seed"]))
    data = Path(spec["data"])
    work = Path(spec["work"])
    runs_root = work / "runs"
    run_dir = runs_root / cfg.run_id
    shutil.rmtree(runs_root, ignore_errors=True)
    if wl.warm:
        pipeline.run(cfg, data, runs_root=runs_root, workers=wl.workers)
    setup_s = time.perf_counter() - started
    import calibration

    setup = {"setup_s": setup_s, "setup_calibration_s": calibration.sample()}
    if spec["mode"] == "probe":
        return setup

    from check import Checker, snapshot

    checker = Checker(wl, spec["seed"], data)
    problems: list[str] = []
    primed = None
    if wl.warm:
        bad = checker.problems(run_dir)
        if bad:
            raise SystemExit(f"priming run failed its check: {bad}")
        primed = snapshot(run_dir)

    speeds: list[float] = []  # calibration task times, one before and one after each iteration

    def iteration(run, calibrate: bool = False) -> tuple[float, list[str]]:
        if not wl.warm:
            shutil.rmtree(runs_root, ignore_errors=True)
        if calibrate:
            speeds.append(calibration.sample())
        start = time.perf_counter()
        error = None
        try:
            run(cfg, data, runs_root=runs_root, workers=wl.workers)
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if calibrate:
            speeds.append(calibration.sample())
        if error:
            return elapsed, [error]
        bad = checker.problems(run_dir)
        if primed is not None and snapshot(run_dir) != primed:
            bad.append("warm artifacts or report differ from the priming run")
        return elapsed, bad

    failed = 0

    def record(times: list[float], outcome: tuple[float, list[str]]) -> None:
        nonlocal failed
        times.append(outcome[0])
        if outcome[1]:
            failed += 1
            problems.extend(outcome[1])

    deadline = time.perf_counter() + spec["seconds"]
    times: list[float] = []
    result: dict = {**setup, "run_times": times}
    if spec["mode"] == "plain":
        while True:
            record(times, iteration(pipeline.run, calibrate=True))
            if time.perf_counter() >= deadline:
                break
        result["normalised_times"] = [
            calibration.normalised(t, speeds[2 * i], speeds[2 * i + 1]) for i, t in enumerate(times)
        ]
        result["calibration_times"] = speeds
    else:
        import micro
        from tracing import SELF_METRICS, Tracer

        # Untraced and traced iterations alternate, so both see the same
        # machine conditions and their difference estimates the overhead.
        tracer = Tracer()
        traced_run = tracer.wrap("pipeline.run", pipeline.run)
        traced: list[float] = []
        while True:
            record(times, iteration(pipeline.run))
            tracer.run_id = f"{wl.name}-{spec['seed']}-{len(traced)}"
            uninstall = tracer.install()
            try:
                record(traced, iteration(traced_run))
            finally:
                uninstall()
            if time.perf_counter() >= deadline:
                break
        tracer.write(work / "spans.json")
        layers = tracer.layer_metrics(len(traced))
        accounted = sum(layers[k] for k in SELF_METRICS)
        if abs(accounted - layers["trace.run_s"]) > 1e-6:
            problems.append(f"layer self times sum to {accounted}, traced run is {layers['trace.run_s']}")
            failed += 1
        provenance = json.loads((run_dir / pipeline.PROVENANCE_FILE).read_text(encoding="utf-8"))
        for stage in provenance["stages"]:
            layers[f"pipeline.stage.{stage['stage']}_s"] = stage["duration_s"]
        statuses = [s["status"] for s in provenance["stages"]]
        layers["pipeline.cache_hit_ratio"] = statuses.count("cached") / len(statuses)
        layers["trace.untraced_run_s"] = sum(times) / len(times)
        layers["trace.overhead_s"] = layers["trace.run_s"] - layers["trace.untraced_run_s"]
        layers["trace.iterations"] = len(traced)
        counts = {"train": wl.n_train, "test": wl.n_test}
        layers.update(micro.compute(spec["seed"]))
        layers.update(micro.artifacts(run_dir, work / "micro", counts, wl.dimension))
        result["layers"] = layers
        result["traced_times"] = traced

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        attempted=len(times) + len(result.get("traced_times", [])),
        failed=failed,
        problems=problems[:10],
        peak_rss_mb=(self_kb + children_kb) / 1024.0,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
