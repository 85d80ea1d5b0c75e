"""Per-layer microbenchmarks through topowin's public functions.

Each one times single calls with ``perf_counter`` and reports the median,
the 90th percentile and the sample count.  The compute benchmarks take
their inputs from a small seeded series, so every workload reports them
on the same kind of input; the io benchmarks read and rewrite the artifacts
of the workload's own last run.
"""

from __future__ import annotations

import itertools
import statistics
import time
from pathlib import Path

import numpy as np

from workloads import CHANNELS, make_series

COMPUTE_SAMPLES = {
    "persistence.dim0_cloud_us": 200,
    "persistence.dim1_cloud_us": 40,
    "distance.pair_us": 200,
    "distance.pair_dim1_us": 60,
    "classify.knn_row_us": 200,
}
IO_SAMPLES = 10
MAXSCALE_DIM1 = 3.0


def _time(fn, samples: int, scale: float) -> list[float]:
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        fn()
        out.append((time.perf_counter() - start) * scale)
    return out


def _summary(name: str, values: list[float]) -> dict[str, float]:
    return {
        name: statistics.median(values),
        f"{name}.p90": statistics.quantiles(values, n=10)[8],
        f"{name}.n": len(values),
    }


def _clouds(seed: int, w: int, count: int):
    """``count`` augmented clouds of ``w`` + 1 points from a standardized seeded series."""
    import topowin as tw

    values, labels = make_series(seed, w * count)
    series = tw.TimeSeries(np.arange(w * count) * 60.0, values, labels, CHANNELS)
    split = tw.SplitSpec((("all", 0, w * count),))
    std = tw.apply_standardizer(series, tw.fit_standardizer(series, split))
    aug = tw.AugmentConfig.defaults(len(CHANNELS))
    return [tw.augment(win, aug) for win in tw.make_windows(std, tw.WindowConfig(w, w))]


def compute(seed: int) -> dict[str, float]:
    import topowin as tw

    clouds0 = _clouds(seed, 10, 40)
    clouds1 = _clouds(seed, 30, 20)
    diagrams0 = [tw.rips_persistence_dim0(c) for c in clouds0]
    diagrams1 = [tw.rips_persistence_dim1(c, MAXSCALE_DIM1) for c in clouds1]
    cfg0 = tw.WassersteinConfig(p=1.0, dimension=0)
    cfg1 = tw.WassersteinConfig(p=1.0, dimension=1)
    rng = np.random.default_rng(seed)
    row = rng.random(800)
    row_labels = [int(v) for v in rng.random(800) < 0.25]
    knn = tw.KnnConfig(k=50)

    c0, c1 = itertools.cycle(clouds0), itertools.cycle(clouds1)
    p0 = itertools.cycle(itertools.combinations(diagrams0, 2))
    p1 = itertools.cycle(itertools.combinations(diagrams1, 2))
    calls = {
        "persistence.dim0_cloud_us": lambda: tw.rips_persistence_dim0(next(c0)),
        "persistence.dim1_cloud_us": lambda: tw.rips_persistence_dim1(next(c1), MAXSCALE_DIM1),
        "distance.pair_us": lambda: tw.wasserstein(*next(p0), cfg0),
        "distance.pair_dim1_us": lambda: tw.wasserstein(*next(p1), cfg1),
        "classify.knn_row_us": lambda: tw.knn_predict(row, row_labels, knn),
    }
    out: dict[str, float] = {}
    for name, samples in COMPUTE_SAMPLES.items():
        out.update(_summary(name, _time(calls[name], samples, 1e6)))
    return out


def artifacts(run_dir: Path, out_dir: Path, window_counts: dict[str, int], dimension: int) -> dict[str, float]:
    """Read and write time of each artifact kind of a finished run."""
    from topowin import io

    def one(stage: str, suffix: str) -> Path:
        return next((run_dir / stage).glob(f"*.{suffix}"))

    series_path = one("ingest", "series.csv")
    channels = io.read_series_csv(series_path).channel_names
    policy = "dropped" if dimension == 0 else "capped"
    kinds = {
        "series": (io.read_series_csv, series_path, io.write_series_csv),
        "params": (io.read_params_json, one("standardize", "params.json"), io.write_params_json),
        "windows": (
            io.read_windows_csv,
            one("windows", "windows.csv"),
            lambda value, path: io.write_windows_csv(value, channels, path),
        ),
        "clouds": (io.read_clouds_csv, one("clouds", "clouds.csv"), io.write_clouds_csv),
        "diagrams": (
            lambda path: io.read_diagrams_csv(path, window_counts, dimension, policy),
            one("diagrams", "diagrams.csv"),
            io.write_diagrams_csv,
        ),
        "distmat": (io.read_distmat_csv, one("distances", "distmat.csv"), io.write_distmat_csv),
        "report": (io.read_report_json, one("classify", "report.json"), io.write_report_json),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    out: dict[str, float] = {}
    for kind, (read, path, write) in kinds.items():
        value = read(path)
        target = out_dir / path.name
        out.update(_summary(f"io.read.{kind}_s", _time(lambda: read(path), IO_SAMPLES, 1.0)))
        out.update(_summary(f"io.write.{kind}_s", _time(lambda: write(value, target), IO_SAMPLES, 1.0)))
    return out
