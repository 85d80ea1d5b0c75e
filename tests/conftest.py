import os
from pathlib import Path

import numpy as np
import pytest

from topowin import CsvSchema, Diagrams, PipelineConfig, TimeSeries, Windows, rips_persistence_dim0_batch, run
from topowin.io import write_series_csv


def deaths(diagram):
    """Death values of a diagram's pairs, in pair order."""
    return [d for _, d in diagram.pairs]


def windows_of(windows):
    """One ``Windows`` of ``LabeledWindow``s of one shape."""
    return Windows(
        np.array([w.points for w in windows], dtype=float),
        np.array([w.label for w in windows], dtype=np.int64),
        np.array([w.time_range for w in windows], dtype=float).reshape(-1, 2),
    )


def by_shape(clouds):
    """Position lists of ``clouds`` per shape, in order of first appearance."""
    groups = {}
    for i, cloud in enumerate(clouds):
        groups.setdefault(np.shape(cloud), []).append(i)
    return list(groups.values())


def dim0_per_shape(clouds, *args, **kwargs):
    """Dimension-0 diagrams of clouds of mixed shapes: one batched call per
    shape, packed in input order."""
    pairs = [None] * len(clouds)
    for group in by_shape(clouds):
        for i, diag in zip(group, rips_persistence_dim0_batch([clouds[i] for i in group], *args, **kwargs)):
            pairs[i] = diag.pairs
    return Diagrams.from_pairs(0, pairs)


def make_series(values, labels=None, channel_names=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n, d = values.shape
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    if channel_names is None:
        channel_names = tuple(f"c{i}" for i in range(d))
    return TimeSeries(
        timestamps=np.arange(n, dtype=float),
        values=values,
        labels=np.asarray(labels, dtype=np.int64),
        channel_names=channel_names,
    )


def synthetic_two_class_series(
    n_windows: int = 100,
    w: int = 10,
    d: int = 3,
    sigma_a: float = 0.1,
    sigma_b: float = 2.0,
    seed: int = 20240803,
) -> TimeSeries:
    """Alternating blocks of w rows: even blocks are tight noise (class 0),
    odd blocks wide noise (class 1)."""
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for block in range(n_windows):
        label = block % 2
        sigma = sigma_b if label else sigma_a
        rows.append(rng.normal(0.0, sigma, size=(w, d)))
        labels.extend([label] * w)
    values = np.vstack(rows)
    return TimeSeries(
        timestamps=np.arange(values.shape[0], dtype=float),
        values=values,
        labels=np.asarray(labels, dtype=np.int64),
        channel_names=tuple(f"f{i}" for i in range(d)),
    )


SYNTH_SCHEMA = CsvSchema(timestamp="timestamp", features=("f0", "f1", "f2"), label="label")


def synthetic_config_dict(run_id: str, data_path, n_windows: int = 100, w: int = 10) -> dict:
    train_rows = (n_windows * 6 // 10) * w
    total_rows = n_windows * w
    return {
        "run_id": run_id,
        "data": str(data_path),
        "schema": {
            "timestamp": "timestamp",
            "features": ["f0", "f1", "f2"],
            "label": "label",
        },
        "splits": [["train", 0, train_rows], ["test", train_rows, total_rows]],
        "window": w,
        "stride": w,
        "label_rule": "majority",
        "standardize": "fit_on_combined",
        "offset": "auto",
        "anchors": "origin",
        "dimension": 0,
        "essential_policy": "dropped",
        "p": 1.0,
        "k": 5,
        "seed": 20240803,
    }


@pytest.fixture
def synth_csv(tmp_path):
    series = synthetic_two_class_series()
    path = tmp_path / "synthetic.csv"
    write_series_csv(series, path)
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """(config, data, runs root) of a finished run on 30 synthetic windows."""
    base = tmp_path_factory.mktemp("small")
    data = base / "synthetic.csv"
    write_series_csv(synthetic_two_class_series(), data)
    cfg = PipelineConfig.from_dict(synthetic_config_dict("small", data, n_windows=30))
    run(cfg, data, runs_root=base / "runs")
    return cfg, data, base / "runs"


@pytest.fixture
def replaced(monkeypatch):
    """Targets of the ``os.replace`` calls made from here on, in order."""
    targets = []
    replace = os.replace

    def recording(src, dst):
        targets.append(Path(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    return targets
