"""Sliding windows over a time series.

A window of length ``w`` advanced by stride ``s`` turns consecutive rows
into a point cloud of ``w`` points in R^d; each window gets one class
label from the per-row labels it covers.  The ``majority`` rule is the
k-NN class vote (``classify.plurality``) with its default tie rule: among
tied labels, the one that occurs first in the window wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import plurality
from .errors import DataError
from .ingest import TimeSeries

LABEL_RULES = ("any_positive", "majority")


@dataclass(frozen=True)
class WindowConfig:
    w: int  # points per window, >= 2
    s: int  # stride in time steps, >= 1
    label_rule: str = "any_positive"

    def __post_init__(self) -> None:
        if self.w < 2:
            raise ValueError(f"window length must be >= 2, got {self.w}")
        if self.s < 1:
            raise ValueError(f"stride must be >= 1, got {self.s}")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label rule must be one of {LABEL_RULES}, got '{self.label_rule}'")


@dataclass(frozen=True, slots=True)
class LabeledWindow:
    """One window of a split.  Its position i in the split's list is its
    only number: it holds source rows s*i .. s*i+w-1."""

    points: np.ndarray  # (w, d)
    label: int
    time_range: tuple[float, float]


def window_label(labels: Sequence[int], rule: str) -> int:
    """Collapse the per-row labels of one window to a single class label.
    ``any_positive``: 1 if any row is labeled 1, else 0.  ``majority``: the
    most frequent label; among tied labels the earliest in the window wins."""
    row = np.asarray(labels, dtype=np.int64).reshape(1, -1)
    if row.size == 0:
        raise DataError("cannot label an empty window")
    return _label_windows(row, rule)[0]


def _label_windows(labels: np.ndarray, rule: str) -> list[int]:
    """``window_label`` of every row of a (windows, w) array of per-row labels."""
    if rule == "any_positive":
        return (labels == 1).any(axis=1).astype(int).tolist()
    if rule == "majority":
        return plurality(labels, [labels.shape[1]], "nearest_neighbor_label")[0]
    raise ValueError(f"label rule must be one of {LABEL_RULES}, got '{rule}'")


def window_count(length: int, w: int, s: int) -> int:
    """Number of full windows over ``length`` rows; trailing remainder dropped."""
    if length < w:
        return 0
    return (length - w) // s + 1


def make_windows(series: TimeSeries, cfg: WindowConfig) -> list[LabeledWindow]:
    """Cut the series into labeled windows; a trailing partial window is dropped.

    One (count, w) index array gathers every window at once: the points of
    window i are row i of one (count, w, d) array of the series' own values.
    """
    n = series.length
    if n < cfg.w:
        raise DataError(f"series has {n} rows, shorter than window length {cfg.w}")
    starts = np.arange(window_count(n, cfg.w, cfg.s)) * cfg.s
    rows = starts[:, None] + np.arange(cfg.w)
    points = series.values[rows]
    window_labels = _label_windows(series.labels[rows], cfg.label_rule)
    firsts = series.timestamps[starts].tolist()
    lasts = series.timestamps[starts + cfg.w - 1].tolist()
    return [
        LabeledWindow(pts, label, (t0, t1))
        for pts, label, t0, t1 in zip(points, window_labels, firsts, lasts)
    ]
