"""k-nearest-neighbor classification over a precomputed distance matrix,
and confusion-matrix evaluation.

The k-NN class vote and the window ``majority`` label are one
``plurality`` over labels in vote order.  One stable sort per test row
serves every k of a sweep: the class counts of every prefix of the sorted
row come from one cumulative sum.

Metrics are computed as exact rationals from the confusion matrix and only
rounded when rendered.  For binary tasks class 1 is the positive class:
sensitivity is its recall, specificity is the recall of class 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .distance import DistanceMatrix
from .errors import DataError

TIE_BREAKS = ("nearest_neighbor_label", "lowest_class_id")
_DIGITS = 4  # decimals of a metric in the printed tables

# Cells of the (rows, labels, classes) one-hot array of one block of a vote;
# its int64 counts keep a block's temporaries to a few MiB.
_CHUNK_CELLS = 1 << 17


class UndefinedMetricWarning(UserWarning):
    """A metric with a zero denominator was defined as 0."""


def _check_k(k: int, tie_break: str) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie break must be one of {TIE_BREAKS}, got '{tie_break}'")


@dataclass(frozen=True)
class KnnConfig:
    k: int
    tie_break: str = "nearest_neighbor_label"

    def __post_init__(self) -> None:
        _check_k(self.k, self.tie_break)


def plurality(ordered_labels: np.ndarray, lengths: Sequence[int], tie_break: str) -> list[list[int]]:
    """``out[j][r]``: the most frequent of the first ``lengths[j]`` labels of
    row r of a (rows, width) integer array in vote order, as a Python int.
    A tie goes to the tied label first in the row (``nearest_neighbor_label``)
    or to the smallest (``lowest_class_id``)."""
    if not len(lengths):
        return []
    ends = np.asarray(lengths, dtype=np.intp) - 1
    labels = np.asarray(ordered_labels, dtype=np.int64)
    rows, width = labels.shape
    # The distinct labels, sorted; np.unique would do, but its first call
    # maps about 1.5 MiB more of numpy's code into the process.
    ranked = np.sort(labels, axis=None)
    classes = np.concatenate((ranked[:1], ranked[1:][ranked[1:] != ranked[:-1]]))
    codes = np.searchsorted(classes, labels)
    ids = np.arange(len(classes))
    winners = np.empty((len(ends), rows), dtype=np.intp)
    block = max(1, _CHUNK_CELLS // max(1, width * len(classes)))
    for start in range(0, rows, block):
        onehot = codes[start : start + block, :, None] == ids
        counts = onehot.cumsum(axis=1)[:, ends]
        tied = counts == counts.max(axis=2, keepdims=True)
        if tie_break == "lowest_class_id":
            winner = tied.argmax(axis=2)
        else:
            # A tied class occurs in the prefix, so its first position is there.
            first = onehot.argmax(axis=1)[:, None, :]
            winner = np.where(tied, first, width).argmin(axis=2)
        winners[:, start : start + block] = winner.T
    return classes[winners].tolist()


def _votes(values: np.ndarray, train_labels: Sequence[int], ks: Sequence[int], tie_break: str) -> list[list[int]]:
    """k-NN predictions of every row of a (test, train) distance array, one
    list per k in ``ks``, from one stable argsort per row."""
    n = len(train_labels)
    for k in ks:
        if k > n:
            raise DataError(f"k={k} exceeds training size {n}")
    if n != values.shape[1]:
        raise DataError(f"{n} train labels for {values.shape[1]} matrix columns")
    labels = np.asarray(train_labels, dtype=np.int64)
    nearest = np.argsort(values, axis=1, kind="stable")[:, : max(ks, default=0)]
    return plurality(labels[nearest], ks, tie_break)


def knn_predict(row: Sequence[float], train_labels: Sequence[int], cfg: KnnConfig) -> int:
    """Majority label among the k nearest training windows, the one-row call
    of ``predict_all``'s vote.  Equal distances go to the lower training index;
    a vote tie goes to the nearest neighbor carrying a tied label (default) or
    to the lowest tied class id."""
    dists = np.asarray(row, dtype=float)
    labels = np.asarray(train_labels, dtype=np.int64)
    if dists.shape != labels.shape or dists.ndim != 1:
        raise DataError(f"distance row of length {dists.shape} does not match {labels.shape} train labels")
    return _votes(dists[None], labels, [cfg.k], cfg.tie_break)[0][0]


def round_half_up(value: Fraction | float, digits: int) -> float:
    """Presentation rounding with halves away from zero (0.905 -> 0.91)."""
    if isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(repr(float(value)))
    quantum = Decimal(1).scaleb(-digits)
    return float(dec.quantize(quantum, rounding=ROUND_HALF_UP))


def _safe_ratio(num: int, den: int, what: str) -> Fraction:
    if den == 0:
        warnings.warn(f"{what} is 0/0; defining it as 0", UndefinedMetricWarning, stacklevel=3)
        return Fraction(0)
    return Fraction(num, den)


@dataclass(frozen=True)
class EvaluationReport:
    """Confusion matrix C (C[i][j] = true class i predicted as class j)
    plus exact-rational derived metrics."""

    classes: tuple[int, ...]
    confusion: tuple[tuple[int, ...], ...]
    accuracy: Fraction
    sensitivity: Fraction | None  # binary only
    specificity: Fraction | None  # binary only
    precision: Mapping[int, Fraction]
    recall: Mapping[int, Fraction]
    f1: Mapping[int, Fraction]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.confusion)

    @classmethod
    def from_confusion(cls, classes: Sequence[int], confusion: Sequence[Sequence[int]]) -> "EvaluationReport":
        classes = tuple(int(c) for c in classes)
        n = len(classes)
        C = tuple(tuple(int(x) for x in row) for row in confusion)
        if n == 0 or len(C) != n or any(len(row) != n for row in C):
            raise DataError(f"confusion matrix must be {n} x {n} over classes {classes}")
        total = sum(sum(row) for row in C)
        if total == 0:
            raise DataError("empty confusion matrix")
        trace = sum(C[i][i] for i in range(n))
        accuracy = Fraction(trace, total)
        precision: dict[int, Fraction] = {}
        recall: dict[int, Fraction] = {}
        f1: dict[int, Fraction] = {}
        for idx, label in enumerate(classes):
            tp = C[idx][idx]
            predicted = sum(C[r][idx] for r in range(n))
            actual = sum(C[idx])
            precision[label] = prec = _safe_ratio(tp, predicted, f"precision(class {label})")
            recall[label] = rec = _safe_ratio(tp, actual, f"recall(class {label})")
            f1[label] = Fraction(0) if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        sensitivity, specificity = (recall[classes[1]], recall[classes[0]]) if n == 2 else (None, None)
        return cls(classes, C, accuracy, sensitivity, specificity, precision, recall, f1)


def evaluate(predictions: Sequence[int], truths: Sequence[int]) -> EvaluationReport:
    """Confusion matrix and metrics for predicted vs. true window labels."""
    if len(predictions) != len(truths):
        raise DataError(f"{len(predictions)} predictions for {len(truths)} true labels")
    if not truths:
        raise DataError("cannot evaluate an empty prediction set")
    classes = tuple(sorted({int(t) for t in truths} | {int(p) for p in predictions}))
    pos = {c: i for i, c in enumerate(classes)}
    C = [[0] * len(classes) for _ in classes]
    for p, t in zip(predictions, truths):
        C[pos[int(t)]][pos[int(p)]] += 1
    return EvaluationReport.from_confusion(classes, C)


@dataclass(frozen=True)
class KSweepEntry:
    k: int
    accuracy: Fraction
    sensitivity: Fraction | None
    specificity: Fraction | None


def predict_all(matrix: DistanceMatrix, train_labels: Sequence[int], cfg: KnnConfig) -> list[int]:
    """The k-NN prediction of every test row (see ``knn_predict``)."""
    return _votes(matrix.values, train_labels, [cfg.k], cfg.tie_break)[0]


def sweep_k(
    matrix: DistanceMatrix,
    train_labels: Sequence[int],
    test_labels: Sequence[int],
    ks: Sequence[int],
    tie_break: str = "nearest_neighbor_label",
) -> list[KSweepEntry]:
    """Evaluate a list of k values against the same distance matrix; one
    sort of each row serves every k."""
    if len(test_labels) != len(matrix.values):
        raise DataError(f"{len(test_labels)} test labels for {len(matrix.values)} matrix rows")
    for k in ks:
        _check_k(k, tie_break)
    reports = [evaluate(p, test_labels) for p in _votes(matrix.values, train_labels, ks, tie_break)]
    return [KSweepEntry(k, r.accuracy, r.sensitivity, r.specificity) for k, r in zip(ks, reports)]


def _fmt(value: Fraction | None) -> str:
    return "-" if value is None else f"{round_half_up(value, _DIGITS):.{_DIGITS}f}"


def render_report_table(report: EvaluationReport) -> str:
    """Aligned one-row metrics table (per-class precision and F1 columns)."""
    classes = report.classes
    headers = ["Accuracy", "Sensitivity", "Specificity"]
    headers += [f"Precision({c})" for c in classes] + [f"F1({c})" for c in classes]
    values = [report.accuracy, report.sensitivity, report.specificity]
    values += [report.precision[c] for c in classes] + [report.f1[c] for c in classes]
    return _aligned([headers, [_fmt(v) for v in values]])


def render_sweep_table(entries: Sequence[KSweepEntry]) -> str:
    """k values across the top, one row per metric."""
    metrics = ("accuracy", "sensitivity", "specificity")
    rows = [[m] + [_fmt(getattr(e, m)) for e in entries] for m in metrics]
    return _aligned([["k"] + [str(e.k) for e in entries], *rows])


def _aligned(rows: Sequence[Sequence[str]]) -> str:
    """Cells padded to their column's widest cell, joined by two spaces."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)
