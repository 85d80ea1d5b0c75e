"""k-nearest-neighbor classification over a precomputed distance matrix,
and confusion-matrix evaluation.

Metrics are computed as exact rationals from the confusion matrix and only
rounded when rendered.  For binary tasks class 1 is the positive class:
sensitivity is its recall, specificity is the recall of class 0.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .distance import DistanceMatrix
from .errors import DataError

TIE_BREAKS = ("nearest_neighbor_label", "lowest_class_id")


class UndefinedMetricWarning(UserWarning):
    """A metric with a zero denominator was defined as 0."""


@dataclass(frozen=True)
class KnnConfig:
    k: int
    tie_break: str = "nearest_neighbor_label"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"tie break must be one of {TIE_BREAKS}, got '{self.tie_break}'")


def knn_predict(row: Sequence[float], train_labels: Sequence[int], cfg: KnnConfig) -> int:
    """Majority label among the k nearest training windows.

    Equal distances are broken by lower training index.  A tie in the class
    vote goes to the nearest neighbor carrying one of the tied labels
    (default) or to the lowest tied class id.
    """
    dists = np.asarray(row, dtype=float)
    labels = np.asarray(train_labels, dtype=np.int64)
    if dists.shape != labels.shape or dists.ndim != 1:
        raise DataError(
            f"distance row of length {dists.shape} does not match {labels.shape} train labels"
        )
    if cfg.k > dists.shape[0]:
        raise DataError(f"k={cfg.k} exceeds training size {dists.shape[0]}")
    order = np.argsort(dists, kind="stable")[: cfg.k]
    votes = Counter(int(labels[i]) for i in order)
    best = max(votes.values())
    tied = {lab for lab, c in votes.items() if c == best}
    if len(tied) == 1:
        return next(iter(tied))
    if cfg.tie_break == "lowest_class_id":
        return min(tied)
    for i in order:
        if int(labels[i]) in tied:
            return int(labels[i])
    raise AssertionError("unreachable")


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
    def from_confusion(
        cls, classes: Sequence[int], confusion: Sequence[Sequence[int]]
    ) -> "EvaluationReport":
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
            prec = _safe_ratio(tp, predicted, f"precision(class {label})")
            rec = _safe_ratio(tp, actual, f"recall(class {label})")
            precision[label] = prec
            recall[label] = rec
            f1[label] = (
                Fraction(0) if prec + rec == 0 else 2 * prec * rec / (prec + rec)
            )
        sensitivity = specificity = None
        if n == 2:
            sensitivity = recall[classes[1]]
            specificity = recall[classes[0]]
        return cls(
            classes=classes,
            confusion=C,
            accuracy=accuracy,
            sensitivity=sensitivity,
            specificity=specificity,
            precision=precision,
            recall=recall,
            f1=f1,
        )


def evaluate(predictions: Sequence[int], truths: Sequence[int]) -> EvaluationReport:
    """Confusion matrix and metrics for predicted vs. true window labels."""
    if len(predictions) != len(truths):
        raise DataError(
            f"{len(predictions)} predictions for {len(truths)} true labels"
        )
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


def predict_all(
    matrix: DistanceMatrix, train_labels: Sequence[int], cfg: KnnConfig
) -> list[int]:
    if len(train_labels) != matrix.values.shape[1]:
        raise DataError(f"{len(train_labels)} train labels for {matrix.values.shape[1]} matrix columns")
    return [knn_predict(row, train_labels, cfg) for row in matrix.values]


def sweep_k(
    matrix: DistanceMatrix,
    train_labels: Sequence[int],
    test_labels: Sequence[int],
    ks: Sequence[int],
    tie_break: str = "nearest_neighbor_label",
) -> list[KSweepEntry]:
    """Evaluate a list of k values against the same distance matrix."""
    if len(test_labels) != len(matrix.values):
        raise DataError(f"{len(test_labels)} test labels for {len(matrix.values)} matrix rows")
    configs = [KnnConfig(k=k, tie_break=tie_break) for k in ks]
    for cfg in configs:
        if cfg.k > len(train_labels):
            raise DataError(f"k={cfg.k} exceeds training size {len(train_labels)}")
    out = []
    for cfg in configs:
        report = evaluate(predict_all(matrix, train_labels, cfg), test_labels)
        out.append(
            KSweepEntry(
                k=cfg.k,
                accuracy=report.accuracy,
                sensitivity=report.sensitivity,
                specificity=report.specificity,
            )
        )
    return out


def _fmt(value: Fraction | None, digits: int = 4) -> str:
    return "-" if value is None else f"{round_half_up(value, digits):.{digits}f}"


def render_report_table(report: EvaluationReport, digits: int = 4) -> str:
    """Aligned one-row metrics table (per-class precision and F1 columns)."""
    headers = ["Accuracy", "Sensitivity", "Specificity"]
    cells = [_fmt(report.accuracy, digits), _fmt(report.sensitivity, digits), _fmt(report.specificity, digits)]
    for label in report.classes:
        headers.append(f"Precision({label})")
        cells.append(_fmt(report.precision[label], digits))
    for label in report.classes:
        headers.append(f"F1({label})")
        cells.append(_fmt(report.f1[label], digits))
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    row = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return head + "\n" + row


def render_sweep_table(entries: Sequence[KSweepEntry], digits: int = 4) -> str:
    """k values across the top, one row per metric."""
    header = ["k"] + [str(e.k) for e in entries]
    rows = [
        ["accuracy"] + [_fmt(e.accuracy, digits) for e in entries],
        ["sensitivity"] + [_fmt(e.sensitivity, digits) for e in entries],
        ["specificity"] + [_fmt(e.specificity, digits) for e in entries],
    ]
    table = [header] + rows
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in table]
    return "\n".join(lines)
