"""p-Wasserstein distance between persistence diagrams, and the
test x train distance matrix used for nearest-neighbor classification.

``distance_matrix`` is the one entry point that matches diagrams;
``wasserstein`` is its one-pair matrix.

Matching a point to the diagonal costs its L-infinity distance to the
diagonal, (death - birth)/2, and every point is either matched to a point
of the other diagram or sent to the diagonal.  With ``a`` the smaller
diagram (m points) and ``b`` the other (k points), the optimal matching is
one exact min-cost assignment (Hungarian method) on an m x (k + m) matrix:
column j < k matches ``b_j`` at cost c(a_i, b_j)^p - delta(b_j)^p, and the
last m columns are interchangeable diagonal slots at cost delta(a_i)^p.
Its optimum plus sum_j delta(b_j)^p is the optimum over the usual square
(m + k) x (m + k) diagonal-augmented matrix, whose diagonal-to-diagonal
cells are free.  The distance re-sums the chosen matching's own
nonnegative terms, so identical diagrams give exactly 0.

When every point of both diagrams is born at 0 (all of dimension 0),
matching deaths x and y costs |x - y| and sending x to the diagonal costs
x / 2.  |x - y|^p is Monge for p >= 1, so an optimal matching never crosses
over the sorted deaths, and the exact distance is a 1-D edit-distance
dynamic program; one test diagram runs against all train diagrams at once.
Its rows and its table are each diagram's deaths, sorted and zero-padded at
the front to a common width: taken as a whole from the deaths array of a
``Dim0Diagrams`` when both sides are one (a run's dimension-0 diagrams,
straight from ``rips_persistence_dim0_batch``), else gathered from the
diagrams' pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import min_cost_assignment
from .errors import DataError
from .persistence import Dim0Diagrams, PersistenceDiagram


@dataclass(frozen=True)
class WassersteinConfig:
    p: float = 1.0  # matching-cost exponent, >= 1 and finite
    dimension: int = 0  # homology dimension the diagrams come from

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")
        if self.dimension < 0:
            raise ValueError(f"dimension must be >= 0, got {self.dimension}")


def _matching_cost(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]], p: float) -> float:
    """Sum of the p-th-power costs of an optimal matching between the point
    lists ``a`` and ``b``, through the m x (k + m) assignment of the module
    docstring."""
    if len(a) > len(b):
        a, b = b, a
    m, k = len(a), len(b)
    diag_a = [(d - bi) / 2.0 for bi, d in a]
    diag_b = [(d - bi) / 2.0 for bi, d in b]
    if p != 1.0:
        diag_a = [c**p for c in diag_a]
        diag_b = [c**p for c in diag_b]
    match = []
    for b1, d1 in a:
        row = [max(abs(b1 - b2), abs(d1 - d2)) for b2, d2 in b]
        match.append(row if p == 1.0 else [c**p for c in row])
    cost = [[c - c_b for c, c_b in zip(row, diag_b)] + [c_a] * m for row, c_a in zip(match, diag_a)]
    assignment, _ = min_cost_assignment(cost)
    matched = {j for j in assignment if j < k}
    total = sum(match[i][j] if j < k else diag_a[i] for i, j in enumerate(assignment))
    return total + sum(c for j, c in enumerate(diag_b) if j not in matched)


def _sorted_rows(diagrams: Sequence[PersistenceDiagram]) -> tuple[np.ndarray, list[int]]:
    """Each diagram's deaths as one row, sorted and zero-padded at the front
    to a common width, and the number of deaths in each row.  A
    ``Dim0Diagrams`` already holds its rows padded so; only a capped class
    may need sorting into place."""
    if isinstance(diagrams, Dim0Diagrams):
        return np.sort(diagrams.deaths, axis=1), diagrams.counts.tolist()
    counts = [len(d) for d in diagrams]
    rows = np.zeros((len(diagrams), max(counts)))
    for row, diag, count in zip(rows, diagrams, counts):
        row[row.size - count :] = sorted(d for _, d in diag.pairs)
    return rows, counts


def _deaths_table(diagrams: Sequence[PersistenceDiagram]) -> np.ndarray:
    """Row j holds the j-th sorted death of every diagram, one column each,
    zero-padded at the top to a common width.  A death of 0 is a diagonal
    point, which leaves every sum of the dynamic program bit-identical."""
    return np.ascontiguousarray(_sorted_rows(diagrams)[0].T)


def _zero_birth_distances(deaths: Sequence[float], table: np.ndarray, p: float) -> np.ndarray:
    """Exact p-Wasserstein distance from the diagram with sorted ``deaths``
    to each column of a ``_deaths_table``, all points born at 0.

    ``cost[i, t]`` is the cheapest matching of the first i deaths against the
    first j deaths of column t, advanced one j at a time: match the i-th and
    j-th deaths, or send either one to the diagonal.
    """
    a = np.array(deaths, dtype=float)
    half_a, half_table = a / 2.0, table / 2.0
    if p != 1.0:
        half_a, half_table = half_a**p, half_table**p
    cost = np.repeat(np.concatenate(([0.0], np.cumsum(half_a)))[:, None], table.shape[1], axis=1)
    for b, half_b in zip(table, half_table):
        match = np.abs(a[:, None] - b)
        if p != 1.0:
            match **= p
        nxt = np.empty_like(cost)
        nxt[0] = cost[0] + half_b
        np.minimum(cost[:-1] + match, cost[1:] + half_b, out=nxt[1:])
        for i, half in enumerate(half_a):
            np.minimum(nxt[i + 1], nxt[i] + half, out=nxt[i + 1])
        cost = nxt
    # A copy at p = 1: a view of the last row would keep the whole table alive.
    return cost[-1].copy() if p == 1.0 else cost[-1] ** (1.0 / p)


def wasserstein(
    d1: PersistenceDiagram, d2: PersistenceDiagram, cfg: WassersteinConfig = WassersteinConfig()
) -> float:
    """Exact p-Wasserstein distance (L-infinity ground metric) between two
    diagrams of the same homology dimension: the one entry of their
    ``distance_matrix``.  ``cfg.dimension`` is not checked against theirs."""
    if d1.dim != d2.dim:
        raise DataError(f"diagram dimension mismatch: {d1.dim} vs {d2.dim}")
    return float(distance_matrix([d1], [d2], WassersteinConfig(cfg.p, d1.dim)).values[0, 0])


@dataclass(frozen=True)
class DistanceMatrix:
    """Rectangular matrix of diagram distances: row i is test window i,
    column j train window j."""

    values: np.ndarray  # (test windows, train windows), nonnegative finite

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError(f"values shaped {vals.shape}, expected a (test, train) matrix")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("distance entries must be finite and nonnegative")


def distance_matrix(
    test: Sequence[PersistenceDiagram],
    train: Sequence[PersistenceDiagram],
    cfg: WassersteinConfig = WassersteinConfig(),
) -> DistanceMatrix:
    """All test-to-train diagram distances; train-train and test-test pairs
    are never computed.

    When every diagram is born at 0, each row is one batched dynamic
    program.  Otherwise each entry is one m x (k + m) assignment, computed
    in this process, and its p-th root.
    """
    if not test or not train:
        raise DataError("distance matrix needs nonempty test and train diagram sets")
    arrays = cfg.dimension == 0 and isinstance(test, Dim0Diagrams) and isinstance(train, Dim0Diagrams)
    if not arrays:
        for diag in (*test, *train):
            if diag.dim != cfg.dimension:
                raise DataError(
                    f"diagram of dimension {diag.dim} in a dimension-{cfg.dimension} matrix"
                )
    if arrays or all(b == 0.0 for d in (*test, *train) for b, _ in d.pairs):
        table = _deaths_table(train)
        sorted_test, counts = _sorted_rows(test)
        width = sorted_test.shape[1]
        rows = [_zero_birth_distances(row[width - n :], table, cfg.p) for row, n in zip(sorted_test, counts)]
    else:
        root = 1.0 / cfg.p
        rows = [[_matching_cost(t.pairs, tr.pairs, cfg.p) ** root for tr in train] for t in test]
    return DistanceMatrix(np.asarray(rows, dtype=float))
