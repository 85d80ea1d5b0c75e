"""p-Wasserstein distance between persistence diagrams, and the
test x train distance matrix used for nearest-neighbor classification.

Diagrams of unequal size are compared by augmenting each side with the
diagonal projections of the other side's points: matching a point to the
diagonal costs its L-infinity distance to the diagonal, (death - birth)/2,
and diagonal-to-diagonal matches are free.  The optimal matching over the
augmented sets is solved exactly with the Hungarian method.

When every point of both diagrams is born at 0 (all of dimension 0),
matching deaths x and y costs |x - y| and sending x to the diagonal costs
x / 2.  |x - y|^p is Monge for p >= 1, so an optimal matching never crosses
over the sorted deaths, and the exact distance is a 1-D edit-distance
dynamic program; one test diagram runs against all train diagrams at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool
from typing import Sequence

import numpy as np

from .assignment import min_cost_assignment
from .errors import DataError
from .persistence import PersistenceDiagram


@dataclass(frozen=True)
class WassersteinConfig:
    p: float = 1.0  # matching-cost exponent, >= 1
    dimension: int = 0  # homology dimension the diagrams come from

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.dimension < 0:
            raise ValueError(f"dimension must be >= 0, got {self.dimension}")


def _matching_cost_matrix(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]], p: float
) -> list[list[float]]:
    """Square cost matrix over (points of a + diagonal slots) x
    (points of b + diagonal slots), costs raised to the p-th power."""
    m, k = len(a), len(b)
    size = m + k
    diag_a = [(d - bi) / 2.0 for bi, d in a]
    diag_b = [(d - bi) / 2.0 for bi, d in b]
    if p != 1.0:
        diag_a = [c**p for c in diag_a]
        diag_b = [c**p for c in diag_b]
    cost = [[0.0] * size for _ in range(size)]
    for i, (b1, d1) in enumerate(a):
        row = cost[i]
        for j, (b2, d2) in enumerate(b):
            c = max(abs(b1 - b2), abs(d1 - d2))
            row[j] = c if p == 1.0 else c**p
        for j in range(k, size):
            row[j] = diag_a[i]
    for i in range(m, size):
        row = cost[i]
        for j in range(k):
            row[j] = diag_b[j]
    return cost


def _zero_birth(diag: PersistenceDiagram) -> bool:
    return all(b == 0.0 for b, _ in diag.pairs)


def _sorted_deaths(diag: PersistenceDiagram) -> list[float]:
    return sorted(d for _, d in diag.pairs)


def _deaths_table(diagrams: Sequence[PersistenceDiagram]) -> np.ndarray:
    """Row j holds the j-th sorted death of every diagram, one column each,
    zero-padded at the top to a common width.  A death of 0 is a diagonal
    point, which leaves every sum of the dynamic program bit-identical."""
    width = max(len(d) for d in diagrams)
    table = np.zeros((width, len(diagrams)))
    for col, diag in enumerate(diagrams):
        table[width - len(diag) :, col] = _sorted_deaths(diag)
    return table


def _zero_birth_distances(deaths: list[float], table: np.ndarray, p: float) -> np.ndarray:
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
    return cost[-1] if p == 1.0 else cost[-1] ** (1.0 / p)


def wasserstein(
    d1: PersistenceDiagram, d2: PersistenceDiagram, cfg: WassersteinConfig = WassersteinConfig()
) -> float:
    """Exact p-Wasserstein distance (L-infinity ground metric) between two
    diagrams of the same homology dimension."""
    if d1.dim != d2.dim:
        raise DataError(f"diagram dimension mismatch: {d1.dim} vs {d2.dim}")
    if not d1.pairs and not d2.pairs:
        return 0.0
    if _zero_birth(d1) and _zero_birth(d2):
        return float(_zero_birth_distances(_sorted_deaths(d1), _deaths_table([d2]), cfg.p)[0])
    cost = _matching_cost_matrix(d1.pairs, d2.pairs, cfg.p)
    _, total = min_cost_assignment(cost)
    if total < 0.0:  # guard against float round-off on all-zero matchings
        total = 0.0
    return total if cfg.p == 1.0 else total ** (1.0 / cfg.p)


@dataclass(frozen=True)
class DistanceMatrix:
    """Rectangular matrix of diagram distances: one row per test window,
    one column per train window."""

    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]
    values: np.ndarray  # (len(row_ids), len(col_ids)), nonnegative finite

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (len(self.row_ids), len(self.col_ids)):
            raise ValueError(
                f"values shaped {vals.shape}, expected ({len(self.row_ids)}, {len(self.col_ids)})"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("distance entries must be finite and nonnegative")


_POOL_STATE: dict = {}


def _pool_init(train: tuple, cfg: WassersteinConfig) -> None:
    _POOL_STATE["train"] = train
    _POOL_STATE["cfg"] = cfg


def _pool_row(diag: PersistenceDiagram) -> list[float]:
    cfg = _POOL_STATE["cfg"]
    return [wasserstein(diag, t, cfg) for t in _POOL_STATE["train"]]


def distance_matrix(
    test: Sequence[PersistenceDiagram],
    train: Sequence[PersistenceDiagram],
    cfg: WassersteinConfig = WassersteinConfig(),
    workers: int = 1,
) -> DistanceMatrix:
    """All test-to-train diagram distances; train-train and test-test pairs
    are never computed.

    When every diagram is born at 0, each row is one batched dynamic program
    and no pool is started.  Otherwise, with ``workers > 1``, the rows are
    computed in a process pool, one process per row at most; entries are
    independent, so the order does not matter.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not test or not train:
        raise DataError("distance matrix needs nonempty test and train diagram sets")
    for diag in (*test, *train):
        if diag.dim != cfg.dimension:
            raise DataError(
                f"diagram of dimension {diag.dim} in a dimension-{cfg.dimension} matrix"
            )
    workers = min(workers, len(test))
    if all(_zero_birth(d) for d in (*test, *train)):
        table = _deaths_table(train)
        rows = [_zero_birth_distances(_sorted_deaths(t), table, cfg.p) for t in test]
    elif workers > 1:
        with Pool(processes=workers, initializer=_pool_init, initargs=(tuple(train), cfg)) as pool:
            rows = pool.map(_pool_row, test, chunksize=max(1, len(test) // (workers * 4)))
    else:
        rows = [[wasserstein(t, tr, cfg) for tr in train] for t in test]
    return DistanceMatrix(
        row_ids=tuple(range(len(test))),
        col_ids=tuple(range(len(train))),
        values=np.asarray(rows, dtype=float),
    )
