"""Exact min-cost assignment (Hungarian method with potentials).

Shortest-augmenting-path formulation: rows are assigned one at a time,
dual potentials keep reduced costs nonnegative, so each augmentation is a
Dijkstra pass over columns.  O(n^2 * m) for an n x m matrix with n <= m,
which is more than fast enough for the tiny matrices produced by diagram
matching.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

_INF = float("inf")


def min_cost_assignment(cost: Sequence[Sequence[float]]) -> tuple[list[int], float]:
    """Assign each row to a distinct column minimizing total cost.

    ``cost`` is an n x m matrix (list of rows) with n <= m and finite
    entries; an entry that is not finite is a ``ValueError``.  Returns
    (assignment, total) where assignment[i] is the column matched to row i
    and total is the sum of the matched entries.
    """
    n = len(cost)
    if n == 0:
        return [], 0.0
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise ValueError("cost matrix rows must all have the same length")
    if n > m:
        raise ValueError(f"need n_rows <= n_cols, got {n} x {m}")
    if not all(map(math.isfinite, chain.from_iterable(cost))):
        raise ValueError("cost entries must be finite")

    # 1-based arrays; p[j] is the row currently matched to column j.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    for j in range(1, m + 1):
        if p[j] > 0:
            assignment[p[j] - 1] = j - 1
    total = 0.0
    for i, j in enumerate(assignment):
        total += cost[i][j]
    return assignment, total
