"""Independent brute-force oracles used by the test suite.

None of these share code paths with the package: dimension-0 diagrams come
from counting connected components of the threshold graph at every
candidate scale, or from a plain one-cloud Prim loop over the package's
distance expression (exact to the last bit, so batched code can be held to
equality on any input), dimension-1 diagrams from persistent Betti numbers
computed with dense GF(2) rank arithmetic, Wasserstein distances from full
enumeration of augmented matchings, and assignments from permutation
enumeration.  For diagrams too large to enumerate, the referee is the
square diagonal-augmented cost matrix, built here and solved exactly by the
package's assignment solver, which is itself held to permutation
enumeration.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np


# --- dimension 0: component counting ----------------------------------------

def _components_at(n: int, edges, eps: float) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for length, i, j in edges:
        if length <= eps:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                comps -= 1
    return comps


def dim0_deaths_by_component_counting(points: np.ndarray) -> list[float]:
    """Death values of finite dimension-0 classes: at each candidate scale,
    the number of components that disappeared is the number of deaths."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n <= 1:
        return []
    edges = []
    for i, j in combinations(range(n), 2):
        edges.append((float(np.linalg.norm(pts[i] - pts[j])), i, j))
    deaths: list[float] = []
    prev = n
    for eps in sorted({e[0] for e in edges}):
        cur = _components_at(n, edges, eps)
        deaths.extend([eps] * (prev - cur))
        prev = cur
    return deaths


def dim0_deaths_by_prim_loop(points: np.ndarray) -> list[float]:
    """Sorted minimum-spanning-tree edge lengths of one cloud, grown one
    vertex at a time.  The distance entries use the same expression as the
    package, so the deaths agree bit for bit, not just to a tolerance."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    diffs = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=2))
    in_tree = [True] + [False] * (n - 1)
    to_tree = dist[0].tolist()
    deaths = []
    for _ in range(n - 1):
        v = min((u for u in range(n) if not in_tree[u]), key=lambda u: to_tree[u])
        deaths.append(to_tree[v])
        in_tree[v] = True
        to_tree = [min(a, b) for a, b in zip(to_tree, dist[v].tolist())]
    return sorted(deaths)


# --- GF(2) linear algebra -----------------------------------------------------

def gf2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        cur = v
        while cur:
            top = cur.bit_length() - 1
            if top in pivots:
                cur ^= pivots[top]
            else:
                pivots[top] = cur
                rank += 1
                break
    return rank


def gf2_nullspace(rows, ncols: int) -> list[int]:
    """Basis of the kernel of the GF(2) matrix whose rows are bitmask ints
    over ``ncols`` unknowns."""
    basis: dict[int, int] = {}
    for r in rows:
        cur = r
        while cur:
            top = cur.bit_length() - 1
            if top in basis:
                cur ^= basis[top]
            else:
                basis[top] = cur
                break
    for top in sorted(basis, reverse=True):
        row = basis[top]
        for other in list(basis):
            if other != top and (basis[other] >> top) & 1:
                basis[other] ^= row
    free = [c for c in range(ncols) if c not in basis]
    out = []
    for f in free:
        v = 1 << f
        for top, row in basis.items():
            if (row >> f) & 1:
                v |= 1 << top
        out.append(v)
    return out


# --- dimension 1: persistent Betti numbers ------------------------------------

def dim1_pairs_by_persistent_betti(points: np.ndarray, maxscale: float) -> list[tuple[float, float]]:
    """Dimension-1 diagram from first principles: compute the rank of every
    map H1(K_s) -> H1(K_t) via cycle/boundary subspace dimensions over
    GF(2), then read off pair multiplicities by inclusion-exclusion.
    Classes alive at ``maxscale`` are capped there."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))

    edges = sorted(
        (float(dist[i, j]), i, j) for i, j in combinations(range(n), 2) if dist[i, j] <= maxscale
    )
    edge_index = {(i, j): idx for idx, (_, i, j) in enumerate(edges)}
    triangles = []
    for i, j, k in combinations(range(n), 3):
        filt = float(max(dist[i, j], dist[i, k], dist[j, k]))
        if filt <= maxscale:
            mask = (
                (1 << edge_index[(i, j)])
                | (1 << edge_index[(i, k)])
                | (1 << edge_index[(j, k)])
            )
            triangles.append((filt, mask))

    levels = sorted({0.0} | {e[0] for e in edges})
    m = len(levels) - 1

    def cycle_basis(level_value: float) -> list[int]:
        n_edges = sum(1 for e in edges if e[0] <= level_value)
        rows = []
        for v in range(n):
            mask = 0
            for idx in range(n_edges):
                _, i, j = edges[idx]
                if v in (i, j):
                    mask |= 1 << idx
            rows.append(mask)
        return gf2_nullspace(rows, n_edges)

    Z = [cycle_basis(t) for t in levels]
    B = [[mask for filt, mask in triangles if filt <= t] for t in levels]
    B_rank = [gf2_rank(b) for b in B]

    def betti(i: int, j: int) -> int:
        if i < 0:
            return 0
        return gf2_rank(Z[i] + B[j]) - B_rank[j]

    pairs: list[tuple[float, float]] = []
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            mult = (betti(i, j - 1) - betti(i, j)) - (betti(i - 1, j - 1) - betti(i - 1, j))
            pairs.extend([(levels[i], levels[j])] * mult)
        ess = betti(i, m) - betti(i - 1, m)
        if maxscale > levels[i]:
            pairs.extend([(levels[i], float(maxscale))] * ess)
    pairs.sort(key=lambda p: (p[1], p[0]))
    return pairs


# --- Wasserstein by matching enumeration ---------------------------------------

def _linf(x, y) -> float:
    return max(abs(x[0] - y[0]), abs(x[1] - y[1]))


def wasserstein_by_enumeration(a, b, p: float = 1.0) -> float:
    """Minimum over every partial injective matching a -> b, with unmatched
    points paying their diagonal cost (death - birth) / 2."""
    a = list(a)
    b = list(b)
    diag_a = [(d - bi) / 2.0 for bi, d in a]
    diag_b = [(d - bi) / 2.0 for bi, d in b]
    best = float("inf")
    for r in range(min(len(a), len(b)) + 1):
        for rows in combinations(range(len(a)), r):
            for cols in permutations(range(len(b)), r):
                cost = 0.0
                for i, j in zip(rows, cols):
                    cost += _linf(a[i], b[j]) ** p
                for i in range(len(a)):
                    if i not in rows:
                        cost += diag_a[i] ** p
                for j in range(len(b)):
                    if j not in cols:
                        cost += diag_b[j] ** p
                best = min(best, cost)
    if not a and not b:
        return 0.0
    return best ** (1.0 / p)


def diagonal_augmented_cost_matrix(a, b, p: float = 1.0) -> list[list[float]]:
    """Square cost matrix over (points of a + diagonal slots) x (points of b
    + diagonal slots), costs raised to the p-th power: a point of one side
    meets the other side's diagonal at its own diagonal cost, and
    diagonal-to-diagonal cells are free.  Its minimum assignment is the
    p-th power of the p-Wasserstein distance."""
    m, k = len(a), len(b)
    size = m + k
    diag_a = [((d - bi) / 2.0) ** p for bi, d in a]
    diag_b = [((d - bi) / 2.0) ** p for bi, d in b]
    cost = [[0.0] * size for _ in range(size)]
    for i in range(m):
        for j in range(k):
            cost[i][j] = _linf(a[i], b[j]) ** p
        for j in range(k, size):
            cost[i][j] = diag_a[i]
    for i in range(m, size):
        for j in range(k):
            cost[i][j] = diag_b[j]
    return cost


# --- assignment by permutation enumeration --------------------------------------

def assignment_cost_by_enumeration(cost) -> float:
    n = len(cost)
    m = len(cost[0]) if n else 0
    best = float("inf")
    for cols in permutations(range(m), n):
        total = sum(cost[i][cols[i]] for i in range(n))
        best = min(best, total)
    return best if n else 0.0


# --- windowing ------------------------------------------------------------------

def window_count_naive(length: int, w: int, s: int) -> int:
    count = 0
    start = 0
    while start + w <= length:
        count += 1
        start += s
    return count
