"""Vietoris-Rips persistence diagrams of small Euclidean point clouds.

Dimension 0: the finite deaths (births are 0) are the edge lengths of a
Euclidean minimum spanning tree, grown by Prim's algorithm over the distance
matrix.  All such trees share one multiset of edge lengths, each an entry
of that matrix, so the sorted deaths are exact whichever way ties break.
``rips_persistence_dim0_batch`` grows the trees of all clouds of one shape
in a single pass over a (clouds, n, n) distance tensor, chunked to bound
its temporaries, and returns every diagram as one row of a ``Dim0Diagrams``
array of deaths; the one-cloud ``rips_persistence_dim0`` is that pass on a
list of one.

Dimension 1 lists the edges and triangles up to a scale cap, ordered by
(length, vertices) and (diameter, vertices), and reduces only the triangle
columns over Z/2.  The edges that open a cycle are those outside a minimum
spanning forest; all minimum spanning trees share one multiset of lengths,
and their edges up to the cap span the threshold graph's components, so
those births are the edge lengths up to the cap minus the dimension-0
deaths up to the cap, and no edge column is reduced.  A nonzero reduced
triangle column closes the cycle born at its pivot edge; cycle classes
still alive at the cap are reported with death equal to the cap.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DataError, NumericalError

ESSENTIAL_POLICIES = ("dropped", "capped")


@dataclass(frozen=True, slots=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs for one homology dimension."""

    dim: int
    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"homology dimension must be >= 0, got {self.dim}")
        pairs = tuple((float(b), float(d)) for b, d in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for b, d in pairs:
            if not (math.isfinite(b) and math.isfinite(d)):
                raise ValueError(f"non-finite diagram point ({b}, {d})")
            if b < 0 or d < b:
                raise ValueError(f"invalid diagram point ({b}, {d}): need 0 <= birth <= death")

    def __len__(self) -> int:
        return len(self.pairs)


def cloud_points(cloud) -> np.ndarray:
    """A cloud, an (n, d) array of points, as floats."""
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2:
        raise DataError(f"expected an (n, d) point array, got shape {pts.shape}")
    return pts


# Floats in one chunk's (clouds, n, n, d) difference tensor, which is
# squared in place, so a chunk of the batched dimension-0 pass holds one
# temporary of 0.5 MiB, whatever the window length.
_CHUNK_FLOATS = 1 << 16


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """(..., n, n) Euclidean distances of (..., n, d) points; symmetric entry
    for entry, and each cloud's entries are the same with or without a
    leading batch axis."""
    diffs = pts[..., :, None, :] - pts[..., None, :, :]
    diffs *= diffs
    return np.sqrt(diffs.sum(axis=-1))


def _chunk_clouds(n: int, d: int) -> int:
    """Clouds of n points in d dimensions per chunk of the batched pass."""
    return max(1, _CHUNK_FLOATS // max(1, n * n * d))


def _mst_deaths(dist: np.ndarray) -> np.ndarray:
    """(C, n - 1) sorted minimum-spanning-tree edge lengths of C clouds of
    n points each, by one Prim pass over their (C, n, n) distance tensor.

    Every tree starts at vertex 0.  ``to_tree`` holds each vertex's distance
    to its cloud's tree, and ``inf`` for a vertex in the tree, so each step
    is one row-wise argmin.  The distance rows of all clouds are stacked
    into one (C * n, n) table and addressed by flat index, which costs less
    per step than fancy indexing when C is small."""
    c, n = dist.shape[:2]
    dist = dist.reshape(c * n, n)
    first = np.arange(0, c * n, n)  # flat index of each cloud's vertex 0
    in_tree = np.full((c, n), -np.inf)  # +inf in the tree, -inf outside
    in_tree[:, 0] = np.inf
    to_tree = np.maximum(dist[::n], in_tree)
    deaths = np.empty((n - 1, c))
    for step in range(n - 1):
        v = to_tree.argmin(axis=1)
        v += first
        to_tree.take(v, out=deaths[step])
        np.minimum(to_tree, dist.take(v, axis=0), out=to_tree)
        in_tree.put(v, np.inf)
        np.maximum(to_tree, in_tree, out=to_tree)
    deaths.sort(axis=0)
    return deaths.T


_ROWS_AT_A_TIME = 128  # windows whose deaths ``Dim0Diagrams.rows`` converts at a time


class Dim0Diagrams(Sequence):
    """The dimension-0 diagrams of a batch of clouds as one array of deaths.

    Row i of the read-only (windows, width) float array ``deaths`` holds
    window i's ``counts[i]`` deaths at its end, in the order its diagram
    lists them, and zeros before them; every birth is 0.  Indexing builds
    and checks window i's ``PersistenceDiagram``, and the sequence equals
    the list of its diagrams."""

    __slots__ = ("deaths", "counts")

    def __init__(self, deaths: np.ndarray, counts: np.ndarray) -> None:
        deaths.flags.writeable = counts.flags.writeable = False
        self.deaths, self.counts = deaths, counts

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = self.deaths[index].tolist()
        return _dim0_diagram(row[len(row) - int(self.counts[index]) :])

    def __iter__(self):
        return map(_dim0_diagram, self.rows())

    def __eq__(self, other):
        if isinstance(other, (Dim0Diagrams, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def rows(self) -> Iterator[list[float]]:
        """Each window's deaths as a list of floats, converted
        ``_ROWS_AT_A_TIME`` windows at a time."""
        width = self.deaths.shape[1]
        for start in range(0, len(self), _ROWS_AT_A_TIME):
            rows = self.deaths[start : start + _ROWS_AT_A_TIME].tolist()
            counts = self.counts[start : start + _ROWS_AT_A_TIME].tolist()
            yield from (row[width - count :] for row, count in zip(rows, counts))


def _dim0_diagram(deaths: list[float]) -> PersistenceDiagram:
    return PersistenceDiagram(0, tuple((0.0, d) for d in deaths))


def rips_persistence_dim0_batch(
    clouds,
    essential_policy: str = "dropped",
    maxscale: float | None = None,
) -> Dim0Diagrams:
    """Dimension-0 diagrams of many point clouds under the Rips filtration,
    in input order.

    Each diagram has n - 1 pairs (0, L), one per minimum-spanning-tree edge,
    sorted by death.  The one class that never dies is dropped by default;
    with ``essential_policy="capped"`` it is reported as (0, maxscale)
    instead, for a positive, finite maxscale, after the others.  Clouds of
    one shape run one Prim pass together, in chunks of
    ``_chunk_clouds(n, d)``, and write their deaths into one row each of the
    returned ``Dim0Diagrams``.  A distance that overflows (or is not a
    number) is a ``NumericalError`` naming the window.
    """
    points = [cloud_points(c) for c in clouds]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pts in enumerate(points):
        if pts.shape[0] < 1:
            raise DataError("dimension-0 persistence needs at least one point")
        groups.setdefault(pts.shape, []).append(i)
    if essential_policy not in ESSENTIAL_POLICIES:
        raise ValueError(f"essential policy must be one of {ESSENTIAL_POLICIES}")
    if essential_policy == "capped" and (maxscale is None or not 0 < maxscale < math.inf):
        raise NumericalError(f"capped essential policy needs a positive, finite maxscale, got {maxscale}")

    capped = int(essential_policy == "capped")
    counts = np.array([pts.shape[0] - 1 + capped for pts in points], dtype=np.intp)
    width = int(counts.max(initial=0))
    end = width - capped  # the finite deaths end here; the capped class fills the rest
    deaths = np.zeros((len(points), width))
    if capped:
        deaths[:, end:] = maxscale
    with np.errstate(over="ignore"):
        for (n, d), members in groups.items():
            step = _chunk_clouds(n, d)
            for start in range(0, len(members), step):
                part = members[start : start + step]
                deaths[part, end - (n - 1) : end] = _mst_deaths(_distance_matrix(np.array([points[i] for i in part])))
    finite = np.isfinite(deaths).all(axis=1)
    if not finite.all():
        i = int(finite.argmin())
        bad = float(deaths[i][~np.isfinite(deaths[i])][0])
        raise NumericalError(f"window {i}: a distance between its points is {bad!r}, not a finite float")
    return Dim0Diagrams(deaths, counts)


def rips_persistence_dim0(
    cloud,
    essential_policy: str = "dropped",
    maxscale: float | None = None,
) -> PersistenceDiagram:
    """Dimension-0 diagram of one point cloud: the one-cloud call of
    ``rips_persistence_dim0_batch``."""
    return rips_persistence_dim0_batch([cloud], essential_policy, maxscale)[0]


def rips_persistence_dim1(cloud, maxscale: float) -> PersistenceDiagram:
    """Dimension-1 diagram of the Rips filtration truncated at ``maxscale``.

    A triangle column is a bitmask over the ordered edges, so adding a
    column is one XOR and the pivot is the highest set bit.
    Zero-persistence pairs are discarded.
    """
    pts = cloud_points(cloud)
    n = pts.shape[0]
    if n < 3:
        raise DataError(f"dimension-1 persistence needs at least 3 points, got {n}")
    if maxscale <= 0 or not math.isfinite(maxscale):
        raise NumericalError(f"maxscale must be positive and finite, got {maxscale}")
    if not np.isfinite(pts).all():
        raise DataError("dimension-1 persistence needs finite coordinates")

    dist = _distance_matrix(pts)
    d = dist.tolist()
    edges = sorted((d[i][j], i, j) for i, j in combinations(range(n), 2) if d[i][j] <= maxscale)
    bit = {(i, j): 1 << e for e, (_, i, j) in enumerate(edges)}
    triangles = sorted(
        (diam, i, j, k)
        for i, j, k in combinations(range(n), 3)
        if (diam := max(d[i][j], d[i][k], d[j][k])) <= maxscale
    )

    open_births = Counter(ell for ell, _, _ in edges)
    open_births.subtract(x for x in _mst_deaths(dist[None])[0].tolist() if x <= maxscale)
    reduced: dict[int, int] = {}  # pivot edge -> reduced column bitmask
    pairs: list[tuple[float, float]] = []
    for diam, i, j, k in triangles:
        col = bit[i, j] | bit[i, k] | bit[j, k]
        while col and (other := reduced.get(col.bit_length() - 1)) is not None:
            col ^= other
        if col:
            low = col.bit_length() - 1
            reduced[low] = col
            birth = edges[low][0]
            open_births[birth] -= 1
            if diam > birth:
                pairs.append((birth, diam))
    pairs += [(b, maxscale) for b in open_births.elements() if maxscale > b]
    pairs.sort(key=lambda p: (p[1], p[0]))
    return PersistenceDiagram(dim=1, pairs=tuple(pairs))
