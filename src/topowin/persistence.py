"""Vietoris-Rips persistence diagrams of small Euclidean point clouds.

A split's diagrams are one ``Diagrams`` in either dimension, from the
persistence passes through ``diagrams.csv`` to the distances.  Only indexing
one, and ``rips_persistence_dim1``, build a ``PersistenceDiagram``.

Dimension 0: the finite deaths (births are 0) are the edge lengths of a
Euclidean minimum spanning tree, grown by Prim's algorithm over the distance
matrix.  All such trees share one multiset of edge lengths, each an entry
of that matrix, so the sorted deaths are exact whichever way ties break.
``rips_persistence_dim0_batch`` takes a split's clouds as one
(count, n, d) array and grows all their trees in a single pass over a
(clouds, n, n) distance tensor, chunked to bound its temporaries, writing
every diagram's deaths into one row of its ``Diagrams``; the one-cloud
``rips_persistence_dim0`` is that pass on a list of one.

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
from itertools import chain, combinations

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


def stack_points(items, what: str = "clouds") -> np.ndarray:
    """``items`` as one (count, n, d) float64 array: an array (or the points
    of a ``Windows``) as it is, a list of (n, d) point arrays (or windows) of
    one shape stacked once.  A list of mixed shapes, or items that are not
    (n, d) arrays, is a ``DataError``."""
    items = getattr(items, "points", items)
    if not isinstance(items, np.ndarray):
        items = [getattr(item, "points", item) for item in items]
        if len(shapes := {np.shape(item) for item in items}) > 1:
            raise DataError(f"{what} of mixed shapes {sorted(shapes)}: pass each shape in its own call")
        items = np.stack(items, dtype=float) if shapes else np.empty((0, 0, 0))
    points = np.asarray(items, dtype=float)
    if points.ndim != 3:
        raise DataError(f"expected an (n, d) point array per cloud, got shape {points.shape[1:]}")
    return points


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


_ROWS_AT_A_TIME = 128  # windows whose points ``Diagrams.rows`` converts at a time


class Diagrams(Sequence):
    """A split's persistence diagrams of homology dimension ``dim`` as arrays.

    Row i of the read-only (windows, width) float arrays ``births`` and
    ``deaths`` holds window i's ``counts[i]`` points at its end, in
    ``diagrams.csv`` row order, and zeros before them; in dimension 0 every
    birth is 0.  A point that is not finite 0 <= birth <= death is a
    ``ValueError``.  Only indexing builds window i's ``PersistenceDiagram``;
    the sequence equals the list of its diagrams."""

    __slots__ = ("dim", "births", "deaths", "counts")

    def __init__(self, dim: int, births: np.ndarray, deaths: np.ndarray, counts: np.ndarray) -> None:
        if not (np.isfinite(deaths).all() and (births >= 0).all() and (births <= deaths).all()):
            raise ValueError("diagram points need finite 0 <= birth <= death")
        births.flags.writeable = deaths.flags.writeable = counts.flags.writeable = False
        self.dim, self.births, self.deaths, self.counts = dim, births, deaths, counts

    @classmethod
    def from_pairs(cls, dim: int, rows: Sequence[Sequence[tuple[float, float]]]) -> Diagrams:
        """The diagrams whose (birth, death) points are ``rows``, one per window."""
        counts = np.array([len(row) for row in rows], dtype=np.intp)
        width = int(counts.max(initial=0))
        births, deaths = np.zeros((2, len(rows), width))
        at = np.arange(width) >= width - counts[:, None]
        births[at], deaths[at] = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), float).reshape(-1, 2).T
        return cls(dim, births, deaths, counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        start = self.deaths.shape[1] - int(self.counts[index])
        pairs = zip(self.births[index, start:].tolist(), self.deaths[index, start:].tolist())
        return PersistenceDiagram(self.dim, tuple(pairs))

    def __iter__(self):
        return (PersistenceDiagram(self.dim, tuple(pairs)) for pairs in self.rows())

    def __eq__(self, other):
        if isinstance(other, (Diagrams, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def rows(self) -> Iterator[list[tuple[float, float]]]:
        """Each window's own (birth, death) points as floats, without its
        padding, converted ``_ROWS_AT_A_TIME`` windows at a time."""
        width = self.deaths.shape[1]
        for start in range(0, len(self), _ROWS_AT_A_TIME):
            part = slice(start, start + _ROWS_AT_A_TIME)
            rows = zip(self.births[part].tolist(), self.deaths[part].tolist(), self.counts[part].tolist())
            yield from (list(zip(births[width - n :], deaths[width - n :])) for births, deaths, n in rows)


def rips_persistence_dim0_batch(
    clouds,
    essential_policy: str = "dropped",
    maxscale: float | None = None,
) -> Diagrams:
    """Dimension-0 diagrams of many point clouds under the Rips filtration,
    in input order.  ``clouds`` is a (count, n, d) array, or a list of
    clouds of one shape, which is stacked once; a list of mixed shapes is a
    ``DataError``.

    Each diagram has n - 1 pairs (0, L), one per minimum-spanning-tree edge,
    sorted by death.  The one class that never dies is dropped by default;
    with ``essential_policy="capped"`` it is reported as (0, maxscale)
    instead, for a positive, finite maxscale, after the others.  The clouds
    run one Prim pass together, in chunks of ``_chunk_clouds(n, d)``, and
    write their deaths into one row each of the returned ``Diagrams``, whose
    births are a broadcast zero.  A distance that overflows (or is not a
    number) is a ``NumericalError`` naming the window.
    """
    clouds = stack_points(clouds)
    count, n, d = clouds.shape
    if count and n < 1:
        raise DataError("dimension-0 persistence needs at least one point")
    if essential_policy not in ESSENTIAL_POLICIES:
        raise ValueError(f"essential policy must be one of {ESSENTIAL_POLICIES}")
    if essential_policy == "capped" and (maxscale is None or not 0 < maxscale < math.inf):
        raise NumericalError(f"capped essential policy needs a positive, finite maxscale, got {maxscale}")

    capped = int(essential_policy == "capped")
    width = n - 1 + capped if count else 0
    deaths = np.empty((count, width))
    if capped:
        deaths[:, -1:] = maxscale
    step = _chunk_clouds(n, d)
    with np.errstate(over="ignore"):
        for start in range(0, count, step):
            deaths[start : start + step, : n - 1] = _mst_deaths(_distance_matrix(clouds[start : start + step]))
    finite = np.isfinite(deaths).all(axis=1)
    if not finite.all():
        i = int(finite.argmin())
        bad = float(deaths[i][~np.isfinite(deaths[i])][0])
        raise NumericalError(f"window {i}: a distance between its points is {bad!r}, not a finite float")
    return Diagrams(0, np.broadcast_to(0.0, deaths.shape), deaths, np.full(count, width, dtype=np.intp))


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
    Zero-persistence pairs are discarded.  A distance that overflows is a
    ``NumericalError``, as in dimension 0.
    """
    pts = stack_points([cloud])[0]
    n = pts.shape[0]
    if n < 3:
        raise DataError(f"dimension-1 persistence needs at least 3 points, got {n}")
    if maxscale <= 0 or not math.isfinite(maxscale):
        raise NumericalError(f"maxscale must be positive and finite, got {maxscale}")
    if not np.isfinite(pts).all():
        raise DataError("dimension-1 persistence needs finite coordinates")

    with np.errstate(over="ignore"):
        dist = _distance_matrix(pts)
    if not np.isfinite(dist).all():
        bad = float(dist[~np.isfinite(dist)][0])
        raise NumericalError(f"a distance between its points is {bad!r}, not a finite float")
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
