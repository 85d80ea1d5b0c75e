"""Standardization, offset translation and anchor-point augmentation of
window point clouds.

Standardizing puts heterogeneous channels on one scale, adding a fixed
offset vector with distinct components makes them distinguishable, and
adjoining fixed anchor points makes clouds that differ only by a
translation produce different distance structure.  A cloud is a bare
(n, d) float array, window points first and anchors after them, and a
split's clouds are one (count, w + k, d) array.  ``augment_batch`` embeds
all windows of a split in one broadcast; ``augment`` is that pass on a list
of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import StandardizationParams
from .persistence import stack_points
from .windowing import LabeledWindow, Windows


def default_offset(d: int) -> np.ndarray:
    """The offset (0, 1, ..., d-1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return np.arange(d, dtype=float)


@dataclass(frozen=True)
class AugmentConfig:
    offset: np.ndarray  # (d,)
    anchors: np.ndarray  # (k, d), k may be 0

    def __post_init__(self) -> None:
        off = np.asarray(self.offset, dtype=float)
        anc = np.asarray(self.anchors, dtype=float)
        if off.ndim != 1:
            raise ValueError("offset must be a flat vector")
        if anc.size == 0:
            anc = anc.reshape(0, off.shape[0])
        if anc.ndim != 2 or anc.shape[1] != off.shape[0]:
            raise ValueError(
                f"anchors must be shaped (k, {off.shape[0]}), got {anc.shape}"
            )
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "anchors", anc)

    @property
    def dimension(self) -> int:
        return self.offset.shape[0]

    @classmethod
    def defaults(cls, d: int) -> "AugmentConfig":
        """Offset (0, ..., d-1) with a single anchor at the origin."""
        return cls(offset=default_offset(d), anchors=np.zeros((1, d)))


def augment(window: LabeledWindow, cfg: AugmentConfig) -> np.ndarray:
    """The (w + k, d) cloud of one window: ``augment_batch`` on a list of
    one.  Duplicate points (a translated point landing on an anchor) are
    kept; the input window is not modified."""
    return augment_batch([window], cfg)[0]


def augment_batch(
    windows: Windows | Sequence[LabeledWindow],
    cfg: AugmentConfig,
    params: StandardizationParams | None = None,
) -> np.ndarray:
    """The (count, w + k, d) float64 clouds of ``windows``, in input order:
    each window's points standardized by ``params`` (when given), translated
    by the offset, then followed by the anchors.  ``windows`` is a
    ``Windows``, or a list of windows or (w, d) arrays of one shape, which is
    stacked once; a list of mixed shapes is a ``DataError``.

    All windows are embedded in one broadcast, ``(points - means) / sds +
    offset``: per coordinate the same operations in the same order as
    standardizing the series and then translating one window, so the clouds
    are the same floats.  A coordinate that is not finite afterwards (an
    overflow from a tiny SD) is a ``DataError`` naming its window by its
    position in ``windows``.
    """
    if params is not None and params.dimension != cfg.dimension:
        raise DataError(f"standardizer has {params.dimension} channels, config has {cfg.dimension}")
    points = stack_points(windows, "windows")
    count, w, d = points.shape
    clouds = np.empty((count, w + cfg.anchors.shape[0], cfg.dimension))
    if not count:
        return clouds
    if d != cfg.dimension:
        raise DataError(f"window dimension {d} does not match config dimension {cfg.dimension}")
    with np.errstate(over="ignore"):  # reported below, by window
        if params is None:
            np.add(points, cfg.offset, out=clouds[:, :w])
        else:
            np.subtract(points, params.means, out=clouds[:, :w])
            clouds[:, :w] /= params.standard_deviations
            clouds[:, :w] += cfg.offset
    clouds[:, w:] = cfg.anchors
    finite = np.isfinite(clouds[:, :w]).all(axis=(1, 2))
    if not finite.all():
        raise DataError(f"window {int(finite.argmin())}: a coordinate is not finite after standardizing and translating")
    return clouds


def resolve_offset(spec: str | Sequence[float] | None, d: int) -> np.ndarray:
    """Offset from config/CLI form: "auto"/None, or an explicit d-vector."""
    if spec is None or spec == "auto":
        return default_offset(d)
    return _vector(spec, d, "offset")


def resolve_anchors(spec, d: int) -> np.ndarray:
    """Anchors from config/CLI form: "origin", "none"/None, one comma list,
    or a sequence of d-vectors."""
    if spec is None or spec == "none":
        return np.zeros((0, d))
    if spec == "origin":
        return np.zeros((1, d))
    rows = [_vector(item, d, "anchor") for item in ([spec] if isinstance(spec, str) else spec)]
    return np.asarray(rows, dtype=float)


def _vector(spec: str | Sequence[float], d: int, name: str) -> np.ndarray:
    """A comma list or a sequence of numbers as a d-vector; a wrong length
    or a nan or infinite component is a ValueError naming the offset or
    anchor."""
    parts = [p for p in spec.split(",") if p.strip()] if isinstance(spec, str) else spec
    values = [float(v) for v in parts]
    if len(values) != d:
        raise ValueError(f"{name} has {len(values)} components, data has {d} channels")
    out = np.asarray(values, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} components must be finite, got {','.join(map(repr, values))}")
    return out
