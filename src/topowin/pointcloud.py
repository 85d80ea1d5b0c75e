"""Offset translation and anchor-point augmentation of window point clouds.

Adding a fixed offset vector with distinct components makes heterogeneous
channels distinguishable, and adjoining fixed anchor points makes clouds
that differ only by a translation produce different distance structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .windowing import LabeledWindow


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


@dataclass(frozen=True)
class AugmentedCloud:
    """Translated window points with anchors appended after them."""

    points: np.ndarray  # (w + k, d)
    source_window: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))


def augment(window: LabeledWindow, cfg: AugmentConfig) -> AugmentedCloud:
    """Translate every window point by the offset, then append the anchors.

    Duplicate points (a translated point landing on an anchor) are kept;
    the input window is not modified.
    """
    d = window.points.shape[1]
    if d != cfg.dimension:
        raise DataError(f"window dimension {d} does not match config dimension {cfg.dimension}")
    translated = window.points + cfg.offset
    points = np.vstack([translated, cfg.anchors]) if cfg.anchors.shape[0] else translated
    return AugmentedCloud(points=points, source_window=window.index)


def resolve_offset(spec: str | Sequence[float] | None, d: int) -> np.ndarray:
    """Offset from config/CLI form: "auto"/None, or an explicit d-vector."""
    if spec is None or spec == "auto":
        return default_offset(d)
    if isinstance(spec, str):
        parts = [p for p in spec.split(",") if p.strip() != ""]
        values = [float(p) for p in parts]
    else:
        values = [float(v) for v in spec]
    if len(values) != d:
        raise ValueError(f"offset has {len(values)} components, data has {d} channels")
    return _finite(values, "offset")


def resolve_anchors(spec, d: int) -> np.ndarray:
    """Anchors from config/CLI form: "origin", "none"/None, one comma list,
    or a sequence of d-vectors."""
    if spec is None or spec == "none":
        return np.zeros((0, d))
    if spec == "origin":
        return np.zeros((1, d))
    if isinstance(spec, str):
        spec = [spec]
    rows = []
    for item in spec:
        if isinstance(item, str):
            values = [float(p) for p in item.split(",") if p.strip() != ""]
        else:
            values = [float(v) for v in item]
        if len(values) != d:
            raise ValueError(f"anchor has {len(values)} components, data has {d} channels")
        rows.append(_finite(values, "anchor"))
    return np.asarray(rows, dtype=float)


def _finite(values: list[float], name: str) -> np.ndarray:
    """``values`` as an array; a nan or infinite component is a ValueError
    naming the offset or anchor."""
    out = np.asarray(values, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} components must be finite, got {','.join(map(repr, values))}")
    return out
