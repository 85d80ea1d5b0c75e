"""Seeded synthetic inputs and the run settings of each benchmark workload.

The UCI occupancy files cannot be fetched offline, so the benchmark makes a
series of the same shape: five sensor-like channels on very different
scales (temperature, humidity, light, CO2, humidity ratio), about 22% of
rows occupied, occupancy arriving in runs of 25 to 55 rows.  Occupancy
shifts every channel by one to two noise SDs, and the shift ramps in and
out, so the classes overlap and k-NN accuracy lands well below 1.0: a wrong
distance changes predictions.

This module imports only numpy, never topowin: the benchmark makes its
inputs before the program is imported, and the program sees only the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHANNELS = ("temperature", "humidity", "light", "co2", "humidity_ratio")
# (level, scale, occupancy effect in units of the channel's noise SD)
_CHANNEL_SHAPE = (
    (21.0, 0.6, 1.75),
    (27.0, 2.0, 1.0),
    (120.0, 90.0, 2.25),
    (600.0, 120.0, 2.0),
    (0.0045, 0.0004, 0.75),
)
# Mean run lengths: 40 occupied rows per 180, so about 22% positive rows.
_ON_RUN = (25, 56)
_OFF_RUN = (90, 191)
_AR_PHI = 0.85  # short memory, so many independent stretches per series
_RAMP = 0.8  # smoothing of the occupancy effect (ramps in, decays out)


@dataclass(frozen=True)
class Workload:
    """Run settings of one workload; ``n_test`` is its run-length setting."""

    name: str
    w: int
    n_train: int
    n_test: int
    dimension: int
    k: int
    workers: int
    reference: str  # name of the recorded default-seed outputs in reference/
    maxscale: float | None = None
    warm: bool = False

    @property
    def rows(self) -> int:
        return (self.n_train + self.n_test) * self.w

    def config_dict(self, seed: int) -> dict:
        """Payload for ``topowin.PipelineConfig.from_dict``."""
        train_rows = self.n_train * self.w
        return {
            "run_id": self.name,
            "schema": {"timestamp": "timestamp", "features": list(CHANNELS), "label": "label"},
            "splits": [["train", 0, train_rows], ["test", train_rows, self.rows]],
            "window": self.w,
            "stride": self.w,
            "label_rule": "any_positive",
            "standardize": "fit_on_combined",
            "offset": "auto",
            "anchors": "origin",
            "dimension": self.dimension,
            "essential_policy": "dropped",
            "maxscale": self.maxscale,
            "p": 1.0,
            "k": self.k,
            "seed": seed,
        }


DEFAULT_SEED = 1

# The paper's protocol has 200 test windows; at about 0.5 s each on the
# Hungarian path that is far beyond one run, so occ-* use 3.  Short
# iterations keep each one close in time to the calibration task timed
# beside it, and give a run enough iterations for a steady median.
OCC = dict(w=10, n_train=800, n_test=3, dimension=0, k=50, workers=1, reference="occ")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("occ-cold", **OCC),
        Workload("occ-warm", **OCC, warm=True),
        Workload(
            "dim1-cold", w=30, n_train=200, n_test=10, dimension=1, k=25, workers=2,
            reference="dim1", maxscale=3.0,
        ),
    )
}


def occupancy_labels(rng: np.random.Generator, rows: int) -> np.ndarray:
    """0/1 per row: alternating unoccupied and occupied runs."""
    labels = np.zeros(rows, dtype=np.int64)
    pos = int(rng.integers(0, _OFF_RUN[1]))  # random phase
    while pos < rows:
        on = int(rng.integers(*_ON_RUN))
        labels[pos : pos + on] = 1
        pos += on + int(rng.integers(*_OFF_RUN))
    return labels


def _ar1(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Unit-variance stationary AR(1) noise."""
    shocks = rng.standard_normal(rows) * np.sqrt(1.0 - _AR_PHI**2)
    out = np.empty(rows)
    prev = rng.standard_normal()
    for i in range(rows):
        prev = _AR_PHI * prev + shocks[i]
        out[i] = prev
    return out


def make_series(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(values (rows, 5), labels (rows,)) for one seed."""
    rng = np.random.default_rng(seed)
    labels = occupancy_labels(rng, rows)
    ramp = np.empty(rows)
    level = 0.0
    for i in range(rows):
        level = _RAMP * level + (1.0 - _RAMP) * labels[i]
        ramp[i] = level
    values = np.empty((rows, len(CHANNELS)))
    for c, (base, scale, effect) in enumerate(_CHANNEL_SHAPE):
        noise = _ar1(rng, rows) + 0.5 * rng.standard_normal(rows)
        values[:, c] = base + scale * (noise + effect * ramp)
    return values, labels


def write_csv(path: Path, seed: int, rows: int) -> None:
    """The series for ``seed`` as a headed CSV; the same seed gives the same bytes."""
    values, labels = make_series(seed, rows)
    lines = ["timestamp," + ",".join(CHANNELS) + ",label"]
    for i in range(rows):
        cells = ",".join(f"{v:.7g}" for v in values[i])
        lines.append(f"{60 * i},{cells},{int(labels[i])}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
