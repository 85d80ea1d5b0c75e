"""Output checks made after every timed iteration.

The checker does not import topowin.  It parses the run's artifacts with
``csv``/``json`` and recomputes what it can on its own:

* k-NN predictions from the distance matrix (stable order, ties in the vote
  go to the nearest neighbour carrying a tied label), and from them the
  confusion matrix and exact accuracy that ``report.json`` must hold;
* for dimension 0, every distance from the run's own diagrams with the exact
  one-dimensional dynamic program (all births are 0, so the optimal matching
  is non-crossing over sorted deaths), to 1e-9 relative;
* for the default seed, predictions, confusion, accuracy and distances
  against the reference recorded in ``reference/`` (distances to 1e-12
  relative).

Window labels come from the input CSV under the ``any_positive`` rule.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-12
DP_RTOL = 1e-9


def window_labels(data: Path, wl: Workload) -> tuple[list[int], list[int]]:
    """(train, test) window labels: 1 when any row of the window is 1."""
    with data.open(newline="", encoding="utf-8") as fh:
        rows = [int(r[-1]) for r in list(csv.reader(fh))[1:]]
    labels = [int(any(rows[i * wl.w : (i + 1) * wl.w])) for i in range(wl.n_train + wl.n_test)]
    return labels[: wl.n_train], labels[wl.n_train :]


def only_file(run_dir: Path, stage: str, suffix: str) -> Path:
    found = sorted((run_dir / stage).glob(f"*.{suffix}"))
    if len(found) != 1:
        raise ValueError(f"expected one {stage}/*.{suffix}, found {len(found)}")
    return found[0]


def read_distmat(path: Path) -> np.ndarray:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in r[1:]] for r in rows])


def read_dim0_deaths(path: Path, split: str, count: int) -> list[np.ndarray]:
    deaths: list[list[float]] = [[] for _ in range(count)]
    with path.open(newline="", encoding="utf-8") as fh:
        for r in list(csv.reader(fh))[1:]:
            if r[0] == split:
                if float(r[3]) != 0.0:
                    raise ValueError(f"dimension-0 birth {r[3]} is not 0")
                deaths[int(r[1])].append(float(r[4]))
    return [np.sort(np.array(d)) for d in deaths]


def dim0_distances(a: np.ndarray, train: list[np.ndarray]) -> np.ndarray:
    """1-Wasserstein (L-inf ground metric) from one dimension-0 diagram to
    each train diagram, all of the same size: matching deaths x, y costs
    |x - y|, sending a point to the diagonal costs death / 2."""
    B = np.array(train)  # (T, n)
    n = B.shape[1]
    prev = np.concatenate([np.zeros((1, B.shape[0])), np.cumsum(B.T / 2, axis=0)])
    for x in a:
        cur = np.empty_like(prev)
        cur[0] = prev[0] + x / 2
        for j in range(1, n + 1):
            y = B[:, j - 1]
            cur[j] = np.minimum(
                np.minimum(prev[j - 1] + np.abs(x - y), prev[j] + x / 2), cur[j - 1] + y / 2
            )
        prev = cur
    return prev[n]


def knn_predictions(D: np.ndarray, train_labels: list[int], k: int) -> list[int]:
    out = []
    for row in D:
        order = np.argsort(row, kind="stable")[:k]
        nearest = [train_labels[i] for i in order]
        votes = {lab: nearest.count(lab) for lab in set(nearest)}
        best = max(votes.values())
        out.append(next(lab for lab in nearest if votes[lab] == best))
    return out


def confusion(predictions: list[int], truths: list[int]) -> tuple[list[int], list[list[int]]]:
    classes = sorted(set(predictions) | set(truths))
    pos = {c: i for i, c in enumerate(classes)}
    C = [[0] * len(classes) for _ in classes]
    for p, t in zip(predictions, truths):
        C[pos[t]][pos[p]] += 1
    return classes, C


class Checker:
    def __init__(self, wl: Workload, seed: int, data: Path) -> None:
        self.wl = wl
        self.train_labels, self.test_labels = window_labels(data, wl)
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads((REFERENCE_DIR / f"{wl.reference}.json").read_text())

    def problems(self, run_dir: Path) -> list[str]:
        """Everything wrong with a finished run; empty when it is correct."""
        try:
            return self._problems(run_dir)
        except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
            return [f"missing or malformed artifacts: {exc!r}"]

    def _problems(self, run_dir: Path) -> list[str]:
        wl = self.wl
        D = read_distmat(only_file(run_dir, "distances", "distmat.csv"))
        if D.shape != (wl.n_test, wl.n_train):
            return [f"distance matrix shaped {D.shape}, expected {(wl.n_test, wl.n_train)}"]
        predictions = knn_predictions(D, self.train_labels, wl.k)
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        bad = []
        if not np.all(np.isfinite(D)) or np.any(D < 0):
            bad.append("distance matrix has negative or non-finite entries")
        classes, C = confusion(predictions, self.test_labels)
        if report.get("classes") != classes or report.get("confusion") != C:
            bad.append(f"report confusion {report.get('confusion')} != recomputed {C}")
        accuracy = Fraction(sum(C[i][i] for i in range(len(C))), wl.n_test)
        if report.get("accuracy") != float(accuracy):
            bad.append(f"report accuracy {report.get('accuracy')} != {accuracy}")
        if wl.dimension == 0:
            diagrams = only_file(run_dir, "diagrams", "diagrams.csv")
            train = read_dim0_deaths(diagrams, "train", wl.n_train)
            test = read_dim0_deaths(diagrams, "test", wl.n_test)
            expect = np.array([dim0_distances(a, train) for a in test])
            if not np.allclose(D, expect, rtol=DP_RTOL, atol=0.0):
                worst = float(np.max(np.abs(D - expect) / np.maximum(expect, 1e-300)))
                bad.append(f"dimension-0 distances off the exact DP by {worst:.3g} relative")
        ref = self.reference
        if ref is not None:
            if predictions != ref["predictions"]:
                bad.append("predictions differ from the reference")
            if C != ref["confusion"] or classes != ref["classes"]:
                bad.append(f"confusion {C} differs from the reference {ref['confusion']}")
            if accuracy != Fraction(ref["accuracy"]):
                bad.append(f"accuracy {accuracy} differs from the reference {ref['accuracy']}")
            R = np.array(ref["distances"])
            if R.shape != D.shape or not np.allclose(D, R, rtol=REFERENCE_RTOL, atol=0.0):
                bad.append("distances differ from the reference beyond 1e-12 relative")
        return bad


def snapshot(run_dir: Path) -> dict[str, str]:
    """sha256 of every artifact and report under the run directory; the
    provenance record is left out because it holds timings."""
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "provenance.json"
    }
