"""Artifact serialization shared by the pipeline and the CLI.

Every writer is deterministic: floats are serialized with ``repr`` (exact
round-trip), JSON keys are sorted, CSV rows follow a fixed order.  Reading
then rewriting an artifact reproduces it byte for byte.  CSV lines are
built from ``tolist`` floats; ``csv`` formats only header rows and split names.

Every write goes through ``write_text``: a temp file in the target directory
replaces the target with ``os.replace``, so a failed write leaves the old
bytes.  A write whose target already holds the same bytes is skipped, so a
fully cached rerun rewrites only ``provenance.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import stat
from contextlib import contextmanager
from io import StringIO
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classify import EvaluationReport, KSweepEntry
from .distance import DistanceMatrix
from .errors import DataError
from .ingest import StandardizationParams, TimeSeries
from .persistence import PersistenceDiagram
from .pointcloud import AugmentedCloud
from .windowing import LabeledWindow


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


# Bumped when a stage's artifact changes meaning or may change bits for the
# same inputs, so a cache written before is never served.  windows 2: the
# series' own rows, not standardized ones.  distances 2: zero-birth diagrams
# use the exact 1-D dynamic program; 3: other diagrams use the m x (k + m)
# assignment (both may move an entry by an ulp).
STAGE_VERSION = {
    "ingest": 1,
    "standardize": 1,
    "windows": 2,
    "clouds": 1,
    "diagrams": 1,
    "distances": 3,
    "classify": 1,
}


def stage_key(stage: str, parent: str | None, params) -> str:
    """Content hash of a stage: its name and version, the upstream stage's
    key and the parameters the stage depends on."""
    payload = json.dumps(
        {"stage": stage, "version": STAGE_VERSION[stage], "parent": parent, "params": params},
        sort_keys=True,
        default=str,
    )
    return sha256_bytes(payload.encode("utf-8"))[:16]


@contextmanager
def _replacing(path: Path):
    """Text handle on a temp file that replaces ``path`` unless the block raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_line(cells: Sequence) -> str:
    """One row as ``csv.writer(lineterminator="\n")`` writes it, newline included."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, the header {len(header)}"
                )
            rows.append(row)
        return header, rows


def _line_of(path: Path, row: int) -> int:
    """The line on which data row ``row`` of ``_read_csv(path)`` ends.  Only
    error messages need it, so the file is read again instead of every
    reader keeping line numbers."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(islice(filter(None, reader), row + 1, None))  # the header, then the data rows
        return reader.line_num


def _holds(path: Path, text: str) -> bool:
    """Whether ``path`` is a regular file holding exactly ``text`` in UTF-8.
    The stat comes first, so a missing target costs no encoded copy; any
    error reads as "no"."""
    try:
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode) or not len(text) <= st.st_size <= 4 * len(text):
            return False
        data = text.encode("utf-8")
        return len(data) == st.st_size and path.read_bytes() == data
    except (OSError, UnicodeError):
        return False


def write_text(path: Path, text: str) -> None:
    """Write ``text`` atomically, unless ``path`` already holds its bytes."""
    if _holds(path, text):
        return
    with _replacing(path) as fh:
        fh.write(text)


def write_json(path: Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    if not Path(path).exists():
        raise DataError(f"no such file: {path}")
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --- series ---------------------------------------------------------------

def write_series_csv(series: TimeSeries, path: Path) -> None:
    lines = [_csv_line(["timestamp", *series.channel_names, "label"])]
    rows = zip(series.timestamps.tolist(), series.values.tolist(), series.labels.tolist())
    lines += (f"{t!r},{','.join(map(repr, values))},{label}\n" for t, values, label in rows)
    write_text(path, "".join(lines))


def read_series_csv(path: Path) -> TimeSeries:
    header, rows = _read_csv(path)
    if len(header) < 3 or header[0] != "timestamp" or header[-1] != "label":
        raise DataError(f"{path}: expected columns timestamp,<channels...>,label")
    channels = tuple(header[1:-1])
    ts = [float(r[0]) for r in rows]
    values = [[float(v) for v in r[1:-1]] for r in rows]
    labels = [int(r[-1]) for r in rows]
    return TimeSeries(
        timestamps=np.asarray(ts),
        values=np.asarray(values),
        labels=np.asarray(labels, dtype=np.int64),
        channel_names=channels,
    )


def write_params_json(params: StandardizationParams, path: Path) -> None:
    write_json(
        path,
        {
            "means": [repr(float(v)) for v in params.means],
            "standard_deviations": [repr(float(v)) for v in params.standard_deviations],
            "mode": params.mode,
        },
    )


def read_params_json(path: Path) -> StandardizationParams:
    payload = read_json(path)
    return StandardizationParams(
        means=np.asarray([float(v) for v in payload["means"]]),
        standard_deviations=np.asarray([float(v) for v in payload["standard_deviations"]]),
        mode=payload["mode"],
    )


# --- windows ---------------------------------------------------------------

def write_windows_csv(
    windows_by_split: Mapping[str, Sequence[LabeledWindow]],
    channel_names: Sequence[str],
    path: Path,
) -> None:
    lines = [_csv_line(["split", "window", "point", "label", "t_first", "t_last", *channel_names])]
    for split, windows in windows_by_split.items():
        lead = _csv_line([split, ""])[:-1]  # the split cell and its comma
        for win in windows:
            t0, t1 = win.time_range
            head, tail = f"{lead}{win.index},", f",{win.label},{float(t0)!r},{float(t1)!r},"
            for p, point in enumerate(np.asarray(win.points, dtype=float).tolist()):
                lines.append(f"{head}{p}{tail}{','.join(map(repr, point))}\n")
    write_text(path, "".join(lines))


def read_windows_csv(path: Path) -> dict[str, list[LabeledWindow]]:
    header, rows = _read_csv(path)
    fixed = ["split", "window", "point", "label", "t_first", "t_last"]
    if header[: len(fixed)] != fixed:
        raise DataError(f"{path}: expected columns {fixed},<channels...>")
    grouped: dict[tuple[str, int], dict] = {}
    order: list[tuple[str, int]] = []
    for r in rows:
        key = (r[0], int(r[1]))
        if key not in grouped:
            grouped[key] = {
                "label": int(r[3]),
                "range": (float(r[4]), float(r[5])),
                "points": [],
            }
            order.append(key)
        grouped[key]["points"].append((int(r[2]), [float(v) for v in r[6:]]))
    out: dict[str, list[LabeledWindow]] = {}
    for split, index in order:
        entry = grouped[(split, index)]
        points = [p for _, p in sorted(entry["points"], key=lambda t: t[0])]
        out.setdefault(split, []).append(
            LabeledWindow(
                index=index,
                points=np.asarray(points, dtype=float),
                label=entry["label"],
                time_range=entry["range"],
            )
        )
    return out


def window_labels(windows_by_split: Mapping[str, Sequence[LabeledWindow]], split: str) -> list[int]:
    if split not in windows_by_split:
        raise DataError(f"no split named '{split}' in windows file (have {sorted(windows_by_split)})")
    return [w.label for w in windows_by_split[split]]


# --- clouds ----------------------------------------------------------------

def write_clouds_csv(clouds_by_split: Mapping[str, Sequence[AugmentedCloud]], path: Path) -> None:
    dims = {c.points.shape[1] for clouds in clouds_by_split.values() for c in clouds}
    d = dims.pop() if dims else 0
    lines = [_csv_line(["split", "window", "point", *[f"x{i}" for i in range(d)]])]
    for split, clouds in clouds_by_split.items():
        lead = _csv_line([split, ""])[:-1]
        for cloud in clouds:
            for p, point in enumerate(cloud.points.tolist()):
                lines.append(f"{lead}{cloud.source_window},{p},{','.join(map(repr, point))}\n")
    write_text(path, "".join(lines))


def read_clouds_csv(path: Path) -> dict[str, list[AugmentedCloud]]:
    header, rows = _read_csv(path)
    if header[:3] != ["split", "window", "point"]:
        raise DataError(f"{path}: expected columns split,window,point,<coords...>")
    grouped: dict[tuple[str, int], list] = {}
    order: list[tuple[str, int]] = []
    for r in rows:
        key = (r[0], int(r[1]))
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append((int(r[2]), [float(v) for v in r[3:]]))
    out: dict[str, list[AugmentedCloud]] = {}
    for split, index in order:
        points = [p for _, p in sorted(grouped[(split, index)], key=lambda t: t[0])]
        out.setdefault(split, []).append(
            AugmentedCloud(points=np.asarray(points, dtype=float), source_window=index)
        )
    return out


# --- diagrams ---------------------------------------------------------------

def write_diagrams_csv(
    diagrams_by_split: Mapping[str, Sequence[PersistenceDiagram]], path: Path
) -> None:
    lines = [_csv_line(["split", "window", "dim", "birth", "death"])]
    for split, diagrams in diagrams_by_split.items():
        lead = _csv_line([split, ""])[:-1]
        for index, diag in enumerate(diagrams):
            lines.extend(f"{lead}{index},{diag.dim},{b!r},{d!r}\n" for b, d in diag.pairs)
    write_text(path, "".join(lines))


def read_diagrams_csv(
    path: Path,
    counts: Mapping[str, int],
    dim: int,
    essential_policy: str,
) -> dict[str, list[PersistenceDiagram]]:
    """Rebuild per-window diagrams; windows absent from the file get empty
    diagrams, so ``counts`` (windows per split) is required.  A row of
    another dimension, or of a split or window outside ``counts``, is a
    ``DataError`` naming its line."""
    header, rows = _read_csv(path)
    if header != ["split", "window", "dim", "birth", "death"]:
        raise DataError(f"{path}: expected columns split,window,dim,birth,death")
    pairs: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for i, (split, window, row_dim, birth, death) in enumerate(rows):
        index = int(window)
        if split not in counts:
            problem = f"split '{split}' is not among the windows' splits {sorted(counts)}"
        elif not 0 <= index < counts[split]:
            problem = f"window {index} is outside split '{split}' ({counts[split]} windows)"
        elif int(row_dim) != dim:
            problem = f"dimension {row_dim}, not {dim}"
        else:
            pairs.setdefault((split, index), []).append((float(birth), float(death)))
            continue
        raise DataError(f"{path}: line {_line_of(path, i)}: {problem}")
    out: dict[str, list[PersistenceDiagram]] = {}
    for split, count in counts.items():
        out[split] = [
            PersistenceDiagram(
                dim=dim,
                pairs=tuple(pairs.get((split, i), ())),
                essential_policy=essential_policy,
            )
            for i in range(count)
        ]
    return out


def read_diagram_points(path: Path) -> tuple[bool, list[tuple]]:
    """Points of a single diagram file, ``(False, [(dim, birth, death), ...])``,
    or of a long-format one, ``(True, [(split, window, dim, birth, death), ...])``."""
    header, rows = _read_csv(Path(path))
    if header[:3] == ["dim", "birth", "death"]:
        return False, [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
    if header == ["split", "window", "dim", "birth", "death"]:
        return True, [(r[0], int(r[1]), int(r[2]), float(r[3]), float(r[4])) for r in rows]
    raise DataError(f"{path}: not a diagram file (header {header})")


def diagram_set_hash(diagrams_by_split: Mapping[str, Sequence[PersistenceDiagram]]) -> str:
    lines = []
    for split in sorted(diagrams_by_split):
        for index, diag in enumerate(diagrams_by_split[split]):
            for b, d in diag.pairs:
                lines.append(f"{split}|{index}|{diag.dim}|{b!r}|{d!r}")
    return sha256_bytes("\n".join(lines).encode("utf-8"))


# --- distance matrix --------------------------------------------------------

def write_distmat_csv(matrix: DistanceMatrix, path: Path) -> None:
    lines = [_csv_line(["window", *matrix.col_ids])]
    values = matrix.values.tolist()
    # Indexed, not zipped: more row ids than value rows is an error, not a short file.
    lines += (f"{rid},{','.join(map(repr, values[i]))}\n" for i, rid in enumerate(matrix.row_ids))
    write_text(path, "".join(lines))


def read_distmat_csv(path: Path) -> DistanceMatrix:
    header, rows = _read_csv(path)
    if not header or header[0] != "window":
        raise DataError(f"{path}: expected first column 'window'")
    col_ids = tuple(int(c) for c in header[1:])
    row_ids = tuple(int(r[0]) for r in rows)
    values = np.asarray([[float(v) for v in r[1:]] for r in rows], dtype=float)
    return DistanceMatrix(row_ids=row_ids, col_ids=col_ids, values=values)


# --- evaluation report -------------------------------------------------------

def report_to_dict(report: EvaluationReport) -> dict:
    per_class = {
        str(label): {
            "precision": float(report.precision[label]),
            "recall": float(report.recall[label]),
            "f1": float(report.f1[label]),
        }
        for label in report.classes
    }
    return {
        "classes": list(report.classes),
        "confusion": [list(row) for row in report.confusion],
        "n_test": report.total,
        "accuracy": float(report.accuracy),
        "sensitivity": None if report.sensitivity is None else float(report.sensitivity),
        "specificity": None if report.specificity is None else float(report.specificity),
        "per_class": per_class,
    }


def write_sweep_csv(entries: Sequence[KSweepEntry], path: Path) -> None:
    def metric(value) -> str:
        return "" if value is None else repr(float(value))

    lines = [_csv_line(["k", "accuracy", "sensitivity", "specificity"])]
    lines += (f"{e.k},{metric(e.accuracy)},{metric(e.sensitivity)},{metric(e.specificity)}\n" for e in entries)
    write_text(path, "".join(lines))


def write_report_json(report: EvaluationReport, path: Path) -> None:
    write_json(path, report_to_dict(report))


def read_report_json(path: Path) -> EvaluationReport:
    payload = read_json(path)
    # Metrics are recomputed from the confusion matrix, so they stay exact.
    return EvaluationReport.from_confusion(payload["classes"], payload["confusion"])
