"""Artifact serialization shared by the pipeline and the CLI.

Every writer is deterministic: floats are serialized with ``repr`` (exact
round-trip), JSON keys are sorted, CSV rows follow a fixed order.  Reading
then rewriting an artifact reproduces it byte for byte, and reading a
malformed one is a ``DataError`` naming its file (and line).  One row
formatter, ``_row_cells``, writes the float cells of the series, windows,
clouds and distance-matrix rows; ``csv`` formats only header rows and split
names.  The windows are the series' own rows, so a run hands the series and
windows writers one memo of row text and formats each series row once.

Every write goes through ``write_text``: a temp file in the target directory
replaces the target with ``os.replace``, so a failed write leaves the old
bytes.  A write whose target already holds the same bytes is skipped, so a
fully cached rerun rewrites only ``provenance.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import stat
from contextlib import contextmanager
from functools import partial
from io import StringIO
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .classify import EvaluationReport, KSweepEntry
from .distance import DistanceMatrix
from .errors import DataError, NumericalError
from .ingest import StandardizationParams, TimeSeries
from .persistence import PersistenceDiagram
from .pointcloud import AugmentedCloud
from .windowing import LabeledWindow


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    """SHA-256 of the file's bytes, read 64 KiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# Bumped when a stage's artifact changes meaning or may change bits for the
# same inputs, so a cache written before is never served.  windows 2: the
# series' own rows, not standardized ones.  distances 2: zero-birth diagrams
# use the exact 1-D dynamic program; 3: other diagrams use the m x (k + m)
# assignment (both may move an entry by an ulp).
STAGE_VERSION = {
    "ingest": 1,
    "windows": 2,
    "standardize": 1,
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


_CHUNK_ROWS = 1024  # rows converted to Python floats, and lines joined, at a time


def _row_cells(values, memo: dict | None = None) -> list[str]:
    """Each row of the 2-D float array ``values`` as its cells, each as
    ``repr`` writes it, joined by commas.  Rows become Python floats a chunk
    at a time, so no whole ``tolist`` copy is held.  ``memo`` maps a row's
    exact float64 bytes to its text: a row found there is not formatted
    again.  It is keyed on bytes, not on float tuples, because ``0.0 ==
    -0.0`` would write a ``-0.0`` row as ``0.0``."""
    values = np.ascontiguousarray(values, dtype=float)
    out: list[str] = []
    for start in range(0, len(values), _CHUNK_ROWS):
        block = values[start : start + _CHUNK_ROWS]
        if memo is None:
            out += [",".join(map(repr, row)) for row in block.tolist()]
            continue
        rows = None
        for i, key in enumerate(block.view(np.dtype((np.void, 8 * block.shape[1]))).ravel().tolist()):
            text = memo.get(key)
            if text is None:
                rows = block.tolist() if rows is None else rows
                text = memo[key] = ",".join(map(repr, rows[i]))
            out.append(text)
    return out


def _joined(lines: Iterable[str]) -> str:
    """``"".join(lines)``, taken a chunk of lines at a time: only one chunk's
    line objects live beside the text, and the freed ones are reused."""
    lines, chunks = iter(lines), []
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        chunks.append("".join(chunk))
    return "".join(chunks)


def _read_csv(path: str | Path, columns: str, start: Callable[[list[str]], Callable | None]) -> list[str]:
    """The header of ``path``, once ``start(header)``'s row parser (None for
    a header that is not ``columns``) has taken each nonblank data row.  A
    wrong field count, or a ``ValueError`` or ``IndexError`` from the parser
    (a cell it refuses, a row it cannot place), is a ``DataError`` naming the
    file and the line."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if (parse := start(header)) is None:
                raise ValueError(f"expected columns {columns}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header {len(header)}")
                parse(row)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ValueError, IndexError, csv.Error) as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return header


@contextmanager
def _naming(path: Path):
    """Text that is not JSON, a field missing from a JSON payload, or a check
    that fails on a value built from ``path`` is a ``DataError`` naming the
    file."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except (DataError, NumericalError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_windowed(path: Path, fixed: list[str], window: Callable) -> dict[str, list]:
    """``{split: [window(index, row of point 0)(points), ...]}`` from columns
    ``fixed`` (split, window, point, ...), then the coordinates.  The
    writers put each window's rows together as points 0, 1, 2, ...; a row
    out of that order is a ``DataError`` naming its line."""
    groups: dict[str, dict[int, tuple]] = {}
    current, points = None, []

    def parse(row: list[str]) -> None:
        nonlocal current, points
        point = int(row[2])
        if point == 0 and (index := int(row[1])) not in groups.setdefault(row[0], {}):
            current, points = row[:2], []
            groups[row[0]][index] = (window(index, row), points)
        elif row[:2] != current or point != len(points):
            raise ValueError(f"point {point} of split '{row[0]}' window {row[1]} is out of order")
        points.append(list(map(float, row[len(fixed) :])))

    _read_csv(path, f"{','.join(fixed)},...", lambda header: parse if header[: len(fixed)] == fixed else None)
    return {split: [make(np.array(p)) for make, p in wins.values()] for split, wins in groups.items()}


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
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with _naming(path):
        return json.loads(path.read_text(encoding="utf-8"))


# --- series ---------------------------------------------------------------

def write_series_csv(series: TimeSeries, path: Path, memo: dict | None = None) -> None:
    """A ``memo`` (row bytes to row text, see ``_row_cells``) is filled with
    the series' rows; hand the same one to ``write_windows_csv``."""
    cells = _row_cells(series.values, memo)
    rows = zip(series.timestamps.tolist(), cells, series.labels.tolist())
    body = _joined(f"{t!r},{row},{label}\n" for t, row, label in rows)
    write_text(path, _csv_line(["timestamp", *series.channel_names, "label"]) + body)


def read_series_csv(path: Path) -> TimeSeries:
    """The series of a ``write_series_csv`` file.  A timestamp that does not
    follow the one before, or a value that is not finite, is a ``DataError``
    naming its line; the ``TimeSeries`` checks still run on the whole."""
    ts, values, labels = [], [], []

    def parse(row: list[str]) -> None:
        t, vals = float(row[0]), list(map(float, row[1:-1]))
        if ts and t <= ts[-1]:
            raise ValueError(f"timestamps not strictly increasing ({t!r} after {ts[-1]!r})")
        if not all(map(math.isfinite, vals)):
            raise ValueError("non-finite feature value")
        ts.append(t)
        values.append(vals)
        labels.append(int(row[-1]))

    columns = "timestamp,<channels...>,label"
    header = _read_csv(path, columns, lambda h: parse if h[:1] == ["timestamp"] and h[-1:] == ["label"] else None)
    with _naming(path):
        return TimeSeries(ts, values, labels, tuple(header[1:-1]))


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
    with _naming(path):  # the dataclass parses the repr strings as float64
        return StandardizationParams(payload["means"], payload["standard_deviations"], payload["mode"])


# --- windows ---------------------------------------------------------------

def write_windows_csv(
    windows_by_split: Mapping[str, Sequence[LabeledWindow]],
    channel_names: Sequence[str],
    path: Path,
    memo: dict | None = None,
) -> None:
    """``memo`` is the one ``write_series_csv`` filled; without one every
    row is formatted."""

    def lines():
        for split, windows in windows_by_split.items():
            if not windows:
                continue
            lead = _csv_line([split, ""])[:-1]  # the split cell and its comma
            cells = iter(_row_cells(np.concatenate([win.points for win in windows]), memo))
            for win in windows:
                t0, t1 = win.time_range
                head, tail = f"{lead}{win.index},", f",{win.label},{float(t0)!r},{float(t1)!r},"
                yield from (f"{head}{p}{tail}{row}\n" for p, row in enumerate(islice(cells, len(win.points))))

    header = _csv_line(["split", "window", "point", "label", "t_first", "t_last", *channel_names])
    write_text(path, header + _joined(lines()))


def read_windows_csv(path: Path) -> dict[str, list[LabeledWindow]]:
    return _read_windowed(
        path,
        ["split", "window", "point", "label", "t_first", "t_last"],
        lambda i, r: partial(LabeledWindow, i, label=int(r[3]), time_range=(float(r[4]), float(r[5]))),
    )


def window_labels(windows_by_split: Mapping[str, Sequence[LabeledWindow]], split: str) -> list[int]:
    if split not in windows_by_split:
        raise DataError(f"no split named '{split}' in windows file (have {sorted(windows_by_split)})")
    return [w.label for w in windows_by_split[split]]


# --- clouds ----------------------------------------------------------------

def write_clouds_csv(clouds_by_split: Mapping[str, Sequence[AugmentedCloud]], path: Path) -> None:
    dims = {c.points.shape[1] for clouds in clouds_by_split.values() for c in clouds}
    d = dims.pop() if dims else 0

    def lines():
        for split, clouds in clouds_by_split.items():
            if not clouds:
                continue
            lead = _csv_line([split, ""])[:-1]
            cells = iter(_row_cells(np.concatenate([cloud.points for cloud in clouds])))
            for cloud in clouds:
                head = f"{lead}{cloud.source_window},"
                yield from (f"{head}{p},{row}\n" for p, row in enumerate(islice(cells, len(cloud.points))))

    header = _csv_line(["split", "window", "point", *[f"x{i}" for i in range(d)]])
    write_text(path, header + _joined(lines()))


def read_clouds_csv(path: Path) -> dict[str, list[AugmentedCloud]]:
    return _read_windowed(path, ["split", "window", "point"], lambda i, r: partial(AugmentedCloud, source_window=i))


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


_DIAGRAM_COLUMNS = ["split", "window", "dim", "birth", "death"]


def _diagram_point(birth: str, death: str) -> tuple[float, float]:
    """The cells of a diagram point as floats; a point that is not finite
    0 <= birth <= death is a ``ValueError``."""
    b, d = float(birth), float(death)
    if not 0 <= b <= d < math.inf:
        raise ValueError(f"invalid diagram point ({b}, {d}): need finite 0 <= birth <= death")
    return b, d


def read_diagrams_csv(
    path: Path,
    counts: Mapping[str, int],
    dim: int,
    essential_policy: str,
) -> dict[str, list[PersistenceDiagram]]:
    """Rebuild per-window diagrams; windows absent from the file get empty
    diagrams, so ``counts`` (windows per split) is required.  A row of a
    split, window or dimension outside ``counts`` and ``dim``, or whose point
    is not finite 0 <= birth <= death, is a ``DataError`` naming its line."""
    pairs: dict[tuple[str, int], list[tuple[float, float]]] = {}

    def parse(row: list[str]) -> None:
        split, window, row_dim, birth, death = row
        index = int(window)
        if split not in counts:
            raise ValueError(f"split '{split}' is not among the windows' splits {sorted(counts)}")
        if not 0 <= index < counts[split]:
            raise ValueError(f"window {index} is outside split '{split}' ({counts[split]} windows)")
        if int(row_dim) != dim:
            raise ValueError(f"dimension {row_dim}, not {dim}")
        pairs.setdefault((split, index), []).append(_diagram_point(birth, death))

    _read_csv(path, ",".join(_DIAGRAM_COLUMNS), lambda header: parse if header == _DIAGRAM_COLUMNS else None)
    return {
        split: [PersistenceDiagram(dim, tuple(pairs.get((split, i), ())), essential_policy) for i in range(count)]
        for split, count in counts.items()
    }


def read_diagram_points(path: Path) -> tuple[bool, list[tuple]]:
    """Points of a single diagram file, ``(False, [(dim, birth, death), ...])``,
    or of a long-format one, ``(True, [(split, window, dim, birth, death), ...])``.
    A point that is not finite 0 <= birth <= death is a ``DataError`` naming
    its line."""
    points: list[tuple] = []

    def start(header: list[str]):
        if header[:3] == ["dim", "birth", "death"]:
            return lambda r: points.append((int(r[0]), *_diagram_point(r[1], r[2])))
        if header == _DIAGRAM_COLUMNS:
            return lambda r: points.append((r[0], int(r[1]), int(r[2]), *_diagram_point(r[3], r[4])))

    header = _read_csv(path, "dim,birth,death,... or " + ",".join(_DIAGRAM_COLUMNS), start)
    return header == _DIAGRAM_COLUMNS, points


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
    cells = _row_cells(matrix.values)
    # Indexed, not zipped: more row ids than value rows is an error, not a short file.
    lines += (f"{rid},{cells[i]}\n" for i, rid in enumerate(matrix.row_ids))
    write_text(path, "".join(lines))


def read_distmat_csv(path: Path) -> DistanceMatrix:
    row_ids, col_ids, values = [], [], []

    def start(header: list[str]):
        if header[:1] == ["window"]:
            col_ids.extend(map(int, header[1:]))
            return parse

    def parse(row: list[str]) -> None:
        row_ids.append(int(row[0]))
        values.append(entries := np.array(row[1:], dtype=float))
        if not ((entries >= 0) & np.isfinite(entries)).all():
            raise ValueError("distance entries must be finite and nonnegative")

    _read_csv(path, "window,<train windows...>", start)
    with _naming(path):
        return DistanceMatrix(tuple(row_ids), tuple(col_ids), values)


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
    with _naming(path):
        return EvaluationReport.from_confusion(payload["classes"], payload["confusion"])
