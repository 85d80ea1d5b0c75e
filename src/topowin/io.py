"""Artifact serialization shared by the pipeline and the CLI.

Every writer is deterministic: floats are serialized with ``repr`` (exact
round-trip), JSON keys are sorted, CSV rows follow a fixed order.  Reading
then rewriting an artifact reproduces it byte for byte, and reading a
malformed one is a ``DataError`` naming its file (and line).  The series
artifact has the input's shape and is read by the input's own loader,
``ingest.load_csv``; the other CSV readers loop over ``_csv_rows``.  One row
formatter, ``_row_cells``, writes the float cells of the series, windows,
clouds and distance-matrix rows; ``csv`` formats only header rows and split
names.  The windows are the series' own rows, so a run hands the series and
windows writers one memo of row text and formats each series row once.
A window, cloud or matrix row or column is numbered by its position alone:
the writers write it, and the readers reject any other number.  A split's
windows are one ``Windows`` and its clouds one (count, n, d) array, in the
writers and the readers alike.

Every write goes through ``write_text``, which takes the text whole or as
chunks: the CSV writers hand it their header, then their rows ``_CHUNK_ROWS``
lines at a time (the distance matrix at most ``_CHUNK_CELLS`` cells at a
time), so no whole copy of an artifact is ever held.  Each chunk is encoded,
hashed and written to a temp file in the target directory, which then
replaces the target with ``os.replace``; a failed write, or a chunk stream
that raises, leaves the old bytes.  When the target already holds the same
bytes (same size and SHA-256) the temp file is deleted instead, and a whole
string is compared before any temp file is made, so a fully cached rerun
replaces only ``provenance.json``.  ``write_text`` and every writer return
the SHA-256 of the bytes now at the path, taken in the same pass as the
write.
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
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .classify import EvaluationReport, KSweepEntry
from .distance import DistanceMatrix
from .errors import DataError, NumericalError
from .ingest import CsvSchema, StandardizationParams, TimeSeries, load_csv
from .persistence import Diagrams
from .windowing import Windows


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


def _csv_line(cells: Sequence) -> str:
    """One row as ``csv.writer(lineterminator="\n")`` writes it, newline included."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


# Lines formatted, joined and written at a time.  Chunks of 10-20 KB are
# reused from malloc's free lists; chunks near glibc's 128 KiB mmap
# threshold come from the heap, fragment it and raise later peak RSS.
_CHUNK_ROWS = 128
_CHUNK_CELLS = 8 * _CHUNK_ROWS  # distance-matrix cells formatted, joined and written at a time


def _row_cells(values, memo: dict | None = None) -> Iterator[str]:
    """Each row of the 2-D float array ``values`` as its cells, each as
    ``repr`` writes it, joined by commas.  Rows become Python floats a chunk
    at a time as they are asked for, so no whole ``tolist`` copy is held.
    ``memo`` maps a row's exact float64 bytes to its text: a row found there
    is not formatted again.  It is keyed on bytes, not on float tuples,
    because ``0.0 == -0.0`` would write a ``-0.0`` row as ``0.0``."""
    values = np.ascontiguousarray(values, dtype=float)
    blocks = (values[start : start + _CHUNK_ROWS] for start in range(0, len(values), _CHUNK_ROWS))
    if memo is None:
        return chain.from_iterable([",".join(map(repr, row)) for row in block.tolist()] for block in blocks)
    return chain.from_iterable(_memo_cells(block, memo) for block in blocks)


def _memo_cells(block: np.ndarray, memo: dict) -> list[str]:
    """``_row_cells`` of one block of rows, through ``memo``."""
    out, rows = [], None
    for i, key in enumerate(block.view(np.dtype((np.void, 8 * block.shape[1]))).ravel().tolist()):
        text = memo.get(key)
        if text is None:
            rows = block.tolist() if rows is None else rows
            text = memo[key] = ",".join(map(repr, rows[i]))
        out.append(text)
    return out


def _items(values) -> Iterator:
    """The items of the 1-D array ``values`` as Python scalars, ``_CHUNK_ROWS`` at a time."""
    starts = range(0, len(values), _CHUNK_ROWS)
    return chain.from_iterable(values[start : start + _CHUNK_ROWS].tolist() for start in starts)


def _csv_chunks(header: Sequence, lines: Iterable[str], rows: int | None = None) -> Iterator[str]:
    """The ``header`` line, then ``lines`` joined ``rows`` (by default
    ``_CHUNK_ROWS``) at a time: the chunks ``write_text`` streams to disk."""
    yield _csv_line(header)
    lines = iter(lines)
    while chunk := list(islice(lines, rows or _CHUNK_ROWS)):
        yield "".join(chunk)


@contextmanager
def _csv_rows(path: str | Path):
    """``(header, rows)`` of the CSV file ``path``: its first row and an
    iterator over its nonblank data rows, each of the header's width.  A
    ``ValueError``, ``IndexError``, ``OverflowError`` or ``csv.Error`` raised
    in the block (a row of another width, a cell or a row refused, a check
    after the last row) is a ``DataError`` naming the file and the line."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            yield header, _rows(reader, len(header))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ValueError, IndexError, OverflowError, csv.Error) as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _rows(reader: Iterator[list[str]], width: int) -> Iterator[list[str]]:
    for row in filter(None, reader):
        if len(row) != width:
            raise ValueError(f"{len(row)} fields, the header {width}")
        yield row


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


def _read_windowed(path: Path, fixed: list[str], window: Callable) -> dict[str, tuple]:
    """``{split: (points, [window(row of point 0), ...])}`` from columns
    ``fixed`` (split, window, point, ...), then the coordinates: each split's
    points one (count, n, d) array.  The writers number each split's windows
    0, 1, 2, ... by position and put each window's n rows together as points
    0, 1, 2, ...; a window or a point out of that order, a point whose cells
    after ``point`` in ``fixed`` are not its point 0's, a coordinate that is
    not finite, or a window with another point count than its split's window
    0 (at the line after it), is a ``DataError`` naming its line."""
    splits: dict[str, tuple[list, list]] = {}  # split -> (coordinate rows, window(row)s)
    # The window being read: its split and window cells, its points so far, its cells after point.
    current, points, cells = None, 0, []
    n = len(fixed)
    with _csv_rows(path) as (header, rows):
        if header[:n] != fixed:
            raise ValueError(f"expected columns {','.join(fixed)},...")
        for row in rows:
            point = int(row[2])
            if row[:2] != current or point != points:
                if point != 0:
                    raise ValueError(f"point {point} of split '{row[0]}' window {row[1]} is out of order")
                _check_points(splits, current, points)
                windows = splits.setdefault(row[0], ([], []))[1]
                if (index := int(row[1])) != len(windows):
                    raise ValueError(f"split '{row[0]}' window {index} where window {len(windows)} is due")
                current, points, cells = row[:2], 0, row[3:n]
                windows.append(window(row))
            elif row[3:n] != cells:
                raise ValueError(
                    f"point {point} of split '{row[0]}' window {row[1]} has {','.join(fixed[3:])} cells"
                    f" {','.join(row[3:n])}, not its point 0's {','.join(cells)}"
                )
            coords = list(map(float, row[n:]))
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"point {point} of split '{row[0]}' window {row[1]} has a coordinate that is not finite")
            splits[row[0]][0].append(coords)
            points += 1
        _check_points(splits, current, points)
    d = len(header) - n
    return {
        split: (np.array(rows, dtype=float).reshape(len(windows), len(rows) // len(windows), d), windows)
        for split, (rows, windows) in splits.items()
    }


def _check_points(splits: dict[str, tuple[list, list]], window: list[str] | None, points: int) -> None:
    """The window just read, ``[split, window]`` (None before the first), must
    have ``points`` as many as each window before it in its split."""
    if window and len(splits[window[0]][0]) != points * len(splits[window[0]][1]):
        raise ValueError(f"split '{window[0]}' window {window[1]} has {points} points, not as many as window 0")


def _windowed_lines(arrays_by_split: Mapping[str, tuple], memo: dict | None = None) -> Iterator[str]:
    """The lines of a windows or clouds CSV from ``{split: (points, tails)}``,
    one per point of each split's (count, n, d) ``points``:
    ``split,window,point``, the window's tail (its cells between two commas,
    or one comma), then the point's coordinates."""
    for split, (points, tails) in arrays_by_split.items():
        lead = _csv_line([split, ""])[:-1]  # the split cell and its comma
        n = points.shape[1]
        coords = _row_cells(points.reshape(-1, points.shape[2]), memo)
        for index, tail in enumerate(tails):
            head = f"{lead}{index},"
            yield from (f"{head}{p}{tail}{row}\n" for p, row in enumerate(islice(coords, n)))


def _holds(path: Path, size: int, digest: str) -> bool:
    """Whether ``path`` is a regular file of ``size`` bytes whose SHA-256 is
    ``digest``.  The stat comes first, so a missing target or one of another
    size is not read; any error reads as "no"."""
    try:
        st = os.lstat(path)
        return stat.S_ISREG(st.st_mode) and st.st_size == size and sha256_file(path) == digest
    except OSError:
        return False


def write_text(path: Path, text: str | Iterable[str]) -> str:
    """Write ``text``, one string or an iterable of string chunks, as UTF-8
    and atomically; returns the SHA-256 of the bytes now at ``path``.  Each
    chunk is encoded, hashed and written to a temp file beside ``path`` as it
    comes.  The temp file then replaces ``path``, or is deleted when ``path``
    already holds the same bytes.  If a chunk cannot be produced or written,
    the old file stays and the temp file is removed.  A whole string is
    compared with ``path`` first, so an unchanged one makes no temp file."""
    if isinstance(text, str):
        data = text.encode("utf-8")
        if _holds(path, len(data), digest := sha256_bytes(data)):
            return digest
        chunks: Iterable[bytes] = (data,)
    else:
        chunks = (chunk.encode("utf-8") for chunk in text)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    hasher, size = hashlib.sha256(), 0
    try:
        with tmp.open("wb") as fh:
            for data in chunks:
                hasher.update(data)
                size += len(data)
                fh.write(data)
        digest = hasher.hexdigest()
        if not isinstance(text, str) and _holds(path, size, digest):
            tmp.unlink()
        else:
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest


def write_json(path: Path, payload) -> str:
    return write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with _naming(path):
        return json.loads(path.read_text(encoding="utf-8"))


# --- series ---------------------------------------------------------------

def write_series_csv(series: TimeSeries, path: Path, memo: dict | None = None) -> str:
    """A ``memo`` (row bytes to row text, see ``_row_cells``) is filled with
    the series' rows; hand the same one to ``write_windows_csv``."""
    rows = zip(_items(series.timestamps), _row_cells(series.values, memo), _items(series.labels))
    lines = (f"{t!r},{row},{label}\n" for t, row, label in rows)
    return write_text(path, _csv_chunks(["timestamp", *series.channel_names, "label"], lines))


def read_series_csv(path: Path) -> TimeSeries:
    """The series of a ``write_series_csv`` file, read by ``load_csv`` with
    the schema its header names: a bad row is ``<path>: 1 malformed row(s):
    line 3: <reason>``.  ``load_csv`` strips the header's names, so a channel
    name with outer spaces (ingest writes none) is a ``DataError`` too."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", errors="replace", newline="") as fh:  # load_csv checks the bytes
        header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if header[:1] != ["timestamp"] or header[-1:] != ["label"]:
        raise DataError(f"{path}: line 1: expected columns timestamp,<channels...>,label")
    with _naming(path):
        schema = CsvSchema("timestamp", tuple(header[1:-1]), "label")
    return load_csv(path, schema)


def write_params_json(params: StandardizationParams, path: Path) -> str:
    return write_json(
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

_WINDOW_COLUMNS = ["split", "window", "point", "label", "t_first", "t_last"]


def write_windows_csv(
    windows_by_split: Mapping[str, Windows],
    channel_names: Sequence[str],
    path: Path,
    memo: dict | None = None,
) -> str:
    """``memo`` is the one ``write_series_csv`` filled; without one every
    row is formatted."""
    windowed = {
        split: (
            windows.points,
            (f",{label},{t0!r},{t1!r}," for label, (t0, t1) in zip(_items(windows.labels), _items(windows.time_ranges))),
        )
        for split, windows in windows_by_split.items()
    }
    return write_text(path, _csv_chunks([*_WINDOW_COLUMNS, *channel_names], _windowed_lines(windowed, memo)))


def read_windows_csv(path: Path) -> dict[str, Windows]:
    """Each split's windows as one ``Windows`` (see ``_read_windowed``); a
    label outside int64 is a ``DataError`` naming its line."""
    splits = _read_windowed(path, _WINDOW_COLUMNS, lambda r: (np.int64(int(r[3])), float(r[4]), float(r[5])))
    return {
        split: Windows(points, np.array([w[0] for w in windows]), np.array([w[1:] for w in windows]))
        for split, (points, windows) in splits.items()
    }


def window_labels(labels_by_split: Mapping[str, np.ndarray], split: str) -> list[int]:
    """One split's window labels, from each split's label array."""
    if split not in labels_by_split:
        raise DataError(f"no split named '{split}' in windows file (have {sorted(labels_by_split)})")
    return labels_by_split[split].tolist()


# --- clouds ----------------------------------------------------------------

def write_clouds_csv(clouds_by_split: Mapping[str, np.ndarray], path: Path) -> str:
    """Each split's clouds from its (count, n, d) array."""
    d = next((clouds.shape[2] for clouds in clouds_by_split.values()), 0)
    windowed = {split: (clouds, repeat(",", len(clouds))) for split, clouds in clouds_by_split.items()}
    header = ["split", "window", "point", *[f"x{i}" for i in range(d)]]
    return write_text(path, _csv_chunks(header, _windowed_lines(windowed)))


def read_clouds_csv(path: Path) -> dict[str, np.ndarray]:
    """Each split's clouds as one (count, n, d) float64 array (see
    ``_read_windowed``)."""
    splits = _read_windowed(path, ["split", "window", "point"], lambda row: None)
    return {split: points for split, (points, _) in splits.items()}


# --- diagrams ---------------------------------------------------------------

_DIAGRAM_COLUMNS = ["split", "window", "dim", "birth", "death"]


def write_diagrams_csv(diagrams_by_split: Mapping[str, Diagrams], path: Path) -> str:
    """One row per diagram point, written from each split's arrays with no
    diagram built."""

    def lines():
        for split, diagrams in diagrams_by_split.items():
            lead = _csv_line([split, ""])[:-1]
            for index, pairs in enumerate(diagrams.rows()):
                head = f"{lead}{index},{diagrams.dim},"
                yield from (f"{head}{b!r},{d!r}\n" for b, d in pairs)

    return write_text(path, _csv_chunks(_DIAGRAM_COLUMNS, lines()))


def _diagram_row(row: list[str], counts: Mapping[str, int] | None = None, dims: tuple[int, ...] = (0, 1)) -> tuple:
    """A ``split,window,dim,birth,death`` row as ``(split, window, dim, birth,
    death)``.  A negative window, a dimension not in ``dims``, a point that
    is not finite 0 <= birth <= death, or a dimension-0 point born off 0 is
    a ``ValueError``; given ``counts``, so are a split outside it and a
    window past its split's count."""
    split, window, dim, birth, death = row
    index = int(window)
    if counts is not None and split not in counts:
        raise ValueError(f"split '{split}' is not among the windows' splits {sorted(counts)}")
    if index < 0 or counts is not None and index >= counts[split]:
        count = "" if counts is None else f" ({counts[split]} windows)"
        raise ValueError(f"window {index} is outside split '{split}'{count}")
    if (k := int(dim)) not in dims:
        raise ValueError(f"dimension {dim}, not {' or '.join(map(str, dims))}")
    b, d = float(birth), float(death)
    if not 0 <= b <= d < math.inf:
        raise ValueError(f"invalid diagram point ({b}, {d}): need finite 0 <= birth <= death")
    if k == 0 and b != 0.0:
        raise ValueError(f"dimension-0 point born at {b!r}, not 0")
    return split, index, k, b, d


def read_diagrams_csv(
    path: Path,
    counts: Mapping[str, int],
    dim: int,
    essential_policy: str | None = None,
) -> dict[str, Diagrams]:
    """Each split's ``counts[split]`` diagrams as one ``Diagrams``, each
    window's points in file order, so a file the writer wrote reads back bit
    for bit.  A row ``_diagram_row`` refuses, with ``counts`` and dimension
    ``dim``, is a ``DataError`` naming its line; so is a dimension-0 window
    without rows (a cut window has a pair), while a dimension-1 one is empty.
    ``essential_policy`` is unused, kept for ``perfbench/micro.py``."""
    points: dict[tuple[str, int], list] = {}
    dims = (dim,)
    with _csv_rows(path) as (header, rows):
        if header != _DIAGRAM_COLUMNS:
            raise ValueError(f"expected columns {','.join(_DIAGRAM_COLUMNS)}")
        for row in rows:
            split, index, _, b, d = _diagram_row(row, counts, dims)
            points.setdefault((split, index), []).append((b, d))
    out = {}
    for split, count in counts.items():
        rows = [points.get((split, i), ()) for i in range(count)]
        if dim == 0 and () in rows:
            raise DataError(f"{path}: no rows for split '{split}' window {rows.index(())}")
        out[split] = Diagrams.from_pairs(dim, rows)
    return out


def read_diagram_points(path: Path) -> tuple[bool, list[tuple]]:
    """Points of a single diagram file, ``(False, [(dim, birth, death), ...])``,
    or of a long-format one, ``(True, [(split, window, dim, birth, death), ...])``.
    A row that ``_diagram_row`` refuses is a ``DataError`` naming its line;
    a single diagram's row is read as one of window 0 of a split ''."""
    with _csv_rows(path) as (header, rows):
        if header == ["dim", "birth", "death"]:
            return False, [_diagram_row(["", "0", *row])[2:] for row in rows]
        if header == _DIAGRAM_COLUMNS:
            return True, [_diagram_row(row) for row in rows]
        raise ValueError(f"expected columns dim,birth,death or {','.join(_DIAGRAM_COLUMNS)}")


def diagram_set_hash(diagrams_by_split: Mapping[str, Diagrams]) -> str:
    """SHA-256 of one ``split|window|dim|birth|death`` line per point, the
    splits in name order, read from the arrays with no diagram built."""
    lines = []
    for split in sorted(diagrams_by_split):
        diagrams = diagrams_by_split[split]
        for index, pairs in enumerate(diagrams.rows()):
            for b, d in pairs:
                lines.append(f"{split}|{index}|{diagrams.dim}|{b!r}|{d!r}")
    return sha256_bytes("\n".join(lines).encode("utf-8"))


# --- distance matrix --------------------------------------------------------

def write_distmat_csv(matrix: DistanceMatrix, path: Path) -> str:
    n_rows, n_cols = matrix.values.shape
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // max(1, n_cols)))

    def lines():
        for start in range(0, n_rows, rows):
            cells = _row_cells(matrix.values[start : start + rows])
            yield from (f"{i},{row}\n" for i, row in enumerate(cells, start))

    return write_text(path, _csv_chunks(["window", *range(n_cols)], lines(), rows))


def read_distmat_csv(path: Path, shape: tuple[int, int] | None = None) -> DistanceMatrix:
    """The matrix of a ``write_distmat_csv`` file; a matrix of another
    (test, train) ``shape`` than one given is a ``DataError``."""
    values = []
    with _csv_rows(path) as (header, rows):
        if header[:1] != ["window"]:
            raise ValueError("expected columns window,<train windows...>")
        for j, cell in enumerate(header[1:]):
            if int(cell) != j:
                raise ValueError(f"column of train window {cell} where window {j} is due")
        for row in rows:
            if int(row[0]) != len(values):
                raise ValueError(f"row of test window {row[0]} where window {len(values)} is due")
            values.append(entries := np.array(row[1:], dtype=float))
            if not ((entries >= 0) & np.isfinite(entries)).all():
                raise ValueError("distance entries must be finite and nonnegative")
    with _naming(path):
        matrix = DistanceMatrix(values)
        if shape is not None and matrix.values.shape != shape:
            raise ValueError(f"a matrix of shape {matrix.values.shape} where {shape} (test x train windows) is due")
        return matrix


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


def write_sweep_csv(entries: Sequence[KSweepEntry], path: Path) -> str:
    def metric(value) -> str:
        return "" if value is None else repr(float(value))

    lines = (f"{e.k},{metric(e.accuracy)},{metric(e.sensitivity)},{metric(e.specificity)}\n" for e in entries)
    return write_text(path, _csv_chunks(["k", "accuracy", "sensitivity", "specificity"], lines))


def write_report_json(report: EvaluationReport, path: Path) -> str:
    return write_json(path, report_to_dict(report))


def read_report_json(path: Path) -> EvaluationReport:
    payload = read_json(path)
    # Metrics are recomputed from the confusion matrix, so they stay exact.
    with _naming(path):
        return EvaluationReport.from_confusion(payload["classes"], payload["confusion"])
