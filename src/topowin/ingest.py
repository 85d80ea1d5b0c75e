"""Loading, splitting and standardizing labeled multivariate time series.

A series is a matrix of feature rows indexed by strictly increasing
timestamps, with one integer class label per row.  Splits are named,
disjoint row ranges listed in temporal order; standardization is the
per-channel zero-mean/unit-variance transform with population variance.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
import numpy as np

from .errors import DataError, NumericalError

STANDARDIZE_MODES = ("fit_on_combined", "fit_on_train")


@dataclass(frozen=True)
class TimeSeries:
    """Labeled multivariate time series: one row of ``values`` per timestamp."""

    timestamps: np.ndarray  # (n,) float64, strictly increasing
    values: np.ndarray  # (n, d) float64, finite
    labels: np.ndarray  # (n,) int64
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)
        if vals.ndim != 2 or vals.shape[1] < 1:
            raise DataError("feature matrix must be 2-D with at least one channel")
        n, d = vals.shape
        if ts.shape != (n,) or labs.shape != (n,):
            raise DataError(
                f"length mismatch: {ts.shape[0]} timestamps, {n} value rows, "
                f"{labs.shape[0]} labels"
            )
        if len(self.channel_names) != d:
            raise DataError(f"{len(self.channel_names)} channel names for {d} channels")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argwhere(~np.isfinite(vals))[0][0])
            raise DataError(f"non-finite feature value at row {bad}")
        # Compared, not subtracted: the difference of two huge timestamps overflows.
        if n > 1 and np.any(not_after := ts[1:] <= ts[:-1]):
            raise DataError(f"timestamps not strictly increasing at row {int(np.argmax(not_after)) + 1}")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Row subrange [start, stop) as a new series that shares this
        series' arrays: its arrays are views, not copies."""
        if not (0 <= start < stop <= self.length):
            raise DataError(f"slice [{start}, {stop}) outside series of length {self.length}")
        return TimeSeries(
            timestamps=self.timestamps[start:stop],
            values=self.values[start:stop],
            labels=self.labels[start:stop],
            channel_names=self.channel_names,
        )


@dataclass(frozen=True)
class SplitRange:
    name: str
    start: int  # inclusive row index
    stop: int  # exclusive row index

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"split '{self.name}': empty or negative range [{self.start}, {self.stop})")


@dataclass(frozen=True)
class SplitSpec:
    """Named row ranges in temporal order; disjoint, each a contiguous block.

    Rows outside every range are unused.  Gaps between ranges are allowed.
    """

    boundaries: tuple[SplitRange, ...]

    def __post_init__(self) -> None:
        ranges = tuple(
            r if isinstance(r, SplitRange) else SplitRange(*r) for r in self.boundaries
        )
        object.__setattr__(self, "boundaries", ranges)
        if not ranges:
            raise ValueError("split spec needs at least one range")
        names = [r.name for r in ranges]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate split names: {names}")
        for prev, cur in zip(ranges, ranges[1:]):
            if cur.start < prev.stop:
                raise ValueError(
                    f"splits '{prev.name}' and '{cur.name}' overlap or break temporal order"
                )

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.boundaries)

    def validate_against(self, series: TimeSeries) -> None:
        last = self.boundaries[-1]
        if last.stop > series.length:
            raise DataError(
                f"split '{last.name}' ends at {last.stop} but series has {series.length} rows"
            )


@dataclass(frozen=True)
class StandardizationParams:
    """Per-channel means and population standard deviations."""

    means: np.ndarray  # (d,)
    standard_deviations: np.ndarray  # (d,), all > 0
    mode: str = "fit_on_combined"

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "standard_deviations", np.asarray(self.standard_deviations, dtype=float))
        if self.mode not in STANDARDIZE_MODES:
            raise ValueError(f"mode must be one of {STANDARDIZE_MODES}, got '{self.mode}'")
        if self.means.shape != self.standard_deviations.shape or self.means.ndim != 1:
            raise ValueError("means and standard deviations must be 1-D and the same length")
        if np.any(self.standard_deviations <= 0):
            bad = int(np.argmax(self.standard_deviations <= 0))
            raise NumericalError(f"non-positive standard deviation for channel {bad}")

    @property
    def dimension(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion: a timestamp column, one or more
    feature columns, and an integer label column."""

    timestamp: str
    features: tuple[str, ...]
    label: str
    delimiter: str = ","

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ValueError("schema needs at least one feature column")
        cols = (self.timestamp, *self.features, self.label)
        if len(set(cols)) != len(cols):
            raise ValueError(f"schema columns must be distinct, got {cols}")


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)


def parse_timestamp(text: str) -> float:
    """Numeric or ISO-format timestamp to float seconds (naive = UTC)."""
    stripped = text.strip()
    # float() takes no ':' and a '-' only first or right after an exponent's
    # e/E, so text it would refuse goes straight to the ISO parser.
    if ":" not in stripped:
        minus = stripped.rfind("-")
        if minus <= 0 or stripped[minus - 1] in "eE":
            try:
                return float(text)
            except ValueError:
                pass
    dt = datetime.fromisoformat(stripped)
    # A naive time is UTC: minus the naive epoch, it gives the same timedelta
    # as an aware copy would, without building that copy.
    return (dt - (_NAIVE_EPOCH if dt.tzinfo is None else _EPOCH)).total_seconds()


def _parse_label(text: str) -> int:
    try:
        label = int(text)  # exact beyond 2**53, where float would round
    except ValueError:
        label = float(text)
        if not label.is_integer():
            raise ValueError(f"label '{text}' is not an integer") from None
    if not -(2**63) <= label < 2**63:
        raise ValueError(f"label '{text}' is outside the int64 range")
    return int(label)


def _column_positions(path: Path, header: list[str], schema: CsvSchema) -> list[int]:
    """File column of the timestamp, each feature and the label, in that order."""
    header = [h.strip() for h in header]
    positions = []
    for col in (schema.timestamp, *schema.features, schema.label):
        if col not in header:
            raise DataError(f"{path}: missing column '{col}' (header: {header})")
        positions.append(header.index(col))
    return positions


_NON_BLANK = re.compile(rb"\S")


def _load_table(path: Path, raw: bytes, schema: CsvSchema):
    """Timestamps, values and labels parsed by numpy's C reader, or None.

    None sends the file to the row loop, which reports every error: a
    whitespace delimiter, quotes, carriage returns or NUL bytes (where
    ``csv`` may split cells or lines differently), a missing column, no data
    rows, any cell the C reader refuses, or any row the loop would reject.
    The C reader asks only that a row reach the last column it takes, so a
    row has the header's width when that column is the header's last and
    the delimiters add up.
    An ISO-date timestamp stops the float pass; a second pass converts the
    timestamps with ``parse_timestamp``.  Both parsers round decimals
    correctly and labels are taken only below 2**53 in magnitude, so an
    accepted file gives the loop's arrays bit for bit.
    """
    if schema.delimiter.isspace() or b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    end = raw.find(b"\n")
    if end < 0 or not _NON_BLANK.search(raw, end + 1):
        return None  # no data rows: numpy would only warn
    header = next(csv.reader([raw[:end].decode("utf-8-sig")], delimiter=schema.delimiter), [])
    try:
        cols = _column_positions(path, header, schema)
    except DataError:
        return None
    options = dict(delimiter=schema.delimiter, skiprows=1, comments=None, encoding="utf-8-sig")
    try:
        table = np.loadtxt(path, usecols=cols, ndmin=2, **options)
    except ValueError:
        try:
            table = np.loadtxt(path, usecols=cols, ndmin=2, converters={cols[0]: parse_timestamp}, **options)
        except ValueError:
            return None
    timestamps, labels = table[:, 0], table[:, -1]
    if not (
        max(cols) == len(header) - 1
        and raw.count(schema.delimiter.encode()) == (len(header) - 1) * (len(table) + 1)
        and np.isfinite(table).all()
        and (timestamps[1:] > timestamps[:-1]).all()
        and (labels == np.trunc(labels)).all()
        and (np.abs(labels) < 2.0**53).all()
    ):
        return None
    return timestamps.copy(), np.ascontiguousarray(table[:, 1:-1]), labels.astype(np.int64)


def _load_rows(path: Path, schema: CsvSchema):
    """Timestamps, values and labels parsed row by row with ``csv`` and ``float``.

    This loop raises every row error: it rejects all bad rows together, each
    named by the 1-based file line it ends on (``reader.line_num``).
    """
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file (no header row)") from None
        cols = _column_positions(path, header, schema)
        ts_col, *feature_cols, label_col = cols

        timestamps: list[float] = []
        rows: list[list[float]] = []
        labels: list[int] = []
        bad: list[tuple[int, str]] = []
        for record in reader:
            line = reader.line_num
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if len(record) != len(header):
                bad.append((line, f"{len(record)} fields, the header {len(header)}"))
                continue
            try:
                ts = parse_timestamp(record[ts_col])
                feats = [float(record[c]) for c in feature_cols]
                lab = _parse_label(record[label_col])
            except ValueError as exc:
                bad.append((line, str(exc)))
                continue
            if not all(map(math.isfinite, feats)) or not math.isfinite(ts):
                bad.append((line, "non-finite value"))
                continue
            if timestamps and ts <= timestamps[-1]:
                bad.append((line, f"timestamps not strictly increasing ({ts!r} after {timestamps[-1]!r})"))
                continue
            timestamps.append(ts)
            rows.append(feats)
            labels.append(lab)

    if bad:
        shown = "; ".join(f"line {ln}: {why}" for ln, why in bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise DataError(f"{path}: {len(bad)} malformed row(s): {shown}{more}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return (
        np.asarray(timestamps, dtype=float),
        np.asarray(rows, dtype=float),
        np.asarray(labels, dtype=np.int64),
    )


def load_csv(path: str | Path, schema: CsvSchema) -> TimeSeries:
    """Load and validate a labeled series from a headed CSV file: a run's
    input, or the series artifact it writes (``io.read_series_csv``).

    The file must be UTF-8; a leading byte-order mark is ignored.  A plain
    file (a one-character delimiter that is not whitespace, LF line ends,
    no quotes or NUL bytes) is parsed by numpy's C reader in one pass; one
    with ISO-date timestamps in a second pass that converts them with
    ``parse_timestamp``.  The C reader only accepts a file; every other one
    is parsed row by row with ``csv``, which raises every row error.  So both
    paths give the same arrays and the same errors.

    Rows with more or fewer cells than the header, unparseable or
    non-finite cells, a label that is not an integer in the int64 range, or
    a timestamp (number or ISO date) not above the last accepted row's are
    rejected; the error names the offending 1-based file lines.  Rows of
    blank cells are skipped.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    raw = path.read_bytes()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    parsed = _load_table(path, raw, schema)
    timestamps, values, labels = parsed if parsed is not None else _load_rows(path, schema)
    return TimeSeries(
        timestamps=timestamps,
        values=values,
        labels=labels,
        channel_names=schema.features,
    )


def fit_standardizer(
    series: TimeSeries,
    split: SplitSpec,
    mode: str = "fit_on_combined",
    train_name: str = "train",
) -> StandardizationParams:
    """Fit per-channel mean and population SD over the rows of the fitted
    ranges, taken in order.

    ``fit_on_combined`` fits every range of the split spec; ``fit_on_train``
    only the range named ``train_name``.  A channel with zero variance over
    the fitted rows is an error.
    """
    if mode not in STANDARDIZE_MODES:
        raise ValueError(f"mode must be one of {STANDARDIZE_MODES}, got '{mode}'")
    split.validate_against(series)
    ranges = [r for r in split.boundaries if mode == "fit_on_combined" or r.name == train_name]
    if not ranges:
        raise ValueError(f"no split named '{train_name}' (have {list(split.names())})")
    start, stop = ranges[0].start, ranges[-1].stop
    # Ranges with no gap between them are one slice, a view: a copy of the
    # rows here would set a cold run's peak memory.
    gapless = sum(r.stop - r.start for r in ranges) == stop - start
    sel = series.values[start:stop] if gapless else np.concatenate([series.values[r.start : r.stop] for r in ranges])
    # C order, as an index array gives it: the reduction's order, and so its
    # last bits, follow the layout.
    sel = np.ascontiguousarray(sel)
    means = sel.mean(axis=0)
    sds = sel.std(axis=0)  # ddof=0: population variance
    zero = np.flatnonzero(sds <= 0.0)
    if zero.size:
        names = ", ".join(series.channel_names[i] for i in zero)
        raise NumericalError(f"zero-variance channel(s) over fitted rows: {names}")
    return StandardizationParams(means=means, standard_deviations=sds, mode=mode)


def apply_standardizer(series: TimeSeries, params: StandardizationParams) -> TimeSeries:
    """Per-channel (x - mean) / sd; timestamps and labels pass through."""
    if params.dimension != series.dimension:
        raise DataError(
            f"standardizer has {params.dimension} channels, series has {series.dimension}"
        )
    transformed = (series.values - params.means) / params.standard_deviations
    return TimeSeries(
        timestamps=series.timestamps.copy(),
        values=transformed,
        labels=series.labels.copy(),
        channel_names=series.channel_names,
    )


def split_series(series: TimeSeries, split: SplitSpec) -> dict[str, TimeSeries]:
    """Slice the series into one sub-series per named range."""
    split.validate_against(series)
    return {r.name: series.slice(r.start, r.stop) for r in split.boundaries}
