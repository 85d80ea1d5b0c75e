"""End-to-end run: series -> windows -> standardized, translated and
anchored clouds -> diagrams -> distance matrix -> k-NN report, with
content-addressed caching per stage.

Each stage is one module-level function of its upstream values and the
``PipelineConfig``; ``run`` and the CLI stage commands both call them.
The windows hold the series' own rows; the clouds stage standardizes them
with the fitted parameters while it translates and anchors them.

Each stage's cache key hashes the stage's version (``io.STAGE_VERSION``),
the previous stage's key and the parameters that stage depends on, so
changing (say) only k reuses everything up to the distance matrix and
recomputes only the classification.  Each stage writes one artifact under
``<runs_root>/<run_id>/<stage>/<key>.<ext>``, next to the latest run's
provenance, and the artifact's SHA-256 beside it in ``<key>.<ext>.sha256``,
taken from the bytes as they were written.

A run serves the report from cache if it can, else the distance matrix,
else the diagrams, and computes every stage after the one it served.  A
stage is served when its artifact still hashes to its digest and its
reader accepts it.  The ingest, windows, standardize and clouds stages cost
less to compute than to read back, so they are never served: the series
and windows are cut from the data whenever the report is not served (it
needs the windows' labels), and the standardization and clouds are
computed when the diagrams are.  Their artifacts are written for the CLI
stage commands, and a computed stage rewrites its artifact only when it is
missing or fails its digest.  Provenance gives the reason an existing
artifact was replaced.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable

from . import io
from .classify import EvaluationReport, KnnConfig, evaluate, predict_all, render_report_table
from .distance import DistanceMatrix, WassersteinConfig, distance_matrix
from .errors import DataError, NumericalError
from .ingest import (
    STANDARDIZE_MODES,
    CsvSchema,
    SplitSpec,
    StandardizationParams,
    TimeSeries,
    fit_standardizer,
    load_csv,
    split_series,
)
from .persistence import ESSENTIAL_POLICIES, Diagrams, rips_persistence_dim0_batch, rips_persistence_dim1
from .pointcloud import AugmentConfig, augment_batch, resolve_anchors, resolve_offset
from .windowing import WindowConfig, make_windows, window_count

# Not called here: dimension 0 runs one batched pass per split, and the
# clouds stage standardizes, translates and anchors each split in one
# batched pass.  They stay importable from this module, where tracers look
# the layer functions up by name.
from .ingest import apply_standardizer
from .persistence import rips_persistence_dim0
from .pointcloud import augment

CACHE_ROOT_ENV = "TOPOWIN_CACHE_DIR"
PROVENANCE_FILE = "provenance.json"


def _json(kind, value, ok: Callable = lambda v: True):
    """``value`` itself if it is a JSON value of type ``kind`` (a bool is no
    number) for which ``ok`` holds; else a ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise TypeError(value)
    return value


def _number(value):
    """An int or a float as given (an int stays an int); an int too large
    for a float raises ``OverflowError``."""
    float(_json((int, float), value))
    return value


_integer = partial(_json, int)
_string = partial(_json, str)


def _point_spec(value, item: Callable = _number):
    """A comma list as the CLI gives it, or a JSON list of ``item``s."""
    return value if isinstance(value, str) else [item(v) for v in _json(list, value)]


def _split(row):
    """A split row: exactly ``[name, start, stop]``, a string and two integers."""
    name, start, stop = _json(list, row, ok=lambda r: len(r) == 3)
    return _string(name), _integer(start), _integer(stop)


def _key(parse: Callable, expected: str, default=MISSING, nullable: bool = False):
    """A config field read from its JSON value by ``parse``, which raises
    ``TypeError`` or ``OverflowError`` on a value of the wrong type: "config
    field '<name>' must be <expected>, got <value>".  A ``ValueError`` it
    raises is the field's own message.  A missing field is ``default``, or
    required if there is none; a null is None if ``nullable``, else of the
    wrong type."""
    return field(default=default, metadata={"parse": parse, "expected": expected, "nullable": nullable})


_SCHEMA = {
    "timestamp": _key(_string, "a string"),
    "features": _key(lambda v: tuple(map(_string, _json(list, v))), "a list of strings"),
    "label": _key(_string, "a string"),
    "delimiter": _key(partial(_json, str, ok=lambda c: len(c) == 1), "one character", ","),
}
# The input CSV's path: a config key that only the CLI reads.
CLI_FIELDS = {"data": _key(_string, "a string", None, nullable=True)}


def parse_fields(payload: dict, keys: dict, prefix: str = "") -> dict:
    """Each of ``keys`` (name -> dataclass field) read from ``payload``: by
    its ``_key`` parser if it has one, else as given."""
    values = {}
    for name, key in keys.items():
        label = prefix + name
        if name in payload:
            value = payload[name]
        elif name == "stride":  # defaults to the window
            value = values["window"]
        elif key.default is MISSING:
            raise ValueError(f"config field '{label}' is required")
        else:
            value = key.default
        meta = key.metadata
        if not meta or (value is None and meta["nullable"]):
            values[name] = value
        elif value is None:
            # A null reads "must be a number, got null" for every number field.
            expected = "a number" if meta["parse"] is _integer else meta["expected"]
            raise ValueError(f"config field '{label}' must be {expected}, got null")
        else:
            try:
                values[name] = meta["parse"](value)
            except (TypeError, OverflowError):
                raise ValueError(f"config field '{label}' must be {meta['expected']}, got {value!r}") from None
    return values


# Checked by ``__post_init__`` too: no config may lead a run out of its runs root.
_RUN_ID = _key(
    partial(_json, str, ok=lambda r: r not in ("", ".", "..") and not {"/", "\\"} & set(r)),
    "one directory name (not empty, '.' or '..'; no '/' or '\\')",
)


@dataclass(frozen=True)
class PipelineConfig:
    """One experiment: a field per key of the config file.  ``from_dict``
    reads a ``_key`` field with its parser and takes any other as given,
    null included, for ``__post_init__`` to check."""

    run_id: str = _RUN_ID
    schema: CsvSchema = _key(
        lambda v: CsvSchema(**parse_fields(_json(dict, v), _SCHEMA, "schema.")),
        "an object with timestamp, features and label",
    )
    splits: SplitSpec = _key(
        lambda rows: SplitSpec(tuple(map(_split, _json(list, rows)))),
        "a list of [name, start, stop] with a string name and integer bounds",
    )
    window: int = _key(_integer, "an integer")
    stride: int = _key(_integer, "an integer")
    label_rule: str = "any_positive"
    standardize: str = "fit_on_combined"
    offset: object = _key(_point_spec, '"auto", a list of numbers, a comma list or null', "auto", nullable=True)
    anchors: object = _key(
        partial(_point_spec, item=_point_spec),
        '"origin", "none", a comma list, a list of points or null',
        "origin",
        nullable=True,
    )
    dimension: int = _key(_integer, "an integer", 0)
    essential_policy: str = "dropped"
    maxscale: float | None = _key(_number, "a number or null", None, nullable=True)
    p: float = _key(lambda v: float(_number(v)), "a number", 1.0)
    k: int = _key(_integer, "an integer", 1)
    tie_break: str = "nearest_neighbor_label"
    train_split: str = "train"
    test_split: str = "test"
    seed: int = _key(_integer, "an integer", 0)

    def __post_init__(self) -> None:
        parse_fields({"run_id": self.run_id}, {"run_id": _RUN_ID})
        WindowConfig(self.window, self.stride, self.label_rule)  # validate
        if self.dimension not in (0, 1):
            raise ValueError(f"homology dimension must be 0 or 1, got {self.dimension}")
        if self.dimension == 1 and self.maxscale is None:
            raise ValueError("dimension 1 needs a maxscale")
        if self.essential_policy not in ESSENTIAL_POLICIES:
            raise ValueError(f"essential policy must be one of {ESSENTIAL_POLICIES}, got '{self.essential_policy}'")
        if self.essential_policy == "capped" and self.maxscale is None:
            raise ValueError("capped essential policy needs a maxscale")
        if self.maxscale is not None and not (math.isfinite(self.maxscale) and self.maxscale > 0):
            raise ValueError(f"maxscale must be positive and finite, got {self.maxscale!r}")
        if self.standardize not in STANDARDIZE_MODES:
            raise ValueError(f"standardize mode must be one of {STANDARDIZE_MODES}, got '{self.standardize}'")
        names = self.splits.names()
        if self.train_split not in names or self.test_split not in names:
            raise ValueError(
                f"train split '{self.train_split}' and test split '{self.test_split}' "
                f"must both be named in the split spec {list(names)}"
            )
        if self.train_split == self.test_split:
            raise ValueError("train and test splits must differ")
        KnnConfig(k=self.k, tie_break=self.tie_break)  # validate
        WassersteinConfig(p=self.p, dimension=self.dimension)

    def to_dict(self) -> dict:
        return {key.name: _plain(getattr(self, key.name)) for key in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        return cls(**parse_fields(payload, {key.name: key for key in fields(cls)}))


def _plain(value):
    """A field's value as the JSON it is read from: a schema as its object, a
    split spec as its rows, each other sequence but a string a list."""
    if isinstance(value, CsvSchema):
        return {name: _plain(getattr(value, name)) for name in _SCHEMA}
    if isinstance(value, SplitSpec):
        return [[r.name, r.start, r.stop] for r in value.boundaries]
    return value if value is None or isinstance(value, (str, int, float)) else [_plain(v) for v in value]


def default_runs_root(out: str | Path | None = None) -> Path:
    if out is not None:
        return Path(out)
    env = os.environ.get(CACHE_ROOT_ENV)
    return Path(env) if env else Path("runs")


# --- stages -----------------------------------------------------------------
# Each stage is one function of its upstream values and the config, called by
# ``run`` and by the CLI stage commands alike.


def standardize(series: TimeSeries, cfg: PipelineConfig) -> StandardizationParams:
    return fit_standardizer(series, cfg.splits, cfg.standardize, cfg.train_split)


def _each(values: dict, fn, name: str = "split '{}'") -> dict:
    """``fn`` of each value; a ``DataError`` or ``NumericalError`` names its
    key, formatted into ``name``."""
    out = {}
    for key, value in values.items():
        try:
            out[key] = fn(value)
        except (DataError, NumericalError) as exc:
            raise type(exc)(f"{name.format(key)}: {exc}") from None
    return out


def cut_windows(series: TimeSeries, cfg: PipelineConfig) -> dict:
    """The labeled windows of every split, one ``Windows`` each, cut from the
    series as it was read: standardizing is the clouds stage's work."""
    window = WindowConfig(cfg.window, cfg.stride, cfg.label_rule)
    return _each(split_series(series, cfg.splits), lambda part: make_windows(part, window))


def augment_config(cfg: PipelineConfig) -> AugmentConfig:
    """Offset and anchors resolved for the config's channel count."""
    d = len(cfg.schema.features)
    return AugmentConfig(resolve_offset(cfg.offset, d), resolve_anchors(cfg.anchors, d))


def build_clouds(windows_by_split: dict, params: StandardizationParams, cfg: PipelineConfig) -> dict:
    """Each split's windows standardized by ``params``, translated by the
    offset and anchored, in one batched pass per split: one (count, w + k, d)
    array each."""
    aug_cfg = augment_config(cfg)
    return _each(windows_by_split, lambda wins: augment_batch(wins, aug_cfg, params))


def compute_diagrams(clouds_by_split: dict, cfg: PipelineConfig) -> dict:
    """Each split's diagrams as one ``Diagrams``: in dimension 0 from one
    batched pass per split, in dimension 1 packed from each cloud's pairs.
    A ``DataError`` or ``NumericalError`` names its split and window."""
    if cfg.dimension == 0:
        return _each(clouds_by_split, lambda clouds: rips_persistence_dim0_batch(clouds, cfg.essential_policy, cfg.maxscale))

    def dim1(clouds) -> Diagrams:
        pairs = _each(dict(enumerate(clouds)), lambda cloud: rips_persistence_dim1(cloud, cfg.maxscale).pairs, "window {}")
        return Diagrams.from_pairs(1, list(pairs.values()))

    return _each(clouds_by_split, dim1)


def train_and_test(values_by_split: dict, cfg: PipelineConfig, what: str) -> tuple:
    """The config's train and test values from ``{split: value}``; a split
    missing from it is a ``DataError`` that calls the dict ``what``."""
    for name in (cfg.train_split, cfg.test_split):
        if name not in values_by_split:
            raise DataError(f"no split named '{name}' in {what} (have {sorted(values_by_split)})")
    return values_by_split[cfg.train_split], values_by_split[cfg.test_split]


def compute_distances(diagrams_by_split: dict, cfg: PipelineConfig) -> DistanceMatrix:
    train, test = train_and_test(diagrams_by_split, cfg, "diagrams")
    return distance_matrix(test, train, WassersteinConfig(p=cfg.p, dimension=cfg.dimension))


def split_labels(windows_by_split: dict, cfg: PipelineConfig) -> tuple[list[int], list[int]]:
    """The train and test windows' labels: all the classification reads of
    the windows."""
    train, test = train_and_test(windows_by_split, cfg, "windows")
    return train.labels.tolist(), test.labels.tolist()


def classify_windows(matrix: DistanceMatrix, train_labels: list, test_labels: list, cfg: PipelineConfig) -> EvaluationReport:
    """The k-NN report from the matrix and the train and test windows' labels."""
    predictions = predict_all(matrix, train_labels, KnnConfig(k=cfg.k, tie_break=cfg.tie_break))
    return evaluate(predictions, test_labels)


def write_report(report: EvaluationReport, directory: Path) -> str:
    """Write ``report.json`` and ``report.txt`` into ``directory``; returns the table."""
    io.write_report_json(report, directory / "report.json")
    table = render_report_table(report)
    io.write_text(directory / "report.txt", table + "\n")
    return table


# --- cached run ---------------------------------------------------------------


def _digest_path(path: Path) -> Path:
    return path.with_name(f"{path.name}.sha256")


def _miss_reason(path: Path) -> str | None:
    """None when the existing artifact ``path`` still holds the bytes whose
    SHA-256 was recorded beside it when it was written; else why it can be
    neither served nor kept: ``"unverified"`` (no readable digest beside it)
    or ``"corrupt"`` (its bytes do not hash to the digest)."""
    try:
        recorded = _digest_path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError):
        return "unverified"
    try:
        return None if recorded == io.sha256_file(path) + "\n" else "corrupt"
    except OSError:
        return "corrupt"


# The stages a run reads back from cache; it computes every other one.
_SERVED = ("diagrams", "distances", "classify")


def run(
    cfg: PipelineConfig,
    data: str | Path,
    runs_root: str | Path | None = None,
    use_cache: bool = True,
    workers: int = 1,
) -> EvaluationReport:
    """Run the pipeline and return the evaluation report.

    Every stage key is computed up front from the data hash and the config;
    the stages are then served or computed as the module docstring says.
    ``use_cache=False`` serves nothing and writes every artifact.  A
    computed stage writes only its value; the ``distmat`` JSON sidecar is
    the CLI's.  A file whose target already holds the same bytes is not
    rewritten, so a fully cached rerun, like a ``use_cache=False`` one over
    an existing run, replaces only ``provenance.json``.  The series is
    dropped before the clouds, the clouds before the distances and the
    diagrams before the classification.  ``workers`` is checked (>= 1) and
    otherwise unused: every stage runs in this process.  It stays only for
    ``perfbench/worker.py`` and ``record_reference.py``, which pass it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    data = Path(data)
    if not data.is_file():
        raise DataError(f"stage 'ingest': no such data file: {data}")
    run_dir = default_runs_root(runs_root) / cfg.run_id
    data_hash = io.sha256_file(data)
    cfg_dict = cfg.to_dict()
    aug_cfg = augment_config(cfg)
    counts = {r.name: window_count(r.stop - r.start, cfg.window, cfg.stride) for r in cfg.splits.boundaries}
    # Per stage in pipeline order: what its key hashes besides the key of
    # the stage before it, and its artifact's file name.
    stages = {
        "ingest": ({"data": data_hash, "schema": cfg_dict["schema"]}, "series.csv"),
        "windows": (
            {"splits": cfg_dict["splits"], "w": cfg.window, "s": cfg.stride, "rule": cfg.label_rule},
            "windows.csv",
        ),
        "standardize": (
            {"splits": cfg_dict["splits"], "mode": cfg.standardize, "train": cfg.train_split},
            "params.json",
        ),
        "clouds": (
            {"offset": [repr(v) for v in aug_cfg.offset], "anchors": [[repr(v) for v in a] for a in aug_cfg.anchors]},
            "clouds.csv",
        ),
        "diagrams": (
            {
                "dimension": cfg.dimension,
                "essential_policy": cfg.essential_policy,
                "maxscale": None if cfg.maxscale is None else repr(float(cfg.maxscale)),
            },
            "diagrams.csv",
        ),
        "distances": ({"p": repr(float(cfg.p)), "train": cfg.train_split, "test": cfg.test_split}, "distmat.csv"),
        "classify": ({"k": cfg.k, "tie_break": cfg.tie_break}, "report.json"),
    }
    keys, parent = {}, None
    for stage, (params, _) in stages.items():
        keys[stage] = parent = io.stage_key(stage, parent, params)
    paths = {stage: run_dir / stage / f"{keys[stage]}.{name}" for stage, (_, name) in stages.items()}
    done: dict[str, dict] = {}  # the provenance entries of the stages read or computed
    misses: dict[str, tuple | None] = {}  # see ``miss``

    def record(stage: str, status: str, seconds: float, reason: str | None = None) -> None:
        """``stage``'s provenance entry as ``provenance.json`` holds it.
        ``status`` is "computed", "cached" or "skipped"; ``reason``, why an
        existing artifact was recomputed (see ``miss``), is left out when
        there is none."""
        entry = dict(stage=stage, key=keys[stage], path=str(paths[stage]), status=status, duration_s=round(seconds, 6))
        done[stage] = entry if reason is None else {**entry, "reason": reason}

    def miss(stage: str) -> tuple | None:
        """None when ``stage``'s artifact stays as it is: caching is on and
        it passes its digest.  Else ``(reason, seconds)``: why an existing
        artifact is replaced (None if there is none to replace) and the
        time spent reading it.  Each artifact is checked once."""
        if stage not in misses:
            there = use_cache and paths[stage].exists()
            reason = _miss_reason(paths[stage]) if there else None
            misses[stage] = None if there and reason is None else (reason, 0.0)
        return misses[stage]

    def serve(stage: str, read: Callable):
        """``stage``'s value read from its artifact, or None on a miss."""
        if miss(stage) is not None:
            return None
        started = time.perf_counter()
        try:
            value = read(paths[stage])
        except (DataError, ValueError):
            # An artifact its reader rejects is a cache miss too.
            misses[stage] = ("unreadable", time.perf_counter() - started)
            return None
        record(stage, "cached", time.perf_counter() - started)
        return value

    def compute(stage: str, fn: Callable, write: Callable, *args):
        """``fn(*args)``, its errors named by ``stage``; ``write(value, path)``
        writes the artifact unless ``miss`` says it stays."""
        replaced = miss(stage)
        reason, spent = replaced or (None, 0.0)
        started = time.perf_counter() - spent
        try:
            value = fn(*args)
        except (DataError, NumericalError, ValueError) as exc:
            # Re-raise as the base class: subclasses such as
            # UnicodeDecodeError take other constructor arguments.
            base = next(t for t in (DataError, NumericalError, ValueError) if isinstance(exc, t))
            raise base(f"stage '{stage}': {exc}") from exc
        if replaced is not None:
            io.write_text(_digest_path(paths[stage]), write(value, paths[stage]) + "\n")
        record(stage, "computed", time.perf_counter() - started, reason)
        return value

    def cut() -> tuple[TimeSeries, dict]:
        """The series loaded from the data, and its windows.  When both
        artifacts are written, the windows' writer reuses the row text of
        the series' writer."""
        memo = {} if miss("ingest") and miss("windows") else None
        series = compute("ingest", lambda: load_csv(data, cfg.schema), lambda s, path: io.write_series_csv(s, path, memo))
        windows = compute(
            "windows", cut_windows, lambda w, path: io.write_windows_csv(w, cfg.schema.features, path, memo), series, cfg
        )
        return series, windows

    report = serve("classify", io.read_report_json)
    if report is None:
        windows = None
        shape = (counts[cfg.test_split], counts[cfg.train_split])
        matrix = serve("distances", lambda path: io.read_distmat_csv(path, shape))
        if matrix is None:
            diagrams = serve("diagrams", lambda path: io.read_diagrams_csv(path, counts, cfg.dimension))
            if diagrams is None:
                series, windows = cut()
                fitted = compute("standardize", standardize, io.write_params_json, series, cfg)
                del series
                clouds = compute("clouds", build_clouds, io.write_clouds_csv, windows, fitted, cfg)
                del fitted
                diagrams = compute("diagrams", compute_diagrams, io.write_diagrams_csv, clouds, cfg)
                del clouds
            matrix = compute("distances", compute_distances, io.write_distmat_csv, diagrams, cfg)
            del diagrams
        if windows is None:
            windows = cut()[1]
        # The windows go last, although only their labels are classified:
        # freeing their points before the diagrams raised the peak RSS of
        # perfbench's occ-warm workload by 0.1-0.5 MiB (5 batches, 2-core
        # x86-64 Linux), more than that metric's bound.
        report = compute("classify", classify_windows, io.write_report_json, matrix, *split_labels(windows, cfg), cfg)
        del matrix, windows

    # Stable convenience copies of the final report.
    write_report(report, run_dir)
    # A stage neither read nor computed is cached if it is served and its
    # artifact exists, else skipped.
    for stage in stages.keys() - done.keys():
        status = "cached" if stage in _SERVED and paths[stage].exists() else "skipped"
        record(stage, status, 0.0)
    io.write_json(
        run_dir / PROVENANCE_FILE,
        {
            "run_id": cfg.run_id,
            "config": cfg_dict,
            "data": str(data),
            "data_sha256": data_hash,
            "seed": cfg.seed,
            "stages": [done[stage] for stage in stages],
            "report": str(run_dir / "report.json"),
        },
    )
    return report


def describe_run(run_id: str, runs_root: str | Path | None = None) -> dict:
    """Provenance of the most recent run under this id: config, per-stage
    content hashes, computed/cached status and timings."""
    path = default_runs_root(runs_root) / run_id / PROVENANCE_FILE
    if not path.exists():
        raise DataError(f"unknown run '{run_id}' (no {path})")
    return io.read_json(path)
