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
recomputes only the classification.  Each stage writes one artifact, the
value it reads back, under ``<runs_root>/<run_id>/<stage>/<key>.<ext>``,
next to the latest run's provenance, and the artifact's SHA-256 beside it
in ``<key>.<ext>.sha256``, taken from the bytes as they were written.  A
cached artifact is served only when its bytes still hash to that digest;
provenance gives the reason an existing artifact was recomputed.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

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


@dataclass(frozen=True)
class PipelineConfig:
    run_id: str
    schema: CsvSchema
    splits: SplitSpec
    window: WindowConfig
    standardize_mode: str = "fit_on_combined"
    offset: object = "auto"  # "auto" or explicit vector
    anchors: object = "origin"  # "origin", "none", or explicit vectors
    dimension: int = 0
    essential_policy: str = "dropped"
    maxscale: float | None = None
    p: float = 1.0
    k: int = 1
    tie_break: str = "nearest_neighbor_label"
    train_split: str = "train"
    test_split: str = "test"
    seed: int = 0

    def __post_init__(self) -> None:
        one_directory = partial(_json, str, ok=lambda r: r not in ("", ".", "..") and not {"/", "\\"} & set(r))
        _field("run_id", self.run_id, one_directory, "one directory name (not empty, '.' or '..'; no '/' or '\\')")
        if self.dimension not in (0, 1):
            raise ValueError(f"homology dimension must be 0 or 1, got {self.dimension}")
        if self.dimension == 1 and self.maxscale is None:
            raise ValueError("dimension 1 needs a maxscale")
        if self.essential_policy not in ESSENTIAL_POLICIES:
            raise ValueError(f"essential policy must be one of {ESSENTIAL_POLICIES}, got '{self.essential_policy}'")
        if self.essential_policy == "capped" and self.maxscale is None:
            raise ValueError("capped essential policy needs a maxscale")
        if (self.dimension == 1 or self.essential_policy == "capped") and not (
            math.isfinite(self.maxscale) and self.maxscale > 0
        ):
            raise ValueError(f"maxscale must be positive and finite, got {self.maxscale!r}")
        if self.standardize_mode not in STANDARDIZE_MODES:
            raise ValueError(f"standardize mode must be one of {STANDARDIZE_MODES}, got '{self.standardize_mode}'")
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
        return {
            "run_id": self.run_id,
            "schema": {
                "timestamp": self.schema.timestamp,
                "features": list(self.schema.features),
                "label": self.schema.label,
                "delimiter": self.schema.delimiter,
            },
            "splits": [[r.name, r.start, r.stop] for r in self.splits.boundaries],
            "window": self.window.w,
            "stride": self.window.s,
            "label_rule": self.window.label_rule,
            "standardize": self.standardize_mode,
            "offset": _plain(self.offset),
            "anchors": _plain(self.anchors),
            "dimension": self.dimension,
            "essential_policy": self.essential_policy,
            "maxscale": self.maxscale,
            "p": self.p,
            "k": self.k,
            "tie_break": self.tie_break,
            "train_split": self.train_split,
            "test_split": self.test_split,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        def number(field, parse, default, expected="a number"):
            value = payload.get(field, default)
            # A null reads "must be a number, got null" for every number field.
            return _field(field, value, parse, "a number" if value is None else expected)

        def integer(field, default):
            return number(field, _integer, default, "an integer")

        def nullable(field, default, parse, expected):
            value = payload.get(field, default)
            return None if value is None else _field(field, value, parse, f"{expected} or null")

        for field in ("run_id", "schema", "splits", "window"):
            if field not in payload:
                raise ValueError(f"config field '{field}' is required")

        expected = "an object with timestamp, features and label"
        columns = _field("schema", payload["schema"], partial(_json, dict), expected)

        def column(key, parse, expected, default=None):
            if key not in columns and default is None:
                raise ValueError(f"config field 'schema.{key}' is required")
            return _field(f"schema.{key}", columns.get(key, default), parse, expected)

        schema = CsvSchema(
            column("timestamp", _string, "a string"),
            column("features", lambda v: tuple(map(_string, _json(list, v))), "a list of strings"),
            column("label", _string, "a string"),
            column("delimiter", partial(_json, str, ok=lambda c: len(c) == 1), "one character", ","),
        )
        splits = _field(
            "splits",
            payload["splits"],
            lambda rows: tuple(map(_split, _json(list, rows))),
            "a list of [name, start, stop] with a string name and integer bounds",
        )
        window = WindowConfig(
            w=integer("window", payload["window"]),
            s=integer("stride", payload["window"]),
            label_rule=payload.get("label_rule", "any_positive"),
        )
        return cls(
            run_id=payload["run_id"],
            schema=schema,
            splits=SplitSpec(splits),
            window=window,
            standardize_mode=payload.get("standardize", "fit_on_combined"),
            offset=nullable("offset", "auto", _point_spec, '"auto", a list of numbers, a comma list'),
            anchors=nullable(
                "anchors",
                "origin",
                partial(_point_spec, item=_point_spec),
                '"origin", "none", a comma list, a list of points',
            ),
            dimension=integer("dimension", 0),
            essential_policy=payload.get("essential_policy", "dropped"),
            maxscale=nullable("maxscale", None, _number, "a number"),
            p=number("p", lambda v: float(_number(v)), 1.0),
            k=integer("k", 1),
            tie_break=payload.get("tie_break", "nearest_neighbor_label"),
            train_split=payload.get("train_split", "train"),
            test_split=payload.get("test_split", "test"),
            seed=integer("seed", 0),
        )


def _json(kind, value, ok: Callable = lambda v: True):
    """``value`` itself if it is a JSON value of type ``kind`` (a bool is no
    number) for which ``ok`` holds; else a ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise TypeError(value)
    return value


_number = partial(_json, (int, float))  # an int stays an int
_integer = partial(_json, int)
_string = partial(_json, str)


def _point_spec(value, item: Callable = _number):
    """A comma list as the CLI gives it, or a JSON list of ``item``s."""
    return value if isinstance(value, str) else [item(v) for v in _json(list, value)]


def _plain(spec):
    """An offset or anchors spec as JSON: each sequence but a string a list."""
    return spec if spec is None or isinstance(spec, (str, int, float)) else [_plain(v) for v in spec]


def _split(row):
    """A split row: exactly ``[name, start, stop]``, a string and two integers."""
    name, start, stop = _json(list, row)
    return _string(name), _integer(start), _integer(stop)


def _field(name: str, value, parse: Callable, expected: str):
    """``parse(value)`` for config field ``name``; a null or ill-typed value,
    or one missing a key, raises ``ValueError`` naming the field."""
    if value is None:
        raise ValueError(f"config field '{name}' must be {expected}, got null")
    try:
        return parse(value)
    except KeyError as exc:
        raise ValueError(f"config field '{name}.{exc.args[0]}' is required") from None
    except (TypeError, ValueError, AttributeError, IndexError):
        raise ValueError(f"config field '{name}' must be {expected}, got {value!r}") from None


@dataclass(frozen=True)
class StageArtifact:
    stage: str
    key: str
    path: Path
    status: str  # "computed", "cached" or "skipped"
    duration_s: float
    # Why an existing artifact was recomputed: "unverified", "corrupt" or
    # "unreadable" (see ``_miss_reason``); None for any other stage.
    reason: str | None = None

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "key": self.key,
            "path": str(self.path),
            "status": self.status,
            "duration_s": self.duration_s,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def default_runs_root(out: str | Path | None = None) -> Path:
    if out is not None:
        return Path(out)
    env = os.environ.get(CACHE_ROOT_ENV)
    return Path(env) if env else Path("runs")


# --- stages -----------------------------------------------------------------
# Each stage is one function of its upstream values and the config, called by
# ``run`` and by the CLI stage commands alike.


def standardize(series: TimeSeries, cfg: PipelineConfig) -> StandardizationParams:
    return fit_standardizer(series, cfg.splits, cfg.standardize_mode, cfg.train_split)


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
    return _each(split_series(series, cfg.splits), lambda part: make_windows(part, cfg.window))


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


def compute_distances(diagrams_by_split: dict, cfg: PipelineConfig) -> DistanceMatrix:
    for name in (cfg.train_split, cfg.test_split):
        if name not in diagrams_by_split:
            raise DataError(f"no split named '{name}' in diagrams")
    return distance_matrix(
        diagrams_by_split[cfg.test_split],
        diagrams_by_split[cfg.train_split],
        WassersteinConfig(p=cfg.p, dimension=cfg.dimension),
    )


def classify_windows(
    matrix: DistanceMatrix, windows_by_split: dict, cfg: PipelineConfig
) -> EvaluationReport:
    train_labels = io.window_labels(windows_by_split, cfg.train_split)
    test_labels = io.window_labels(windows_by_split, cfg.test_split)
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
    SHA-256 was recorded beside it when it was written; else why it cannot
    be served: ``"unverified"`` (no readable digest beside it) or
    ``"corrupt"`` (its bytes do not hash to the digest)."""
    try:
        recorded = _digest_path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError):
        return "unverified"
    try:
        return None if recorded == io.sha256_file(path) + "\n" else "corrupt"
    except OSError:
        return "corrupt"


def _read_clouds(path: Path, shapes: dict) -> dict:
    """A cached clouds file, refused as unreadable when the squared
    coordinate spans of one of its clouds sum past the float range: a
    distance between that cloud's points may then overflow, and only the
    clouds built again from the windows tell whether the data make it so."""
    clouds_by_split = io.read_clouds_csv(path, shapes)
    with np.errstate(over="ignore"):
        for split, clouds in clouds_by_split.items():
            bound = np.isfinite(np.square(np.ptp(clouds, axis=1)).sum(axis=1))
            if not bound.all():
                raise DataError(f"{path}: split '{split}' window {bound.argmin()}: its squared coordinate spans overflow")
    return clouds_by_split


@dataclass(frozen=True)
class _Stage:
    params: dict  # what the stage key hashes besides the upstream stage's key
    filename: str
    inputs: tuple[str, ...]  # stages whose values ``compute`` takes
    compute: Callable  # (*inputs) -> value
    write: Callable  # (value, path) -> SHA-256 of the bytes written
    read: Callable  # (path) -> value


class _StageRunner:
    """Resolves stage values on demand.  A stage with a readable cached
    artifact is read; any other stage is computed from its inputs, which are
    resolved the same way first.  A stage nothing asks for is never touched.
    A value is dropped once every stage that lists it in ``inputs`` has
    resolved it, so a cold run frees the series before the clouds are
    built, the clouds before the distances and the diagrams before the
    classification.

    ``stages`` lists the stages in pipeline order: each key chains the one
    before it, so all keys are known before any stage runs."""

    def __init__(self, run_dir: Path, use_cache: bool, stages: dict[str, _Stage]) -> None:
        self.run_dir = run_dir
        self.use_cache = use_cache
        self.stages = stages
        self.keys: dict[str, str] = {}
        parent = None
        for stage, spec in stages.items():
            self.keys[stage] = parent = io.stage_key(stage, parent, spec.params)
        self.values: dict[str, object] = {}
        # Per stage, how many stages that list it have yet to resolve it.
        self.readers = Counter(s for spec in stages.values() for s in spec.inputs)
        self.artifacts: dict[str, StageArtifact] = {}

    def path(self, stage: str) -> Path:
        return self.run_dir / stage / f"{self.keys[stage]}.{self.stages[stage].filename}"

    def get(self, stage: str):
        if stage in self.values:
            return self.values[stage]
        spec, path = self.stages[stage], self.path(stage)
        spent, reason = 0.0, None
        if self.use_cache and path.exists() and (reason := _miss_reason(path)) is None:
            started = time.perf_counter()
            try:
                return self._done(stage, spec.read(path), "cached", started)
            except (DataError, ValueError):
                # An artifact its reader rejects is a cache miss too.
                spent, reason = time.perf_counter() - started, "unreadable"
        # Inputs are resolved before a stage's clock starts and outside its
        # error prefix, so each stage times and names only its own work.
        args = [self._input(s) for s in spec.inputs]
        started = time.perf_counter() - spent
        try:
            value = spec.compute(*args)
        except (DataError, NumericalError, ValueError) as exc:
            # Re-raise as the base class: subclasses such as
            # UnicodeDecodeError take other constructor arguments.
            base = next(t for t in (DataError, NumericalError, ValueError) if isinstance(exc, t))
            raise base(f"stage '{stage}': {exc}") from exc
        io.write_text(_digest_path(path), spec.write(value, path) + "\n")
        return self._done(stage, value, "computed", started, reason)

    def _input(self, stage: str):
        """``get(stage)`` for a stage that lists it in ``inputs``; the last
        such stage takes the value out of ``values``."""
        value = self.get(stage)
        self.readers[stage] -= 1
        if not self.readers[stage]:
            del self.values[stage]
        return value

    def _done(self, stage: str, value, status: str, started: float, reason: str | None = None):
        self.values[stage] = value
        duration = round(time.perf_counter() - started, 6)
        key, path = self.keys[stage], self.path(stage)
        self.artifacts[stage] = StageArtifact(stage, key, path, status, duration, reason)
        return value

    def provenance(self) -> list[StageArtifact]:
        """Every stage in pipeline order.  One that was neither read nor
        computed is ``cached`` if its artifact exists, else ``skipped``."""
        out = []
        for stage in self.stages:
            key, path = self.keys[stage], self.path(stage)
            status = "cached" if path.exists() else "skipped"
            out.append(self.artifacts.get(stage) or StageArtifact(stage, key, path, status, 0.0))
        return out


def run(
    cfg: PipelineConfig,
    data: str | Path,
    runs_root: str | Path | None = None,
    use_cache: bool = True,
    workers: int = 1,
) -> EvaluationReport:
    """Run the pipeline and return the evaluation report.

    Every stage key is computed up front from the data hash and the config.
    A stage is then read from its cached artifact when one exists, and read
    only if a stage that has to compute needs it, so a fully cached run reads
    just the report.  ``use_cache=False`` recomputes everything.  A computed
    stage writes only its value; the ``distmat`` JSON sidecar is the CLI's.
    A file whose target already holds the same bytes is not rewritten, so a
    fully cached rerun, like a ``use_cache=False`` one over an existing run,
    replaces only ``provenance.json``.  ``workers`` is checked (>= 1) and
    otherwise unused: every stage runs in this process.  It stays only for
    ``perfbench/worker.py`` and ``record_reference.py``, which pass it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    data = Path(data)
    if not data.exists():
        raise DataError(f"stage 'ingest': no such data file: {data}")
    run_dir = default_runs_root(runs_root) / cfg.run_id
    data_hash = io.sha256_file(data)
    cfg_dict = cfg.to_dict()
    aug_cfg = augment_config(cfg)
    counts = {r.name: window_count(r.stop - r.start, cfg.window.w, cfg.window.s) for r in cfg.splits.boundaries}
    # Row bytes to row text, kept from the series write to the windows write
    # when the windows (the series' own rows) are still to be written, so
    # their writer formats no row again.  The writers must not refer to
    # ``runner``: that cycle would keep a run's values alive after it returns.
    memo: dict | None = None

    def write_series(series: TimeSeries, path: Path) -> str:
        nonlocal memo
        memo = None if windows_cached else {}
        return io.write_series_csv(series, path, memo)

    def write_windows(wins: dict, path: Path) -> str:
        nonlocal memo
        digest = io.write_windows_csv(wins, cfg.schema.features, path, memo)
        memo = None
        return digest

    def shapes(n: int) -> dict:
        """What a cached windows (n = w) or clouds (n = w + k) file must hold."""
        return {name: (count, n, len(cfg.schema.features)) for name, count in counts.items()}

    runner = _StageRunner(
        run_dir,
        use_cache,
        {
            "ingest": _Stage(
                {"data": data_hash, "schema": cfg_dict["schema"]},
                "series.csv",
                (),
                lambda: load_csv(data, cfg.schema),
                write_series,
                io.read_series_csv,
            ),
            "windows": _Stage(
                {"splits": cfg_dict["splits"], "w": cfg.window.w, "s": cfg.window.s, "rule": cfg.window.label_rule},
                "windows.csv",
                ("ingest",),
                lambda series: cut_windows(series, cfg),
                write_windows,
                partial(io.read_windows_csv, shapes=shapes(cfg.window.w)),
            ),
            "standardize": _Stage(
                {"splits": cfg_dict["splits"], "mode": cfg.standardize_mode, "train": cfg.train_split},
                "params.json",
                ("ingest",),
                lambda series: standardize(series, cfg),
                io.write_params_json,
                io.read_params_json,
            ),
            "clouds": _Stage(
                {
                    "offset": [repr(v) for v in aug_cfg.offset],
                    "anchors": [[repr(v) for v in a] for a in aug_cfg.anchors],
                },
                "clouds.csv",
                ("windows", "standardize"),
                lambda wins, params: build_clouds(wins, params, cfg),
                io.write_clouds_csv,
                partial(_read_clouds, shapes=shapes(cfg.window.w + len(aug_cfg.anchors))),
            ),
            "diagrams": _Stage(
                {
                    "dimension": cfg.dimension,
                    "essential_policy": cfg.essential_policy,
                    "maxscale": None if cfg.maxscale is None else repr(float(cfg.maxscale)),
                },
                "diagrams.csv",
                ("clouds",),
                lambda clouds: compute_diagrams(clouds, cfg),
                io.write_diagrams_csv,
                lambda path: io.read_diagrams_csv(path, counts, cfg.dimension),
            ),
            "distances": _Stage(
                {
                    "p": repr(float(cfg.p)),
                    "train": cfg.train_split,
                    "test": cfg.test_split,
                },
                "distmat.csv",
                ("diagrams",),
                lambda diagrams: compute_distances(diagrams, cfg),
                io.write_distmat_csv,
                io.read_distmat_csv,
            ),
            "classify": _Stage(
                {"k": cfg.k, "tie_break": cfg.tie_break},
                "report.json",
                ("distances", "windows"),
                lambda matrix, wins: classify_windows(matrix, wins, cfg),
                io.write_report_json,
                io.read_report_json,
            ),
        },
    )
    windows_cached = use_cache and runner.path("windows").exists()
    report = runner.get("classify")

    # Stable convenience copies of the final report.
    write_report(report, run_dir)
    io.write_json(
        run_dir / PROVENANCE_FILE,
        {
            "run_id": cfg.run_id,
            "config": cfg_dict,
            "data": str(data),
            "data_sha256": data_hash,
            "seed": cfg.seed,
            "stages": [a.to_dict() for a in runner.provenance()],
            "report": str(run_dir / "report.json"),
        },
    )
    return report


def describe_run(run_id: str, runs_root: str | Path | None = None) -> dict:
    """Provenance of the most recent run under this id: config, per-stage
    content hashes, computed/cached status and timings."""
    root = default_runs_root(runs_root)
    path = root / run_id / PROVENANCE_FILE
    if not path.exists():
        raise DataError(f"unknown run '{run_id}' (no {path})")
    return io.read_json(path)
