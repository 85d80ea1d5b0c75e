"""Command-line interface.

One subcommand per pipeline stage plus ``run`` for the cached end-to-end
flow and ``plot-diagram`` for rendering.  Exit codes: 0 success, 1 usage
or configuration error, 2 data error, 3 numerical error, 4 file-system
error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import io
from .classify import TIE_BREAKS, render_report_table, render_sweep_table, sweep_k
from .distance import DistanceMatrix
from .errors import DataError, NumericalError
from .ingest import load_csv
from .pipeline import (
    CLI_FIELDS,
    PipelineConfig,
    augment_config,
    build_clouds,
    classify_windows,
    compute_diagrams,
    compute_distances,
    cut_windows,
    default_runs_root,
    describe_run,
    labels_by_split,
    parse_fields,
    run,
    standardize,
    write_report,
)
from .plot import write_diagram_plot
from .windowing import LABEL_RULES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_FILE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# The flags that override a config field: the name of a ``PipelineConfig``
# field or of ``CLI_FIELDS`` -> (flags, argparse settings).  A command takes
# only those of the fields its stages read.
_OVERRIDES = {
    "data": (["--data"], dict(help="input CSV (overrides the config's data)")),
    "window": (["-w", "--window"], dict(type=int, help="window length")),
    "stride": (["-s", "--stride"], dict(type=int, help="window stride")),
    "label_rule": (["--label-rule"], dict(choices=LABEL_RULES)),
    "offset": (["--offset"], dict(help='comma list or "auto"')),
    "anchors": (
        ["--anchor"],
        dict(action="append", metavar="ANCHOR", help='comma list (repeatable), "origin", or "none"'),
    ),
    "dimension": (["--dimension"], dict(type=int, help="homology dimension (0 or 1)")),
    "maxscale": (["--maxscale"], dict(type=float, help="filtration cap for dimension 1")),
    "p": (["--p"], dict(type=float, help="Wasserstein exponent")),
    "k": (["--k"], dict(type=int, help="number of neighbors")),
    "seed": (["--seed"], dict(type=int, help="recorded in provenance")),
    "train_split": (["--train-split"], {}),
    "test_split": (["--test-split"], {}),
    "tie_break": (["--tie-break"], dict(choices=TIE_BREAKS)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="topowin", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_: str, fields: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--config", type=Path, help="pipeline config JSON")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        for field in fields.split():
            flags, settings = _OVERRIDES[field]
            p.add_argument(*flags, dest=field, **settings)
        return p

    add("ingest", "load and validate a CSV series, fit its standardization", "data")

    p = add("windows", "cut a series into labeled windows", "window stride label_rule")
    p.add_argument("--series", type=Path, help="series CSV (from ingest)")

    p = add(
        "diagrams",
        "standardize, translate and anchor windows, compute persistence diagrams",
        "offset anchors dimension maxscale",
    )
    p.add_argument("--windows", type=Path, help="windows CSV")
    p.add_argument("--params", type=Path, help="standardization parameters JSON (from ingest)")

    p = add("distmat", "test x train Wasserstein distance matrix", "dimension maxscale p train_split test_split")
    p.add_argument("--diagrams", type=Path, help="diagrams CSV")
    p.add_argument("--windows", type=Path, help="windows CSV (window counts and labels)")

    p = add("classify", "k-NN prediction and evaluation report", "k train_split test_split tie_break")
    p.add_argument("--matrix", type=Path, help="distance matrix CSV")
    p.add_argument("--windows", type=Path, help="windows CSV (labels)")

    p = add("sweep-k", "evaluate several k values against one distance matrix", "train_split test_split")
    p.add_argument("--matrix", type=Path, help="distance matrix CSV")
    p.add_argument("--windows", type=Path, help="windows CSV (labels)")
    p.add_argument("--ks", default=None, help="comma list of k values")

    p = add(
        "run",
        "full cached pipeline: data CSV to evaluation report",
        "data window stride label_rule offset anchors dimension maxscale p k seed",
    )
    p.add_argument("--describe", action="store_true", help="print provenance of the finished run")
    p.add_argument("--no-cache", action="store_true", help="recompute every stage")

    p = sub.add_parser("plot-diagram", help="SVG scatter of a diagram file plus a CSV twin", allow_abbrev=False)
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--diagram", type=Path, help="diagram CSV (dim,birth,death[, keyed by window])")
    p.add_argument("--split", default=None, help="split to select in a long-format file")
    p.add_argument("--index", type=int, default=None, help="window to select in a long-format file")

    return parser


def _config(args) -> tuple[PipelineConfig, str | None]:
    """The pipeline config from ``--config`` with the flags applied over it,
    and the data path (``--data`` or the config's ``data``).  The offset and
    anchors are resolved here too, so a bad config fails before any output."""
    if args.config is None:
        raise ValueError(f"{args.command} needs --config")
    try:
        payload = io.read_json(args.config)
    except DataError as exc:  # a config file that is missing or not JSON is a usage error
        raise ValueError(str(exc)) from None
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: a config is one JSON object")
    payload.setdefault("run_id", Path(args.config).stem)
    for field in _OVERRIDES:
        value = getattr(args, field, None)  # None for a flag not given, or one the command does not take
        if value is not None:
            payload[field] = value[0] if field == "anchors" and value in (["origin"], ["none"]) else value
    cfg = PipelineConfig.from_dict(payload)
    augment_config(cfg)
    return cfg, parse_fields(payload, CLI_FIELDS)["data"]


def _out_dir(args) -> Path:
    """The output directory; the first write creates it, so a command
    that fails before writing leaves none behind."""
    return args.out if args.out is not None else Path("out")


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _cmd_ingest(args) -> int:
    cfg, data = _config(args)
    out = _out_dir(args)
    series = load_csv(Path(_require(data, "--data")), cfg.schema)
    params = standardize(series, cfg)
    io.write_series_csv(series, out / "series.csv")
    io.write_params_json(params, out / "params.json")
    print(f"wrote {out / 'series.csv'} and {out / 'params.json'} ({series.length} rows, d={series.dimension})")
    return EXIT_OK


def _cmd_windows(args) -> int:
    cfg, _ = _config(args)
    out = _out_dir(args)
    series = io.read_series_csv(_require(args.series, "--series"))
    windows = cut_windows(series, cfg)
    io.write_windows_csv(windows, series.channel_names, out / "windows.csv")
    counts = ", ".join(f"{name}: {len(wins)}" for name, wins in windows.items())
    print(f"wrote {out / 'windows.csv'} ({counts})")
    return EXIT_OK


def _cmd_diagrams(args) -> int:
    cfg, _ = _config(args)
    out = _out_dir(args)
    windows = io.read_windows_csv(_require(args.windows, "--windows"))
    clouds = build_clouds(windows, io.read_params_json(_require(args.params, "--params")), cfg)
    diagrams = compute_diagrams(clouds, cfg)
    io.write_clouds_csv(clouds, out / "clouds.csv")
    io.write_diagrams_csv(diagrams, out / "diagrams.csv")
    print(f"wrote {out / 'diagrams.csv'} (dimension {cfg.dimension})")
    return EXIT_OK


def write_distances(matrix: DistanceMatrix, diagrams_by_split: dict, cfg: PipelineConfig, path: Path) -> None:
    """The matrix CSV plus its JSON sidecar (same name, ``.json``), which
    records the config and content hashes of the diagrams it compares."""
    io.write_distmat_csv(matrix, path)
    train, test = cfg.train_split, cfg.test_split
    io.write_json(
        path.with_suffix(".json"),
        {
            "p": cfg.p,
            "dimension": cfg.dimension,
            "train_split": train,
            "test_split": test,
            "train_hash": io.diagram_set_hash({train: diagrams_by_split[train]}),
            "test_hash": io.diagram_set_hash({test: diagrams_by_split[test]}),
        },
    )


def _cmd_distmat(args) -> int:
    cfg, _ = _config(args)
    out = _out_dir(args)
    windows = io.read_windows_csv(_require(args.windows, "--windows"))
    counts = {name: len(wins) for name, wins in windows.items()}
    diagrams = io.read_diagrams_csv(_require(args.diagrams, "--diagrams"), counts, cfg.dimension)
    matrix = compute_distances(diagrams, cfg)
    write_distances(matrix, diagrams, cfg, out / "distmat.csv")
    rows, cols = matrix.values.shape
    print(f"wrote {out / 'distmat.csv'} ({rows} x {cols})")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg, _ = _config(args)
    out = _out_dir(args)
    labels = labels_by_split(io.read_windows_csv(_require(args.windows, "--windows")))
    train, test = (len(io.window_labels(labels, split)) for split in (cfg.train_split, cfg.test_split))
    matrix = io.read_distmat_csv(_require(args.matrix, "--matrix"), (test, train))
    print(write_report(classify_windows(matrix, labels, cfg), out))
    return EXIT_OK


def _cmd_sweep_k(args) -> int:
    cfg, _ = _config(args)
    ks = [int(v) for v in _require(args.ks, "--ks").split(",") if v.strip()]
    if not ks:
        raise ValueError("--ks needs at least one k")
    out = _out_dir(args)
    labels = labels_by_split(io.read_windows_csv(_require(args.windows, "--windows")))
    train_labels = io.window_labels(labels, cfg.train_split)
    test_labels = io.window_labels(labels, cfg.test_split)
    matrix = io.read_distmat_csv(_require(args.matrix, "--matrix"), (len(test_labels), len(train_labels)))
    entries = sweep_k(matrix, train_labels, test_labels, ks, cfg.tie_break)
    io.write_sweep_csv(entries, out / "sweep.csv")
    print(render_sweep_table(entries))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg, data = _config(args)
    report = run(
        cfg,
        Path(_require(data, "--data")),
        runs_root=args.out,
        use_cache=not args.no_cache,
    )
    print(render_report_table(report))
    if args.describe:
        prov = describe_run(cfg.run_id, default_runs_root(args.out))
        for stage in prov["stages"]:
            print(f"{stage['stage']}: {stage['status']} key={stage['key']} ({stage['duration_s']}s)")
    return EXIT_OK


def _cmd_plot_diagram(args) -> int:
    out = _out_dir(args)
    path = _require(args.diagram, "--diagram")
    keyed, points = io.read_diagram_points(path)
    suffix = ""
    if not keyed and (args.split is not None or args.index is not None):
        raise ValueError(f"{path} holds one diagram; --split and --index select in a long-format file")
    if keyed:
        splits = sorted({p[0] for p in points})
        split = args.split or next(iter(splits), "")
        if {"/", "\\"} & set(split):  # the split is part of the output file names
            raise ValueError(f"split '{split}' holds a '/' or '\\', so it cannot name an output file")
        if split not in splits:
            raise ValueError(f"no rows for split '{split}'; the file holds splits {splits}")
        rows = [p for p in points if p[0] == split]
        windows = sorted({p[1] for p in rows})
        index = windows[0] if args.index is None and len(windows) == 1 else args.index
        if index is None:
            raise ValueError(f"file holds {len(windows)} windows for split '{split}'; pick one with --index")
        if index < 0:
            raise ValueError(f"--index must be >= 0, got {index}")
        # Every cut window has a dimension-0 pair, as read_diagrams_csv requires.
        if index not in windows and {p[2] for p in rows} == {0}:
            raise ValueError(f"no rows for split '{split}' window {index} in a dimension-0 file")
        suffix = f"-{split}-{index}"
        points = [p[2:] for p in rows if p[1] == index]
    selected = sorted(points, key=lambda r: (r[0], r[2], r[1]))
    svg = out / f"diagram{suffix}.svg"
    twin = out / f"diagram{suffix}.csv"
    write_diagram_plot(selected, svg, twin)
    print(f"wrote {svg} and {twin} ({len(selected)} points)")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "windows": _cmd_windows,
    "diagrams": _cmd_diagrams,
    "distmat": _cmd_distmat,
    "classify": _cmd_classify,
    "sweep-k": _cmd_sweep_k,
    "run": _cmd_run,
    "plot-diagram": _cmd_plot_diagram,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One stderr line per warning, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _COMMANDS[args.command](args)
    except DataError as exc:
        return _fail("data error", exc, EXIT_DATA)
    except NumericalError as exc:
        return _fail("numerical error", exc, EXIT_NUMERICAL)
    except (ValueError, KeyError) as exc:
        return _fail("usage error", exc, EXIT_USAGE)
    except OSError as exc:
        return _fail("file error", exc, EXIT_FILE)


def _fail(category: str, exc: Exception, code: int) -> int:
    """Print ``exc`` as one stderr line, a line break in a value it quotes
    escaped, and return ``code``."""
    message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
    print(f"{category}: {message}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
