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
from .classify import render_report_table, render_sweep_table, sweep_k
from .distance import DistanceMatrix
from .errors import DataError, NumericalError
from .ingest import load_csv
from .pipeline import (
    PipelineConfig,
    augment_config,
    build_clouds,
    classify_windows,
    compute_diagrams,
    compute_distances,
    cut_windows,
    default_runs_root,
    describe_run,
    read_diagrams,
    run,
    standardize,
    write_report,
)
from .plot import write_diagram_plot

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


def _build_parser() -> _Parser:
    parser = _Parser(prog="topowin", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=Path, help="pipeline config JSON")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("-w", "--window", type=int, default=None, help="window length")
        p.add_argument("-s", "--stride", type=int, default=None, help="window stride")
        p.add_argument("--label-rule", default=None, choices=("any_positive", "majority"))
        p.add_argument("--offset", default=None, help='comma list or "auto"')
        p.add_argument(
            "--anchor",
            action="append",
            default=None,
            help='comma list (repeatable), "origin", or "none"',
        )
        p.add_argument("--dimension", type=int, default=None, help="homology dimension (0 or 1)")
        p.add_argument("--maxscale", type=float, default=None, help="filtration cap for dimension 1")
        p.add_argument("--p", type=float, default=None, help="Wasserstein exponent")
        p.add_argument("--k", type=int, default=None, help="number of neighbors")
        p.add_argument("--seed", type=int, default=None, help="recorded in provenance")
        return p

    p = add("ingest", "load and validate a CSV series, fit its standardization")
    p.add_argument("--data", type=Path, help="input CSV")

    p = add("windows", "cut a series into labeled windows")
    p.add_argument("--series", type=Path, help="series CSV (from ingest)")

    p = add("diagrams", "standardize, translate and anchor windows, compute persistence diagrams")
    p.add_argument("--windows", type=Path, help="windows CSV")
    p.add_argument("--params", type=Path, help="standardization parameters JSON (from ingest)")

    p = add("distmat", "test x train Wasserstein distance matrix")
    p.add_argument("--diagrams", type=Path, help="diagrams CSV")
    p.add_argument("--windows", type=Path, help="windows CSV (window counts and labels)")
    p.add_argument("--train-split", default=None)
    p.add_argument("--test-split", default=None)

    p = add("classify", "k-NN prediction and evaluation report")
    p.add_argument("--matrix", type=Path, help="distance matrix CSV")
    p.add_argument("--windows", type=Path, help="windows CSV (labels)")
    p.add_argument("--train-split", default=None)
    p.add_argument("--test-split", default=None)
    p.add_argument("--tie-break", default=None, choices=("nearest_neighbor_label", "lowest_class_id"))

    p = add("sweep-k", "evaluate several k values against one distance matrix")
    p.add_argument("--matrix", type=Path, help="distance matrix CSV")
    p.add_argument("--windows", type=Path, help="windows CSV (labels)")
    p.add_argument("--train-split", default=None)
    p.add_argument("--test-split", default=None)
    p.add_argument("--ks", default=None, help="comma list of k values")

    p = add("run", "full cached pipeline: data CSV to evaluation report")
    p.add_argument("--data", type=Path, help="input CSV (overrides config)")
    p.add_argument("--describe", action="store_true", help="print provenance of the finished run")
    p.add_argument("--no-cache", action="store_true", help="recompute every stage")

    p = sub.add_parser("plot-diagram", help="SVG scatter of a diagram file plus a CSV twin")
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
    overrides = {
        "data": getattr(args, "data", None),
        "window": args.window,
        "stride": args.stride,
        "label_rule": args.label_rule,
        "offset": args.offset,
        "anchors": args.anchor[0] if args.anchor in (["origin"], ["none"]) else args.anchor,
        "dimension": args.dimension,
        "maxscale": args.maxscale,
        "p": args.p,
        "k": args.k,
        "seed": args.seed,
        "train_split": getattr(args, "train_split", None),
        "test_split": getattr(args, "test_split", None),
        "tie_break": getattr(args, "tie_break", None),
    }
    for key, value in overrides.items():
        if value is not None:
            payload[key] = value
    cfg = PipelineConfig.from_dict(payload)
    augment_config(cfg)
    return cfg, payload.get("data")


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
    data = _require(data, "--data")
    out = _out_dir(args)
    series = load_csv(Path(data), cfg.schema)
    params = standardize(series, cfg)
    io.write_series_csv(series, out / "series.csv")
    io.write_params_json(params, out / "params.json")
    print(f"wrote {out / 'series.csv'} and {out / 'params.json'} ({series.length} rows, d={series.dimension})")
    return EXIT_OK


def _cmd_windows(args) -> int:
    cfg, _ = _config(args)
    series_path = _require(args.series, "--series")
    out = _out_dir(args)
    series = io.read_series_csv(series_path)
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
    diagrams = read_diagrams(_require(args.diagrams, "--diagrams"), counts, cfg)
    matrix = compute_distances(diagrams, cfg)
    write_distances(matrix, diagrams, cfg, out / "distmat.csv")
    rows, cols = matrix.values.shape
    print(f"wrote {out / 'distmat.csv'} ({rows} x {cols})")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg, _ = _config(args)
    out = _out_dir(args)
    matrix = io.read_distmat_csv(_require(args.matrix, "--matrix"))
    windows = io.read_windows_csv(_require(args.windows, "--windows"))
    print(write_report(classify_windows(matrix, windows, cfg), out))
    return EXIT_OK


def _cmd_sweep_k(args) -> int:
    cfg, _ = _config(args)
    ks = [int(v) for v in _require(args.ks, "--ks").split(",") if v.strip()]
    if not ks:
        raise ValueError("--ks needs at least one k")
    out = _out_dir(args)
    matrix = io.read_distmat_csv(_require(args.matrix, "--matrix"))
    windows = io.read_windows_csv(_require(args.windows, "--windows"))
    train_labels = io.window_labels(windows, cfg.train_split)
    test_labels = io.window_labels(windows, cfg.test_split)
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
    if keyed:
        keys = sorted({p[:2] for p in points})
        split = args.split or (keys[0][0] if keys else None)
        candidates = [k for k in keys if k[0] == split and args.index in (None, k[1])]
        if len(candidates) > 1:
            raise ValueError(
                f"file holds {len(candidates)} windows for split '{split}'; pick one with --index"
            )
        if candidates:
            suffix = f"-{candidates[0][0]}-{candidates[0][1]}"
        elif args.index is not None:
            suffix = f"-{split}-{args.index}"
        points = [p[2:] for p in points if candidates and p[:2] == candidates[0]]
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
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
