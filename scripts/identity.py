#!/usr/bin/env python3
"""Check that the working tree gives the same outputs as another revision.

    python scripts/identity.py --against <rev>

The revision is exported with ``git archive`` into a temporary directory
(no worktree, so ``.git`` is left as it is).  The inputs are written once,
by this tree's ``perfbench/workloads.py`` and ``scripts/make_synthetic.py``,
and both trees read the same files.  Each case is a list of ``topowin``
commands, run in a fresh directory per tree by a subprocess with
``PYTHONPATH`` at that tree's ``src``.  After each command the two trees
must agree on its exit code, stdout and stderr, and on every file under the
case directory, byte for byte.  A ``provenance.json`` is compared without
its paths and stage durations, which differ between trees and between runs;
where it differs, each differing stage field is named with both values.

One JSON line is printed: ``identical``, the number of ``cases``, the
number of ``files`` compared (a file counts once per command after which it
was compared) and ``differences``, every difference found after every
command (empty when identical).  The exit code is 0 only when the outputs
are identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _provenance(data: bytes) -> dict:
    """A provenance record without the paths and durations of its run."""
    record = json.loads(data)
    record.pop("data", None)
    record.pop("report", None)
    for stage in record.get("stages", []):
        stage.pop("path", None)
        stage.pop("duration_s", None)
    return record


def _provenance_difference(x: bytes, y: bytes) -> str | None:
    """What differs between two provenance records besides paths and
    durations: each differing stage field as ``<stage> <field> <first> ->
    <second>``, or a summary when more than the stages' fields differ."""
    try:
        a, b = _provenance(x), _provenance(y)
    except ValueError:
        return "differs in more than paths and durations"
    stages_a, stages_b = a.pop("stages", []), b.pop("stages", [])
    if a != b or [s.get("stage") for s in stages_a] != [s.get("stage") for s in stages_b]:
        return "differs in more than paths, durations and stage fields"
    fields = [
        f"{s['stage']} {field} {s.get(field)!r} -> {t.get(field)!r}"
        for s, t in zip(stages_a, stages_b)
        for field in sorted(s.keys() | t.keys())
        if s.get(field) != t.get(field)
    ]
    return "; ".join(fields) or None


def _difference(name: str, x: bytes, y: bytes) -> str | None:
    """What differs between two versions of the file ``name``, or None."""
    if x == y:
        return None
    if Path(name).name == "provenance.json":
        return _provenance_difference(x, y)
    offset = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return f"differs at byte {offset}"


def compare_dirs(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, every difference) between two output directories.
    A file in only one of them, or with other bytes, is a difference; a
    ``provenance.json`` is compared without paths and durations."""
    files_a, files_b = ({p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} for d in (a, b))
    differences = [f"{name}: only in {'the first' if name in files_a else 'the second'} tree"
                   for name in sorted(files_a ^ files_b)]
    both = sorted(files_a & files_b)
    for name in both:
        if difference := _difference(name, (a / name).read_bytes(), (b / name).read_bytes()):
            differences.append(f"{name}: {difference}")
    return len(both), differences


def write_arem_standin(root: Path, seed: int = 5) -> None:
    """A seeded offline stand-in for the UCI AReM archive, normalized by
    ``scripts/fetch_arem.py`` into ``root/data/arem.csv`` and its configs:
    six RSS channels (mean and variance of three sensor pairs) read to two
    decimals, as the real files are, in instances of standing (class 0) and
    cycling (class 1).  Cycling has the wider spread, and both classes
    overlap."""
    rng = np.random.default_rng(seed)
    header = "# Columns: time,avg_rss12,var_rss12,avg_rss13,var_rss13,avg_rss23,var_rss23"
    archive = root / "arem.zip"
    root.mkdir(parents=True)
    with zipfile.ZipFile(archive, "w") as zf:
        for activity, spread in (("standing", 1.0), ("cycling", 1.25)):
            for number in range(1, 5):
                rows = int(rng.integers(90, 130))
                avg = 40.0 + rng.normal(0.0, spread, size=(rows, 3))
                var = np.abs(rng.normal(0.0, spread, size=(rows, 3)))
                values = np.stack([avg, var], axis=2).reshape(rows, 6)
                lines = [header]
                lines += (",".join([str(250 * t), *(f"{v:.2f}" for v in row)]) for t, row in enumerate(values))
                zf.writestr(f"ARem/{activity}/dataset{number}.csv", "\n".join(lines) + "\n")
    script = ROOT / "scripts" / "fetch_arem.py"
    args = [sys.executable, str(script), "--source", str(archive), "--root", str(root)]
    subprocess.run(args, check=True, capture_output=True)


def cases(inputs: Path) -> dict[str, list[tuple[str, list[str]]]]:
    """Write the inputs under ``inputs`` and return each case's steps,
    (name, topowin arguments)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    shapes = dict(workloads.WORKLOADS)
    # The paper's protocol: the occ-cold shape with its 200 test windows.
    shapes["protocol"] = dataclasses.replace(shapes["occ-cold"], name="protocol", n_test=200)
    sources = {}
    for name, seed in (("occ-cold", 1), ("occ-cold", 2), ("dim1-cold", 1), ("protocol", 1)):
        workload = shapes[name]
        config, data = inputs / f"{name}-{seed}.json", inputs / f"{name}-{seed}.csv"
        workloads.write_csv(data, seed, workload.rows)
        config.write_text(json.dumps(workload.config_dict(seed)), encoding="utf-8")
        sources[f"{name} seed {seed}"] = (str(config), str(data))
    # Dimension 0 with the essential class capped inside the deaths' range
    # (seed 1: median death 1.21, every window has one above 1.5), so the
    # distances re-sort each row.
    capped = inputs / "occ-cold-1-capped.json"
    payload = dict(shapes["occ-cold"].config_dict(1), essential_policy="capped", maxscale=1.5)
    capped.write_text(json.dumps(payload), encoding="utf-8")
    sources["occ-cold seed 1, capped"] = (str(capped), sources["occ-cold seed 1"][1])
    synthetic = inputs / "synthetic"
    script = ROOT / "scripts" / "make_synthetic.py"
    subprocess.run([sys.executable, str(script), "--root", str(synthetic)], check=True, capture_output=True)
    sources["make_synthetic"] = tuple(str(synthetic / sub) for sub in ("configs/synthetic.json", "data/synthetic.csv"))
    # The paper's second dataset: three splits, w = 5 and a d = 6 offset.
    arem = inputs / "arem"
    write_arem_standin(arem)
    for split in ("test", "validation"):
        sources[f"arem stand-in, {split}"] = (str(arem / f"configs/arem_{split}.json"), str(arem / "data/arem.csv"))

    def run(source: str, *flags: str) -> list[str]:
        config, data = sources[source]
        return ["run", "--config", config, "--data", data, "--out", "runs", *flags]

    out = {}
    for source in ("occ-cold seed 1", "occ-cold seed 2"):
        out[source] = [
            ("cold", run(source)),
            ("warm", run(source)),
            ("--no-cache", run(source, "--no-cache")),
            ("--k 7", run(source, "--k", "7")),
            ("--window 12 --stride 12", run(source, "--window", "12", "--stride", "12")),
            # Overlapping windows: the windows writer meets rows already in the memo.
            ("--window 10 --stride 4", run(source, "--window", "10", "--stride", "4")),
            ("--anchor none", run(source, "--anchor", "none")),
            ("--offset, two anchors", run(
                source, "--offset", "0.5,-1,2,0,3.25", "--anchor", "1,0,0,0,0", "--anchor", "0,0,-2,0,0.5",
            )),
        ]
    out["occ-cold seed 1, capped"] = [
        ("cold", run("occ-cold seed 1, capped")),
        ("warm", run("occ-cold seed 1, capped")),
        ("--p 2", run("occ-cold seed 1, capped", "--p", "2")),
    ]
    for source in ("dim1-cold seed 1", "make_synthetic"):
        out[source] = [("cold", run(source)), ("warm", run(source))]
    out["protocol seed 1"] = [
        ("cold", run("protocol seed 1")),
        ("warm", run("protocol seed 1")),
        ("--no-cache", run("protocol seed 1", "--no-cache")),
        ("--p 2", run("protocol seed 1", "--p", "2")),
        ("--dimension 1 --maxscale 3.0", run("protocol seed 1", "--dimension", "1", "--maxscale", "3.0")),
    ]

    out["arem stand-in"] = [
        ("cold", run("arem stand-in, test")),
        ("warm", run("arem stand-in, test")),
        ("validation as the test split", run("arem stand-in, validation")),
        ("--dimension 1 --maxscale 3.0", run("arem stand-in, test", "--dimension", "1", "--maxscale", "3.0")),
    ]

    config, data = sources["occ-cold seed 1"]
    dim1 = ["--config", config, "--dimension", "1", "--maxscale", "3.0"]
    out["cli chain, dimension 1, occ-cold seed 1"] = [
        ("ingest", ["ingest", "--config", config, "--data", data, "--out", "ingest"]),
        ("windows", ["windows", "--config", config, "--series", "ingest/series.csv", "--out", "windows"]),
        ("diagrams", [
            "diagrams", *dim1, "--windows", "windows/windows.csv", "--params", "ingest/params.json",
            "--out", "diagrams",
        ]),
        ("distmat", [
            "distmat", *dim1, "--diagrams", "diagrams/diagrams.csv", "--windows", "windows/windows.csv",
            "--out", "distmat",
        ]),
    ]
    labelled = ["--config", config, "--matrix", "distmat/distmat.csv", "--windows", "windows/windows.csv"]
    n_train = workloads.WORKLOADS["occ-cold"].n_train
    every_k = ",".join(str(k) for k in range(1, n_train + 1))
    out["cli chain, occ-cold seed 1"] = [
        ("ingest", ["ingest", "--config", config, "--data", data, "--out", "ingest"]),
        ("windows", ["windows", "--config", config, "--series", "ingest/series.csv", "--out", "windows"]),
        ("diagrams", [
            "diagrams", "--config", config, "--windows", "windows/windows.csv",
            "--params", "ingest/params.json", "--out", "diagrams",
        ]),
        ("distmat", [
            "distmat", "--config", config, "--diagrams", "diagrams/diagrams.csv",
            "--windows", "windows/windows.csv", "--out", "distmat",
        ]),
        ("distmat --p 2", [
            "distmat", "--config", config, "--diagrams", "diagrams/diagrams.csv",
            "--windows", "windows/windows.csv", "--p", "2", "--out", "distmat-p2",
        ]),
        ("classify", ["classify", *labelled, "--out", "classify"]),
        ("classify --tie-break lowest_class_id", [
            "classify", *labelled, "--tie-break", "lowest_class_id", "--out", "classify-lowest",
        ]),
        ("sweep-k, every k", ["sweep-k", *labelled, "--ks", every_k, "--out", "sweep"]),
        ("sweep-k, k above the train size", [
            "sweep-k", *labelled, "--ks", f"1,{n_train + 1}", "--out", "sweep-over",
        ]),
        ("sweep-k, k = 0", ["sweep-k", *labelled, "--ks", "0,5", "--out", "sweep-zero"]),
    ]
    return out


def _topowin(tree: Path, cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "TOPOWIN_CACHE_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    return subprocess.run([sys.executable, "-m", "topowin", *args], cwd=cwd, env=env, capture_output=True)


def compare_trees(base: Path, work: Path, steps_by_case: dict, out: Path) -> dict:
    """Run every case's steps in both trees, side by side, and collect every
    difference after each step."""
    files, differences = 0, []
    for case, steps in steps_by_case.items():
        dirs = (out / "base" / case, out / "work" / case)
        for d in dirs:
            d.mkdir(parents=True)
        for step, args in steps:
            x, y = (_topowin(tree, d, args) for tree, d in zip((base, work), dirs))
            streams = (("exit code", x.returncode, y.returncode), ("stdout", x.stdout, y.stdout),
                       ("stderr", x.stderr, y.stderr))
            found = [f"{name} differs" for name, p, q in streams if p != q]
            count, in_files = compare_dirs(*dirs)
            files += count
            differences += [f"{case}, {step}: {difference}" for difference in found + in_files]
    return {"identical": not differences, "cases": len(steps_by_case), "files": files, "differences": differences}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the working tree's outputs with a revision's.")
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="topowin-identity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.against], capture_output=True
        )
        if archive.returncode != 0:
            print(f"git archive {args.against}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        base = tmp / "base"
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        inputs = tmp / "inputs"
        inputs.mkdir()
        result = compare_trees(base, ROOT, cases(inputs), tmp / "out")
    print(json.dumps(result))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
