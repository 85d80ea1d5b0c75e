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
its paths and stage durations, which differ between trees and between runs.

One JSON line is printed: ``identical``, the number of ``cases``, the
number of ``files`` compared (a file counts once per command after which it
was compared) and ``first_difference`` (null when identical).  The exit
code is 0 only when the outputs are identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def _difference(name: str, x: bytes, y: bytes) -> str | None:
    """What differs between two versions of the file ``name``, or None."""
    if x == y:
        return None
    if Path(name).name == "provenance.json":
        try:
            if _provenance(x) == _provenance(y):
                return None
        except ValueError:
            pass
        return "differs in more than paths and durations"
    offset = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return f"differs at byte {offset}"


def compare_dirs(a: Path, b: Path) -> tuple[int, str | None]:
    """(files compared, the first difference or None) between two output
    directories.  A file in only one of them, or with other bytes, is a
    difference; a ``provenance.json`` is compared without paths and
    durations."""
    files_a, files_b = ({p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} for d in (a, b))
    if only := sorted(files_a ^ files_b):
        return 0, f"{only[0]}: only in {'the first' if only[0] in files_a else 'the second'} tree"
    for count, name in enumerate(sorted(files_a)):
        if difference := _difference(name, (a / name).read_bytes(), (b / name).read_bytes()):
            return count, f"{name}: {difference}"
    return len(files_a), None


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

    config, data = sources["occ-cold seed 1"]
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
    """Run every case's steps in both trees, side by side, up to the first
    difference."""
    result = {"identical": True, "cases": len(steps_by_case), "files": 0, "first_difference": None}
    for case, steps in steps_by_case.items():
        dirs = (out / "base" / case, out / "work" / case)
        for d in dirs:
            d.mkdir(parents=True)
        for step, args in steps:
            x, y = (_topowin(tree, d, args) for tree, d in zip((base, work), dirs))
            streams = (("exit code", x.returncode, y.returncode), ("stdout", x.stdout, y.stdout),
                       ("stderr", x.stderr, y.stderr))
            difference = next((f"{name} differs" for name, p, q in streams if p != q), None)
            if difference is None:
                count, difference = compare_dirs(*dirs)
                result["files"] += count
            if difference is not None:
                return dict(result, identical=False, first_difference=f"{case}, {step}: {difference}")
    return result


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
