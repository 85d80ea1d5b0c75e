import dataclasses
import importlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topowin import Diagrams, DistanceMatrix, describe_run, io
from topowin.cli import _OVERRIDES, main, write_distances
from topowin.io import read_json, write_json
from topowin.pipeline import CLI_FIELDS, PipelineConfig
from conftest import ROOT, load_script, synthetic_config_dict


@pytest.fixture
def config_path(tmp_path, synth_csv):
    payload = synthetic_config_dict("cli-synth", synth_csv, n_windows=100)
    path = tmp_path / "cli-synth.json"
    write_json(path, payload)
    return path


def read_lines(path):
    return Path(path).read_text(encoding="utf-8")


def chain_to_distmat(config_path, data, out):
    """The README stage chain ingest -> windows -> diagrams -> distmat into ``out``."""
    for argv in (
        ["ingest", "--data", data],
        ["windows", "--series", out / "series.csv"],
        ["diagrams", "--windows", out / "windows.csv", "--params", out / "params.json"],
        ["distmat", "--diagrams", out / "diagrams.csv", "--windows", out / "windows.csv"],
    ):
        assert main([*map(str, argv), "--config", str(config_path), "--out", str(out)]) == 0


class TestUsage:
    def test_no_arguments_prints_usage_nonzero(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_console_script_target(self, monkeypatch, capsys):
        # The function pyproject.toml installs as each console script: with no
        # command it prints usage and exits 1.
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        monkeypatch.setattr(sys, "argv", ["topowin"])
        for target in project["scripts"].values():
            module, _, function = target.partition(":")
            with pytest.raises(SystemExit) as exit_:
                getattr(importlib.import_module(module), function)()
            assert exit_.value.code == 1
            assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert main(["run", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_run_without_config(self, capsys):
        assert main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diagrams", "distmat", "classify", "sweep-k"])
    def test_stage_command_without_config(self, command, tmp_path, capsys):
        assert main([command, "--windows", str(tmp_path / "windows.csv"), "--out", str(tmp_path / "o")]) == 1
        assert "--config" in capsys.readouterr().err


# Each command accepts only the flags it uses.  A stage command takes the
# flags of the config fields its stage reads; run takes the ten of
# OVERRIDE_FLAGS and --data, the first of the other FIELD_FLAGS.
OVERRIDE_FLAGS = [
    ["-w", "5"], ["--window", "5"], ["-s", "5"], ["--stride", "5"], ["--label-rule", "majority"],
    ["--offset", "auto"], ["--anchor", "origin"], ["--dimension", "0"], ["--maxscale", "1"], ["--p", "1"],
    ["--k", "0"], ["--seed", "1"],
]
FIELD_FLAGS = [["--data", "d.csv"], ["--train-split", "train"], ["--test-split", "test"], ["--tie-break", "lowest_class_id"]]
CONFIG_FLAGS = [["--config", "c.json"], *OVERRIDE_FLAGS]
STAGE_FLAGS = {
    "ingest": {"--data"},
    "windows": {"-w", "--window", "-s", "--stride", "--label-rule"},
    "diagrams": {"--offset", "--anchor", "--dimension", "--maxscale"},
    "distmat": {"--dimension", "--maxscale", "--p", "--train-split", "--test-split"},
    "classify": {"--k", "--train-split", "--test-split", "--tie-break"},
    "sweep-k": {"--train-split", "--test-split"},
}
STAGE_COMMANDS = tuple(STAGE_FLAGS)
REMOVED_FLAGS = [
    *[
        (command, flag)
        for command in STAGE_COMMANDS
        for flag in [*OVERRIDE_FLAGS, *FIELD_FLAGS]
        if flag[0] not in STAGE_FLAGS[command]
    ],
    *[("run", flag) for flag in FIELD_FLAGS[1:]],
    ("run", ["--desc"]),  # a flag cut short is not taken for --describe
    *[(command, ["--no-cache"]) for command in STAGE_COMMANDS],
    *[(command, ["--workers", "2"]) for command in (*STAGE_COMMANDS, "run")],
    *[("plot-diagram", flag) for flag in [*CONFIG_FLAGS, ["--no-cache"], ["--workers", "2"]]],
]


@pytest.mark.parametrize(
    "command, flag", REMOVED_FLAGS, ids=[f"{command}{flag[0]}" for command, flag in REMOVED_FLAGS]
)
def test_flag_the_command_does_not_use_is_a_usage_error(command, flag, tmp_path, capsys):
    diagram = tmp_path / "diag.csv"
    diagram.write_text("dim,birth,death\n0,0.0,1.0\n", encoding="utf-8")
    argv = [command, *flag, "--out", str(tmp_path / "out")]
    if command == "plot-diagram":
        argv += ["--diagram", str(diagram)]
    assert main(argv) == 1
    assert f"usage error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_each_override_flag_sets_a_config_field():
    assert _OVERRIDES.keys() <= {key.name for key in dataclasses.fields(PipelineConfig)} | CLI_FIELDS.keys()


# (command, config fields, a flag it takes, the config fields that flag sets)
KEPT_FLAGS = [
    ("windows", {}, ["-w", "12"], {"window": 12}),
    ("windows", {}, ["--stride", "3"], {"stride": 3}),
    ("windows", {"stride": 5}, ["--label-rule", "any_positive"], {"label_rule": "any_positive"}),
    ("diagrams", {}, ["--offset", "0.5,-1,2"], {"offset": [0.5, -1, 2]}),
    ("diagrams", {}, ["--anchor", "none"], {"anchors": "none"}),
    ("diagrams", {"maxscale": 3.0}, ["--dimension", "1"], {"dimension": 1}),
    ("diagrams", {"dimension": 1, "maxscale": 3.0}, ["--maxscale", "0.5"], {"maxscale": 0.5}),
    ("distmat", {}, ["--p", "2"], {"p": 2.0}),
    ("distmat", {"maxscale": 3.0}, ["--dimension", "1"], {"dimension": 1}),
    ("distmat", {"dimension": 1}, ["--maxscale", "3"], {"maxscale": 3.0}),
    ("classify", {"stride": 5}, ["--k", "7"], {"k": 7}),  # with half-and-half windows, k matters
]


class TestKeptFlags:
    """Each override flag a stage command takes gives the files that the
    config field it overrides gives, and not the files of the config
    without it: other bytes, or for distmat a failure."""

    @staticmethod
    def outputs(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize(
        "command, base, flag, fields", KEPT_FLAGS, ids=[f"{c[0]} {' '.join(c[2])}" for c in KEPT_FLAGS]
    )
    def test_flag_changes_the_output(self, command, base, flag, fields, tmp_path, synth_csv):
        payload = dict(synthetic_config_dict("kept", synth_csv, n_windows=30), **base)
        flagged, configured = tmp_path / "flagged.json", tmp_path / "configured.json"
        write_json(flagged, payload)
        write_json(configured, dict(payload, **fields))
        stages = tmp_path / "stages"  # the command's inputs, made with the field in the config
        chain = {
            "ingest": ["--data", synth_csv],
            "windows": ["--series", stages / "series.csv"],
            "diagrams": ["--windows", stages / "windows.csv", "--params", stages / "params.json"],
            "distmat": ["--diagrams", stages / "diagrams.csv", "--windows", stages / "windows.csv"],
            "classify": ["--matrix", stages / "distmat.csv", "--windows", stages / "windows.csv"],
        }
        for stage, inputs in chain.items():
            if stage == command:
                break
            assert main([stage, "--config", str(configured), "--out", str(stages), *map(str, inputs)]) == 0
        argv = [command, *map(str, chain[command])]
        assert main([*argv, "--config", str(flagged), *flag, "--out", str(tmp_path / "by-flag")]) == 0
        assert main([*argv, "--config", str(configured), "--out", str(tmp_path / "by-config")]) == 0
        by_flag = self.outputs(tmp_path / "by-flag")
        assert by_flag == self.outputs(tmp_path / "by-config")
        if main([*argv, "--config", str(flagged), "--out", str(tmp_path / "plain")]) == 0:
            assert self.outputs(tmp_path / "plain") != by_flag
        else:  # the config alone cannot take these inputs (distmat --dimension, --maxscale)
            assert command == "distmat" and not (tmp_path / "plain").exists()


class TestAnchorFlag:
    @staticmethod
    def artifacts(root):
        """Every file of a run except its provenance (which holds timings)."""
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "provenance.json"
        }

    @pytest.mark.parametrize("keyword", ["origin", "none"])
    def test_keyword_equals_config_string(self, keyword, tmp_path, synth_csv):
        flagged = synthetic_config_dict("anchor", synth_csv, n_windows=30)
        flagged["anchors"] = [[1.0, 1.0, 1.0]]
        write_json(tmp_path / "flagged.json", flagged)
        write_json(tmp_path / "configured.json", dict(flagged, anchors=keyword))
        by_flag, by_config = tmp_path / "by-flag", tmp_path / "by-config"
        argv = ["run", "--config", str(tmp_path / "flagged.json"), "--out", str(by_flag)]
        assert main([*argv, "--anchor", keyword]) == 0
        assert main(["run", "--config", str(tmp_path / "configured.json"), "--out", str(by_config)]) == 0
        assert self.artifacts(by_flag) == self.artifacts(by_config)
        assert describe_run("anchor", by_flag)["config"] == describe_run("anchor", by_config)["config"]

    def test_keyword_mixed_with_vectors(self, tmp_path, config_path, capsys):
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "runs")]
        assert main([*argv, "--anchor", "origin", "--anchor", "1,2,3"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestStageCommands:
    def test_ingest_windows_diagrams_distmat_classify(self, tmp_path, config_path, synth_csv, capsys):
        out = tmp_path / "stages"
        assert main(["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["params.json", "series.csv"]

        assert main(["windows", "--config", str(config_path), "--series", str(out / "series.csv"), "--out", str(out)]) == 0
        assert (out / "windows.csv").exists()

        assert main([
            "diagrams",
            "--config", str(config_path),
            "--windows", str(out / "windows.csv"),
            "--params", str(out / "params.json"),
            "--out", str(out),
        ]) == 0
        assert (out / "clouds.csv").exists()
        assert (out / "diagrams.csv").exists()

        assert main([
            "distmat",
            "--config", str(config_path),
            "--diagrams", str(out / "diagrams.csv"),
            "--windows", str(out / "windows.csv"),
            "--out", str(out),
        ]) == 0
        assert (out / "distmat.csv").exists()
        sidecar = read_json(out / "distmat.json")
        assert sidecar["p"] == 1.0
        assert "train_hash" in sidecar and "test_hash" in sidecar

        assert main([
            "classify",
            "--config", str(config_path),
            "--matrix", str(out / "distmat.csv"),
            "--windows", str(out / "windows.csv"),
            "--out", str(out),
        ]) == 0
        report = read_json(out / "report.json")
        assert report["accuracy"] >= 0.95
        assert "Accuracy" in capsys.readouterr().out

    def test_sweep_k(self, tmp_path, config_path, synth_csv, capsys):
        out = tmp_path / "stages"
        chain_to_distmat(config_path, synth_csv, out)
        assert main([
            "sweep-k",
            "--config", str(config_path),
            "--matrix", str(out / "distmat.csv"),
            "--windows", str(out / "windows.csv"),
            "--ks", "1,3,5",
            "--out", str(out),
        ]) == 0
        text = read_lines(out / "sweep.csv")
        assert text.splitlines()[0] == "k,accuracy,sensitivity,specificity"
        assert len(text.splitlines()) == 4

    def test_sweep_k_over_every_k(self, tmp_path, config_path, synth_csv, capsys):
        out = tmp_path / "stages"
        chain_to_distmat(config_path, synth_csv, out)
        n = len(io.read_windows_csv(out / "windows.csv")["train"])
        assert n == 60
        assert main([
            "sweep-k",
            "--config", str(config_path),
            "--matrix", str(out / "distmat.csv"),
            "--windows", str(out / "windows.csv"),
            "--ks", ",".join(map(str, range(1, n + 1))),
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        rows = read_lines(tmp_path / "sweep" / "sweep.csv").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(1, n + 1)]

    def test_ingest_idempotent(self, tmp_path, config_path, synth_csv):
        out = tmp_path / "stages"
        args = ["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(out)]
        assert main(args) == 0
        first = {name: (out / name).read_bytes() for name in ("series.csv", "params.json")}
        assert main(args) == 0
        assert {name: (out / name).read_bytes() for name in first} == first

    def test_data_error_exit_code(self, tmp_path, config_path, capsys):
        missing = tmp_path / "absent.csv"
        code = main(["ingest", "--config", str(config_path), "--data", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_data_path_naming_a_directory(self, command, tmp_path, config_path, capsys):
        # Both commands read the data file the same way: a directory is no file.
        out = tmp_path / "o"
        assert main([command, "--config", str(config_path), "--data", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "windows"])
    def test_split_shorter_than_the_window_is_named(self, command, tmp_path, synth_csv, capsys):
        payload = synthetic_config_dict("short-split", synth_csv, n_windows=100)
        payload["splits"] = [["train", 0, 600], ["test", 600, 605]]
        config = tmp_path / "short.json"
        write_json(config, payload)
        if command == "run":
            argv = ["run", "--config", str(config), "--out", str(tmp_path / "runs")]
            prefix = "stage 'windows': "
        else:
            assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "ingest")]) == 0
            capsys.readouterr()
            series = tmp_path / "ingest" / "series.csv"
            argv = ["windows", "--config", str(config), "--series", str(series), "--out", str(tmp_path / "windows")]
            prefix = f"{series}: "
        assert main(argv) == 2
        message = "split 'test': series has 5 rows, shorter than window length 10"
        assert capsys.readouterr().err == f"data error: {prefix}{message}\n"

    def test_series_cut_short_is_named(self, tmp_path, config_path, synth_csv, capsys):
        stages = tmp_path / "stages"
        assert main(["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(stages)]) == 0
        series = stages / "series.csv"
        lines = series.read_text(encoding="utf-8").splitlines(keepends=True)
        series.write_text("".join(lines[:-50]), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["windows", "--config", str(config_path), "--series", str(series), "--out", str(out)]) == 2
        name, _, stop = read_json(config_path)["splits"][-1]
        message = f"split '{name}' ends at {stop} but series has {len(lines) - 51} rows"
        assert capsys.readouterr().err == f"data error: {series}: {message}\n"
        assert not out.exists()

    def test_unreadable_series_is_named_once(self, tmp_path, config_path, synth_csv, capsys):
        stages = tmp_path / "stages"
        assert main(["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(stages)]) == 0
        series = stages / "series.csv"
        series.write_text(series.read_text(encoding="utf-8") + "x,1,2,3,0\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["windows", "--config", str(config_path), "--series", str(series), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {series}: 1 malformed row(s): ")
        assert err.count(str(series)) == 1

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_non_utf8_data_exit_code(self, command, tmp_path, config_path, synth_csv, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(synth_csv.read_bytes().replace(b"\n1.0,", b"\n1.0\xe9,", 1))
        offset = data.read_bytes().index(b"\xe9")
        argv = [command, "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        prefix = "data error: stage 'ingest': " if command == "run" else "data error: "
        assert err == f"{prefix}{data}: not UTF-8 text at byte {offset} (invalid continuation byte)\n"

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_label_outside_int64_exit_code(self, command, tmp_path, config_path, synth_csv, capsys):
        header, first, *rest = synth_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        data = tmp_path / "big_label.csv"
        data.write_text(header + first.rsplit(",", 1)[0] + ",1e20\n" + "".join(rest), encoding="utf-8")
        argv = [command, "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "line 2: label '1e20' is outside the int64 range" in err

    def test_numerical_error_exit_code(self, tmp_path, config_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text(
            "timestamp,f0,f1,f2,label\n" + "".join(
                f"{i},5.0,{i}.0,{i}.5,0\n" for i in range(1000)
            ),
            encoding="utf-8",
        )
        code = main(["ingest", "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_fit_that_overflows_is_one_line_naming_the_channel(self, tmp_path, config_path, capsys):
        # f0's sum over the fitted rows overflows, so its mean and SD do.
        data = tmp_path / "huge.csv"
        rows = "".join(f"{i},{1.6e308 if i % 2 else 1.7e308!r},{i}.0,{i}.5,{i // 10 % 2}\n" for i in range(1000))
        data.write_text("timestamp,f0,f1,f2,label\n" + rows, encoding="utf-8")
        argv = ["run", "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "runs")]
        assert main(argv) == 3
        message = "channel(s) with a non-finite mean or standard deviation over fitted rows: f0"
        assert capsys.readouterr().err == f"numerical error: stage 'standardize': {message}\n"


    @pytest.mark.parametrize("command", ["run", "diagrams"])
    def test_dim0_distance_overflow_is_a_numerical_error(self, command, tmp_path, capsys):
        data, config = overflow_inputs(tmp_path)
        common = ["--config", str(config), "--out", str(tmp_path / "o")]
        if command == "run":
            argv, prefix = ["run", "--data", str(data), *common], "stage 'diagrams': "
        else:
            assert main(["ingest", "--data", str(data), *common]) == 0
            assert main(["windows", "--series", str(tmp_path / "o" / "series.csv"), *common]) == 0
            capsys.readouterr()
            argv = ["diagrams", "--windows", str(tmp_path / "o" / "windows.csv")]
            argv += ["--params", str(tmp_path / "o" / "params.json"), *common]
            prefix = ""
        assert main(argv) == 3
        message = "split 'test': window 2: a distance between its points is inf, not a finite float"
        assert capsys.readouterr().err == f"numerical error: {prefix}{message}\n"

    def test_rerun_over_its_clouds_is_the_same_numerical_error(self, tmp_path, capsys):
        # The first run writes the clouds before the diagrams stage fails;
        # the second refuses them as unreadable and fails as the first did.
        data, config = overflow_inputs(tmp_path)
        argv = ["run", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "o")]
        message = "split 'test': window 2: a distance between its points is inf, not a finite float"
        for _ in range(2):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"numerical error: stage 'diagrams': {message}\n"
        assert list((tmp_path / "o" / "big" / "clouds").glob("*.clouds.csv"))

    def test_dim1_distance_overflow_is_a_numerical_error(self, tmp_path, capsys):
        # An overflowed edge is not one above the cap: the run fails, with no warning line.
        data, config = overflow_inputs(tmp_path)
        argv = ["run", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "o")]
        assert main([*argv, "--dimension", "1", "--maxscale", "3.0"]) == 3
        message = "split 'test': window 2: a distance between its points is inf, not a finite float"
        assert capsys.readouterr().err == f"numerical error: stage 'diagrams': {message}\n"

    @pytest.mark.parametrize("command", ["run", "distmat"])
    def test_dim0_distance_power_overflow_is_a_numerical_error(self, command, tmp_path, capsys):
        # Test window 2 has deaths near 1e100, finite, whose 4th powers overflow.
        data, config = overflow_inputs(tmp_path, big={52: (1e100, None)})
        common = ["--config", str(config), "--out", str(tmp_path / "o")]
        if command == "run":
            argv, prefix = ["run", "--data", str(data), *common, "--p", "4"], "stage 'distances': "
        else:
            out = tmp_path / "o"
            assert main(["ingest", "--data", str(data), *common]) == 0
            assert main(["windows", "--series", str(out / "series.csv"), *common]) == 0
            assert main(["diagrams", "--windows", str(out / "windows.csv"), "--params", str(out / "params.json"), *common]) == 0
            capsys.readouterr()
            argv = ["distmat", "--diagrams", str(out / "diagrams.csv"), "--windows", str(out / "windows.csv"), *common]
            argv, prefix = [*argv, "--p", "4"], ""
        assert main(argv) == 3
        message = "test window 2: a distance overflows a float at p = 4.0"
        assert capsys.readouterr().err == f"numerical error: {prefix}{message}\n"

    def test_dim1_distance_power_overflow_is_a_numerical_error(self, tmp_path, capsys):
        # Test window 2 holds a square of side 1e100: a cycle whose matching
        # cost to 4th power overflows a Python float.
        square = {50: (0.0, 0.0), 51: (1e100, 0.0), 52: (1e100, 1e100), 53: (0.0, 1e100)}
        data, config = overflow_inputs(tmp_path, big=square)
        argv = ["run", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "o"), "--p", "4"]
        assert main([*argv, "--dimension", "1", "--maxscale", "1e150"]) == 3
        message = "test window 2: a distance overflows a float at p = 4.0"
        assert capsys.readouterr().err == f"numerical error: stage 'distances': {message}\n"

    def test_dim1_diagram_error_names_its_split_and_window(self, tmp_path, capsys):
        # Two-point windows without anchors are clouds too small for dimension 1.
        data, config = overflow_inputs(tmp_path, window=2, anchors="none")
        argv = ["run", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "o")]
        assert main([*argv, "--dimension", "1", "--maxscale", "3.0"]) == 2
        message = "split 'train': window 0: dimension-1 persistence needs at least 3 points, got 2"
        assert capsys.readouterr().err == f"data error: stage 'diagrams': {message}\n"


def overflow_inputs(tmp_path, window=5, big=None, **extra):
    """60 rows in two channels, standardized on train; by default test row 52
    holds 1e160, so a squared difference in the test window holding it
    overflows (window 2 at w = 5).  ``big`` maps rows to other (a, b) values,
    None for a channel's usual one."""
    data, config = tmp_path / "big.csv", tmp_path / "big.json"
    big = {52: (1e160, None)} if big is None else big
    rows = []
    for i in range(60):
        a, b = big.get(i, (None, None))
        rows.append(f"{i},{float(i % 7) if a is None else a!r},{i % 5 + 0.5 if b is None else b!r},{i % 2}\n")
    data.write_text("timestamp,a,b,label\n" + "".join(rows), encoding="utf-8")
    write_json(config, {
        "run_id": "big", "schema": {"timestamp": "timestamp", "features": ["a", "b"], "label": "label"},
        "splits": [["train", 0, 40], ["test", 40, 60]], "window": window, "stride": window,
        "standardize": "fit_on_train", "k": 1, **extra,
    })
    return data, config


class TestStagesMatchRun:
    @pytest.mark.parametrize(
        "extra", [{}, {"dimension": 1, "maxscale": 8.0, "k": 3}], ids=["dim0", "dim1"]
    )
    def test_stage_outputs_equal_run_artifacts(self, tmp_path, synth_csv, extra, capsys):
        payload = synthetic_config_dict("match", synth_csv, n_windows=30)
        payload.update(extra)
        config = tmp_path / "match.json"
        write_json(config, payload)
        root, out = tmp_path / "runs", tmp_path / "stages"
        assert main(["run", "--config", str(config), "--out", str(root)]) == 0
        table = capsys.readouterr().out
        for command, *argv in (
            ["ingest", "--data", synth_csv],
            ["windows", "--series", out / "series.csv"],
            ["diagrams", "--windows", out / "windows.csv", "--params", out / "params.json"],
            ["distmat", "--diagrams", out / "diagrams.csv", "--windows", out / "windows.csv"],
            ["classify", "--matrix", out / "distmat.csv", "--windows", out / "windows.csv"],
        ):
            argv = [command, "--config", str(config), "--out", str(out), *map(str, argv)]
            assert main(argv) == 0
            printed = capsys.readouterr().out
        assert printed == table  # classify's, the last
        run_dir = root / "match"
        for name, pattern in {
            "series.csv": "ingest/*.series.csv",
            "params.json": "standardize/*.params.json",
            "windows.csv": "windows/*.windows.csv",
            "clouds.csv": "clouds/*.clouds.csv",
            "diagrams.csv": "diagrams/*.diagrams.csv",
            "distmat.csv": "distances/*.distmat.csv",
            "report.json": "report.json",
            "report.txt": "report.txt",
        }.items():
            (artifact,) = run_dir.glob(pattern)
            assert (out / name).read_bytes() == artifact.read_bytes(), name
        # Neither writes a standardized series: the clouds stage standardizes.
        assert not (out / "standardized.csv").exists()
        # The run writes the matrix alone; the sidecar comes from distmat only.
        assert not list(run_dir.glob("distances/*.json"))
        cfg = PipelineConfig.from_dict(payload)
        (matrix,) = run_dir.glob("distances/*.distmat.csv")
        (diagrams,) = run_dir.glob("diagrams/*.diagrams.csv")
        windows = io.read_windows_csv(next(run_dir.glob("windows/*.windows.csv")))
        counts = {name: len(wins) for name, wins in windows.items()}
        diagrams = io.read_diagrams_csv(diagrams, counts, cfg.dimension)
        write_distances(io.read_distmat_csv(matrix), diagrams, cfg, tmp_path / "sidecar.csv")
        assert (out / "distmat.json").read_bytes() == (tmp_path / "sidecar.json").read_bytes()


class TestRunCommand:
    def test_run_and_describe(self, tmp_path, config_path, synth_csv, capsys):
        root = tmp_path / "runs"
        code = main(["run", "--config", str(config_path), "--out", str(root), "--describe"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
        assert "classify: computed" in out
        assert (root / "cli-synth" / "report.json").exists()

    def test_readme_quickstart(self, tmp_path, monkeypatch, capsys):
        # scripts/make_synthetic.py, then the run from the root it wrote.
        assert load_script("make_synthetic").main(["--root", str(tmp_path)]) == 0
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TOPOWIN_CACHE_DIR", raising=False)  # the runs root is ./runs
        capsys.readouterr()
        assert main(["run", "--config", "configs/synthetic.json", "--describe"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("1.0000")  # the table row: accuracy first

    def test_run_cached_then_no_cache_identical(self, tmp_path, config_path, capsys):
        root = tmp_path / "runs"
        assert main(["run", "--config", str(config_path), "--out", str(root)]) == 0
        first = (root / "cli-synth" / "report.json").read_bytes()
        assert main(["run", "--config", str(config_path), "--out", str(root), "--no-cache"]) == 0
        assert (root / "cli-synth" / "report.json").read_bytes() == first

    def test_k_override_changes_config(self, tmp_path, config_path, capsys):
        root = tmp_path / "runs"
        assert main(["run", "--config", str(config_path), "--out", str(root), "--k", "3"]) == 0
        from topowin import describe_run

        assert describe_run("cli-synth", root)["config"]["k"] == 3

    def test_null_offset_and_anchors(self, tmp_path, synth_csv):
        reports = []
        for name, fields in (("null", {"offset": None, "anchors": None}), ("named", {"anchors": "none"})):
            payload = synthetic_config_dict(name, synth_csv, n_windows=30)
            payload.update(fields)
            path = tmp_path / f"{name}.json"
            write_json(path, payload)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 0
            reports.append((tmp_path / "runs" / name / "report.json").read_bytes())
        assert describe_run("null", tmp_path / "runs")["config"]["anchors"] is None
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("field", ["window", "stride", "k", "p", "dimension", "seed"])
    def test_null_number_field_is_a_usage_error(self, tmp_path, synth_csv, field, capsys):
        payload = synthetic_config_dict("null-field", synth_csv, n_windows=30)
        payload[field] = None
        path = tmp_path / "null-field.json"
        write_json(path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 1
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", [5]),
            ("k", {"a": 1}),
            ("p", [1]),
            ("splits", None),
            ("schema", None),
            ("maxscale", [1]),
            ("maxscale", "3"),
            ("maxscale", {"a": 1}),
            ("k", 2.7),
            ("window", 5.9),
            ("stride", 10.0),
            ("k", "5"),
            ("seed", "3"),
            ("k", True),
            ("dimension", False),
            ("splits", [["train", 0.5, 600], ["test", 600, 1000]]),
            ("splits", [["train", 0, 600], ["test", 600, 10.9]]),
            ("splits", [["train", "0", 600], ["test", 600, 1000]]),
            ("p", True),
            ("p", "2"),
            ("maxscale", True),
            ("data", 5),
        ],
    )
    def test_ill_typed_field_is_a_usage_error(self, tmp_path, synth_csv, field, value, capsys):
        payload = synthetic_config_dict("bad-field", synth_csv, n_windows=30)
        payload[field] = value
        path = tmp_path / "bad-field.json"
        write_json(path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config field '{field}'") and err.count("\n") == 1, err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("dimension", [["--dimension", "0"], ["--dimension", "1", "--maxscale", "3"]])
    @pytest.mark.parametrize(
        "flag, field",
        [
            (["--p", "inf"], "p must be"),
            (["--p", "nan"], "p must be"),
            (["--anchor", "nan,0,0"], "anchor components"),
            (["--anchor", "1,inf,0"], "anchor components"),
            (["--offset", "0,nan,2"], "offset components"),
        ],
    )
    def test_non_finite_parameter_fails_before_any_stage(
        self, tmp_path, config_path, dimension, flag, field, capsys
    ):
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "runs"), *dimension, *flag]
        assert main(argv) == 1
        assert f"usage error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


    @pytest.mark.parametrize(
        "flags",
        [
            ["--dimension", "1", "--maxscale", "inf"],
            ["--dimension", "1", "--maxscale", "0"],
            ["--dimension", "1", "--maxscale", "nan"],
            ["--dimension", "1", "--maxscale", "-2"],
        ],
        ids=["dim1-inf", "dim1-zero", "dim1-nan", "dim1-negative"],
    )
    def test_bad_maxscale_fails_before_any_stage(self, tmp_path, config_path, flags, capsys):
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "runs"), *flags]
        assert main(argv) == 1
        assert "usage error: maxscale must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("maxscale", [math.nan, math.inf, 0, -1])
    def test_config_maxscale_is_checked_where_no_stage_uses_it(self, tmp_path, config_path, maxscale, capsys):
        # Dimension 0 with the dropped policy: the config file's own value.
        config = tmp_path / "maxscale.json"
        write_json(config, dict(read_json(config_path), maxscale=maxscale))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == f"usage error: maxscale must be positive and finite, got {maxscale!r}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("maxscale", ["inf", "0"])
    def test_capped_policy_with_bad_maxscale_fails_before_any_stage(self, tmp_path, config_path, maxscale, capsys):
        capped = tmp_path / "capped.json"
        write_json(capped, dict(read_json(config_path), essential_policy="capped"))
        argv = ["run", "--config", str(capped), "--out", str(tmp_path / "runs"), "--maxscale", maxscale]
        assert main(argv) == 1
        assert "usage error: maxscale must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


# Each stage command with the options it needs; the files need not exist,
# since a bad config is rejected before any is read.
STAGE_ARGV = {
    "ingest": ["--data", "data.csv"],
    "windows": ["--series", "series.csv"],
    "diagrams": ["--windows", "windows.csv", "--params", "params.json"],
    "distmat": ["--diagrams", "diagrams.csv", "--windows", "windows.csv"],
    "classify": ["--matrix", "distmat.csv", "--windows", "windows.csv"],
    "sweep-k": ["--matrix", "distmat.csv", "--windows", "windows.csv", "--ks", "1,3"],
}


class TestConfigErrors:
    @pytest.mark.parametrize("field", ["window", "schema", "splits", "schema.features"])
    def test_missing_field_is_named(self, tmp_path, synth_csv, field, capsys):
        payload = synthetic_config_dict("missing", synth_csv, n_windows=30)
        del (payload["schema"] if field.startswith("schema.") else payload)[field.split(".")[-1]]
        path = tmp_path / "missing.json"
        write_json(path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == f"usage error: config field '{field}' is required\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("run_id", 5),
            ("run_id", "../escaped"),
            ("run_id", "a/b"),
            ("run_id", "a\\b"),
            ("run_id", ".."),
            ("run_id", ""),
            ("schema.delimiter", ";;"),
            ("schema.delimiter", 5),
            ("schema.features", "f0"),
            ("schema.features", ["f0", 1]),
            ("schema.timestamp", 0),
            ("schema.label", ["label"]),
            ("splits", [["train", 0, 600, 9], ["test", 600, 1000]]),
            ("splits", [[0, 0, 600], ["test", 600, 1000]]),
            ("offset", 5),
            ("offset", [[1, 2]]),
            ("offset", True),
            ("anchors", 5),
            ("anchors", [5]),
            ("data", 5),
            ("data", ["a"]),
        ],
        ids=[
            "run_id-int", "run_id-parent", "run_id-slash", "run_id-backslash", "run_id-dotdot", "run_id-empty",
            "delimiter-two-chars", "delimiter-int", "features-string", "features-int", "timestamp-int",
            "label-list", "split-four-cells", "split-int-name", "offset-int", "offset-nested", "offset-bool",
            "anchors-int", "anchors-int-point", "data-int", "data-list",
        ],
    )
    def test_ill_formed_field_is_a_usage_error_before_any_output(self, tmp_path, synth_csv, name, value, capsys):
        payload = synthetic_config_dict("bad", synth_csv, n_windows=100)
        (payload["schema"] if name.startswith("schema.") else payload)[name.split(".")[-1]] = value
        config = tmp_path / "config" / "bad.json"
        write_json(config, payload)
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out" / "runs")]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: config field '{name}' must be ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "text, message",
        [("{window: 10}", "Expecting property name enclosed in double quotes"), ("[1, 2]", "a config is one JSON object")],
        ids=["not-json", "not-an-object"],
    )
    @pytest.mark.parametrize("command", ["run", "windows"])
    def test_unreadable_config_names_the_file(self, tmp_path, command, text, message, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        argv = [command, "--config", str(path), *STAGE_ARGV.get(command, []), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {path}: {message}")
        assert not (tmp_path / "out").exists()


def edit_rows(path, prefix, edit):
    """Apply ``edit`` to every line of ``path`` that starts with ``prefix``
    (``None`` drops the line); returns the 1-based number of the first."""
    lines = path.read_text(encoding="utf-8").split("\n")
    first = 1 + next(i for i, line in enumerate(lines) if line.startswith(prefix))
    edited = [line if not line.startswith(prefix) else edit(line) for line in lines]
    path.write_text("\n".join(line for line in edited if line is not None), encoding="utf-8")
    return first


def renumbered(split, window, number):
    """The edit that gives the rows of ``split`` window ``window`` the number ``number``."""
    return f"{split},{window},", lambda line: f"{split},{number},{line.split(',', 2)[2]}"


class TestNumberingErrors:
    """A windows or matrix file whose numbers are not positions is a data
    error naming the file and the line, and the command writes nothing."""

    @pytest.mark.parametrize(
        "option, edit, message",
        [
            ("windows", renumbered("test", 1, 2), "split 'test' window 2 where window 1 is due"),
            ("windows", renumbered("test", 1, 0), "split 'test' window 0 where window 1 is due"),
            ("windows", renumbered("train", 0, 1), "split 'train' window 1 where window 0 is due"),
            (
                "matrix",
                ("window,", lambda line: line.replace("window,0,1,", "window,0,2,")),
                "column of train window 2 where window 1 is due",
            ),
            ("matrix", ("1,", lambda line: "0," + line[2:]), "row of test window 0 where window 1 is due"),
        ],
        ids=["windows-gap", "windows-repeated", "windows-first-not-0", "distmat-column", "distmat-row"],
    )
    def test_classify_is_a_data_error(self, small_run, tmp_path, option, edit, message, capsys):
        cfg, _, root = small_run
        config = tmp_path / "small.json"
        write_json(config, cfg.to_dict())
        (matrix,) = (root / cfg.run_id).glob("distances/*.distmat.csv")
        (windows,) = (root / cfg.run_id).glob("windows/*.windows.csv")
        inputs = {"matrix": matrix, "windows": windows}
        damaged = tmp_path / inputs[option].name
        shutil.copyfile(inputs[option], damaged)
        inputs[option] = damaged
        line = edit_rows(damaged, *edit)
        out = tmp_path / "out"
        argv = ["classify", "--config", str(config), "--out", str(out)]
        assert main([*argv, "--matrix", str(inputs["matrix"]), "--windows", str(inputs["windows"])]) == 2
        assert capsys.readouterr().err == f"data error: {damaged}: line {line}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "sweep-k"])
    @pytest.mark.parametrize("cut", ["row", "column"])
    def test_matrix_that_does_not_fit_the_windows(self, small_run, tmp_path, command, cut, capsys):
        cfg, _, root = small_run
        config = tmp_path / "small.json"
        write_json(config, cfg.to_dict())
        (matrix,) = (root / cfg.run_id).glob("distances/*.distmat.csv")
        (windows,) = (root / cfg.run_id).glob("windows/*.windows.csv")
        damaged = tmp_path / matrix.name
        lines = matrix.read_text(encoding="utf-8").splitlines()
        rows = len(lines) - 1
        cols = len(lines[0].split(",")) - 1
        if cut == "row":
            kept, shape = lines[:-1], (rows - 1, cols)
        else:
            kept, shape = [line.rsplit(",", 1)[0] for line in lines], (rows, cols - 1)
        damaged.write_text("\n".join(kept) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out), "--matrix", str(damaged), "--windows", str(windows)]
        assert main([*argv, *(["--ks", "1,3"] if command == "sweep-k" else [])]) == 2
        due = f"{(rows, cols)} (test x train windows) is due"
        assert capsys.readouterr().err == f"data error: {damaged}: a matrix of shape {shape} where {due}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("classify", ("test,", lambda line: None), "no split named 'test' in windows (have ['train'])"),
            ("sweep-k", ("test,", lambda line: None), "no split named 'test' in windows (have ['train'])"),
            # classify's reader errors are test_classify_is_a_data_error's.
            ("sweep-k", renumbered("test", 1, 2), "line {line}: split 'test' window 2 where window 1 is due"),
        ],
        ids=["classify-split-missing", "sweep-k-split-missing", "sweep-k-window-out-of-order"],
    )
    def test_windows_file_is_named_once(self, small_run, tmp_path, command, edit, message, capsys):
        cfg, _, root = small_run
        config = tmp_path / "small.json"
        write_json(config, cfg.to_dict())
        (matrix,) = (root / cfg.run_id).glob("distances/*.distmat.csv")
        (windows,) = (root / cfg.run_id).glob("windows/*.windows.csv")
        damaged = tmp_path / windows.name
        shutil.copyfile(windows, damaged)
        line = edit_rows(damaged, *edit)
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out), "--matrix", str(matrix), "--windows", str(damaged)]
        assert main([*argv, *(["--ks", "1,3"] if command == "sweep-k" else [])]) == 2
        assert capsys.readouterr().err == f"data error: {damaged}: {message.format(line=line)}\n"
        assert not out.exists()

    def test_diagrams_rejects_windows_with_deleted_test_windows(self, tmp_path, config_path, synth_csv, capsys):
        # Read as windows 0 2 4 5 ..., the file would give clouds and diagrams
        # different numbers for the same windows.
        stages = tmp_path / "stages"
        assert main(["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(stages)]) == 0
        argv = ["windows", "--config", str(config_path), "--series", str(stages / "series.csv"), "--out", str(stages)]
        assert main(argv) == 0
        windows = stages / "windows.csv"
        line = edit_rows(windows, "test,1,", lambda line: None)  # window 2 now starts here
        edit_rows(windows, "test,3,", lambda line: None)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["diagrams", "--config", str(config_path), "--windows", str(windows), "--out", str(out)]
        assert main([*argv, "--params", str(stages / "params.json")]) == 2
        message = f"line {line}: split 'test' window 2 where window 1 is due"
        assert capsys.readouterr().err == f"data error: {windows}: {message}\n"
        assert not out.exists()


def without_test_rows(path):
    edit_rows(path, "test,", lambda line: None)


def without_last_channel(path):
    """Drop the last column of a stage CSV, or the last mean and SD of a params file."""
    if path.suffix == ".json":
        payload = read_json(path)
        write_json(path, {**payload, **{key: payload[key][:-1] for key in ("means", "standard_deviations")}})
    else:
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines), encoding="utf-8")


def with_infinite_first_sd(path):
    payload = read_json(path)
    write_json(path, {**payload, "standard_deviations": ["inf", *payload["standard_deviations"][1:]]})


class TestMisfitInputs:
    """A stage input that reads well but does not fit the config is a data
    error naming that input, and the command writes nothing."""

    @pytest.mark.parametrize(
        "command, edits, named, message",
        [
            (
                "distmat",
                {"windows": without_test_rows, "diagrams": without_test_rows},
                "diagrams",
                "no split named 'test' in diagrams (have ['train'])",
            ),
            ("diagrams", {"params": without_last_channel}, "params", "standardizer has 2 channels, config has 3"),
            (
                "diagrams",
                {"params": with_infinite_first_sd},
                "params",
                "non-finite mean or standard deviation for channel 0",
            ),
            (
                "diagrams",
                {"windows": without_last_channel},
                "windows",
                "split 'train': window dimension 2 does not match config dimension 3",
            ),
        ],
        ids=["distmat-split-missing", "diagrams-params-channels", "diagrams-params-infinite-sd", "diagrams-windows-channels"],
    )
    def test_the_input_that_does_not_fit_is_named(self, small_run, tmp_path, command, edits, named, message, capsys):
        cfg, _, root = small_run
        config = tmp_path / "small.json"
        write_json(config, cfg.to_dict())
        names = {"windows": "windows/*.windows.csv", "params": "standardize/*.params.json", "diagrams": "diagrams/*.diagrams.csv"}
        inputs = {option: next((root / cfg.run_id).glob(name)) for option, name in names.items()}
        for option, edit in edits.items():
            damaged = tmp_path / inputs[option].name
            shutil.copyfile(inputs[option], damaged)
            edit(damaged)
            inputs[option] = damaged
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out), "--windows", str(inputs["windows"])]
        argv += ["--diagrams", str(inputs["diagrams"])] if command == "distmat" else ["--params", str(inputs["params"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {inputs[named]}: {message}\n"
        assert not out.exists()


class TestStageCommandsLeaveNoOutDirOnError:
    @pytest.mark.parametrize("command", STAGE_ARGV)
    @pytest.mark.parametrize(
        "flag, fields, message",
        [
            (["--anchor", "nan,0,0"], {"anchors": [[math.nan, 0, 0]]}, "anchor components"),
            (["--offset", "0,inf,2"], {"offset": [0, math.inf, 2]}, "offset components"),
            (
                ["--dimension", "1", "--maxscale", "inf"],
                {"dimension": 1, "maxscale": math.inf},
                "maxscale must be positive and finite",
            ),
        ],
        ids=["anchor", "offset", "maxscale"],
    )
    def test_bad_config(self, command, flag, fields, message, tmp_path, config_path, capsys):
        # A command that does not take the flag gets the bad value from its config file.
        out = tmp_path / "out"
        argv = [command, "--config", str(config_path), *STAGE_ARGV[command], "--out", str(out)]
        if flag[0] in STAGE_FLAGS[command]:
            argv += flag
        else:
            write_json(config_path, dict(read_json(config_path), **fields))
        assert main(argv) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_diagrams_with_nan_anchor_on_real_windows(self, tmp_path, config_path, synth_csv):
        stages = tmp_path / "stages"
        assert main(["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(stages)]) == 0
        windows = ["--series", str(stages / "series.csv"), "--out", str(stages)]
        assert main(["windows", "--config", str(config_path), *windows]) == 0
        out = tmp_path / "out"
        argv = ["diagrams", "--config", str(config_path), "--windows", str(stages / "windows.csv")]
        argv += ["--params", str(stages / "params.json")]
        assert main([*argv, "--anchor", "nan,0,0", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["", ",", " , "])
    def test_sweep_k_without_a_k(self, ks, small_run, tmp_path, capsys):
        cfg, _, root = small_run
        config = tmp_path / "small.json"
        write_json(config, cfg.to_dict())
        (matrix,) = (root / cfg.run_id).glob("distances/*.distmat.csv")
        (windows,) = (root / cfg.run_id).glob("windows/*.windows.csv")
        out = tmp_path / "out"
        argv = ["sweep-k", "--config", str(config), "--matrix", str(matrix), "--windows", str(windows)]
        assert main([*argv, "--ks", ks, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: --ks needs at least one k\n"
        assert not out.exists()

    def test_data_error(self, tmp_path, config_path):
        out = tmp_path / "out"
        argv = ["ingest", "--config", str(config_path), "--data", str(tmp_path / "absent.csv"), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()


class TestFileErrors:
    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_out_is_an_existing_file(self, command, tmp_path, config_path, synth_csv):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        argv = [command, "--config", str(config_path), "--data", str(synth_csv), "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "topowin", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 4
        (line,) = done.stderr.splitlines()
        assert line.startswith("file error: ") and str(out) in line
        assert out.read_text(encoding="utf-8") == "not a directory\n"


class TestWarnings:
    def test_warning_is_one_line_without_a_source_path(self, tmp_path, config_path, synth_csv):
        # pytest turns warnings into errors, so the CLI runs in a subprocess.
        out = tmp_path / "stages"
        assert main(["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(out)]) == 0
        assert main(["windows", "--config", str(config_path), "--series", str(out / "series.csv"), "--out", str(out)]) == 0
        windows = io.read_windows_csv(out / "windows.csv")
        train, test = windows["train"], windows["test"]
        # Every test window's nearest neighbour is a class-0 train window, so
        # nothing is predicted as class 1 and its precision is 0/0.
        nearest = next(i for i, w in enumerate(train) if w.label == 0)
        values = [[0.0 if i == nearest else 1.0 for i in range(len(train))] for _ in test]
        io.write_distmat_csv(DistanceMatrix(np.asarray(values)), out / "distmat.csv")
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["classify", "--config", str(config_path), "--k", "1", "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "topowin", *argv, "--matrix", str(out / "distmat.csv"), "--windows", str(out / "windows.csv")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert done.stderr == "warning: precision(class 1) is 0/0; defining it as 0\n"


class TestPlotDiagram:
    def test_plain_diagram_file(self, tmp_path, capsys):
        src = tmp_path / "diag.csv"
        src.write_text("dim,birth,death\n0,0.0,1.0\n0,0.0,2.0\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(out)]) == 0
        svg = read_lines(out / "diagram.svg")
        assert svg.count("<circle") == 2
        assert "stroke-dasharray" in svg  # the diagonal
        twin = read_lines(out / "diagram.csv")
        assert twin == "dim,birth,death\n0,0.0,1.0\n0,0.0,2.0\n"

    def test_empty_diagram_diagonal_only(self, tmp_path):
        src = tmp_path / "diag.csv"
        src.write_text("dim,birth,death\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(out)]) == 0
        svg = read_lines(out / "diagram.svg")
        assert svg.count("<circle") == 0
        assert "stroke-dasharray" in svg

    def test_long_format_selection(self, tmp_path):
        src = tmp_path / "diagrams.csv"
        src.write_text(
            "split,window,dim,birth,death\n"
            "test,0,0,0.0,1.0\n"
            "test,1,0,0.0,2.0\n"
            "test,1,0,0.0,3.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "plots"
        assert main([
            "plot-diagram", "--diagram", str(src), "--split", "test", "--index", "1", "--out", str(out)
        ]) == 0
        twin = read_lines(out / "diagram-test-1.csv")
        assert twin.count("\n") == 3  # header + two points

    def test_ambiguous_selection_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "diagrams.csv"
        src.write_text(
            "split,window,dim,birth,death\ntest,0,0,0.0,1.0\ntest,1,0,0.0,2.0\n",
            encoding="utf-8",
        )
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(tmp_path / "p")]) == 1

    # A dimension-0 file of 4 train and 2 test windows.
    LONG = "split,window,dim,birth,death\n" + "".join(
        f"{split},{index},0,0.0,{index + 1}.0\n"
        for split, count in (("train", 4), ("test", 2))
        for index in range(count)
    )

    @pytest.mark.parametrize(
        "select, message",
        [
            (["--split", "nope"], "no rows for split 'nope'; the file holds splits ['test', 'train']"),
            (["--split", "test", "--index", "-1"], "--index must be >= 0, got -1"),
            (["--split", "test", "--index", "99"], "no rows for split 'test' window 99 in a dimension-0 file"),
        ],
        ids=["unknown-split", "negative-index", "dim0-window-without-rows"],
    )
    def test_selection_of_nothing_is_a_usage_error(self, tmp_path, capsys, select, message):
        src = tmp_path / "diagrams.csv"
        src.write_text(self.LONG, encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), *select, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not list(out.glob("*.svg"))

    def test_empty_split_is_taken_as_given(self, tmp_path, capsys):
        src = tmp_path / "diagrams.csv"
        src.write_text("split,window,dim,birth,death\na,0,0,0.0,1.0\nb,0,0,0.0,2.0\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--split", "", "--index", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: no rows for split ''; the file holds splits ['a', 'b']\n"
        assert not out.exists()

    def test_split_named_empty_is_plotted(self, tmp_path):
        src = tmp_path / "diagrams.csv"
        src.write_text("split,window,dim,birth,death\n,0,0,0.0,1.0\nb,0,0,0.0,2.0\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--split", "", "--index", "0", "--out", str(out)]) == 0
        assert read_lines(out / "diagram--0.csv") == "dim,birth,death\n0,0.0,1.0\n"

    def test_dim1_window_without_rows_is_an_empty_plot(self, tmp_path, capsys):
        src = tmp_path / "diagrams.csv"
        src.write_text("split,window,dim,birth,death\ntest,0,1,0.5,1.0\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--split", "test", "--index", "3", "--out", str(out)]) == 0
        assert read_lines(out / "diagram-test-3.svg").count("<circle") == 0
        assert capsys.readouterr().out.endswith("(0 points)\n")

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["plot-diagram", "--diagram", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "p")]) == 2

    def test_plot_twin_lossless_roundtrip(self, tmp_path, small_run):
        src = tmp_path / "diag.csv"
        rows = "dim,birth,death\n0,0.0,0.7071067811865476\n1,1.0,1.4142135623730951\n"
        src.write_text(rows, encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(out)]) == 0
        assert read_lines(out / "diagram.csv") == rows
        # A run's diagrams.csv: the twin of one window plots to the same bytes.
        cfg, _, root = small_run
        (diagrams,) = (root / cfg.run_id).glob("diagrams/*.diagrams.csv")
        argv = ["plot-diagram", "--diagram", str(diagrams), "--split", "train", "--index", "0", "--out", str(out)]
        assert main(argv) == 0
        assert main(["plot-diagram", "--diagram", str(out / "diagram-train-0.csv"), "--out", str(tmp_path / "re")]) == 0
        for name in ("svg", "csv"):
            assert (out / f"diagram-train-0.{name}").read_bytes() == (tmp_path / "re" / f"diagram.{name}").read_bytes()

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("dim,birth,death\n0,0.0,1.0\n0,2.0,1.0\n", 3, "invalid diagram point (2.0, 1.0)"),
            ("dim,birth,death\n0,-1,nan\n", 2, "invalid diagram point (-1.0, nan)"),
            ("split,window,dim,birth,death\ntest,0,0,0.0,inf\n", 2, "invalid diagram point (0.0, inf)"),
            # The rule distmat reads diagrams.csv by, less the window counts.
            ("split,window,dim,birth,death\ntrain,-1,0,0.0,1.0\n", 2, "window -1 is outside split 'train'\n"),
            ("split,window,dim,birth,death\ntrain,0,0,0.0,1.0\ntrain,0,-1,0.0,1.0\n", 3, "dimension -1, not 0 or 1\n"),
            ("split,window,dim,birth,death\ntrain,0,2,0.0,1.0\n", 2, "dimension 2, not 0 or 1\n"),
            ("split,window,dim,birth,death\ntrain,0,0,0.5,1.0\n", 2, "dimension-0 point born at 0.5, not 0\n"),
            ("dim,birth,death\n0,0.0,1.0\n-1,0.0,1.0\n", 3, "dimension -1, not 0 or 1\n"),
        ],
        ids=[
            "birth-after-death", "negative-nan", "long-format-infinite", "negative-window", "negative-dimension",
            "dimension-2", "dim0-born-off-0", "single-negative-dimension",
        ],
    )
    def test_invalid_point_is_a_data_error_naming_its_line(self, tmp_path, capsys, text, line, message):
        src = tmp_path / "diag.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {src}: line {line}: {message}")
        assert not out.exists()

    def test_single_diagram_header_is_exact(self, tmp_path, capsys):
        src = tmp_path / "diag.csv"
        src.write_text("dim,birth,death,extra\n0,0.0,1.0,x\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {src}: line 1: expected columns dim,birth,death or ")
        assert not out.exists()

    @pytest.mark.parametrize("select", [["--split", "a"], ["--index", "0"], ["--split", "a", "--index", "0"]])
    def test_selection_in_a_single_diagram_file_is_a_usage_error(self, tmp_path, capsys, select):
        src = tmp_path / "diag.csv"
        src.write_text("dim,birth,death\n0,0.0,1.0\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), *select, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {src} holds one diagram; --split and --index select in a long-format file\n"
        assert not out.exists()

    @pytest.mark.parametrize("split", ["/../../../escaped", "..\\escaped", "a/b"])
    @pytest.mark.parametrize("given", [False, True], ids=["from-file", "by-split"])
    def test_split_with_a_path_separator_is_a_usage_error(self, tmp_path, capsys, split, given):
        src = tmp_path / "in" / "diagrams.csv"
        src.parent.mkdir()
        io.write_diagrams_csv({split: Diagrams.from_pairs(0, [[(0.0, 1.0)]])}, src)
        if given:  # beside a split that could be plotted
            src.write_text(read_lines(src) + "train,0,0,0.0,2.0\n", encoding="utf-8")
        out = tmp_path / "trav" / "out"
        select = ["--split", split] if given else []
        assert main(["plot-diagram", "--diagram", str(src), *select, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: split '{split}' holds a '/' or '\\', so it cannot name an output file\n"
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["in", "in/diagrams.csv"]
