from pathlib import Path

import pytest

from topowin import apply_standardizer, describe_run, io
from topowin.cli import main
from topowin.io import read_json, write_json
from conftest import synthetic_config_dict


@pytest.fixture
def config_path(tmp_path, synth_csv):
    payload = synthetic_config_dict("cli-synth", synth_csv, n_windows=100)
    path = tmp_path / "cli-synth.json"
    write_json(path, payload)
    return path


def read_lines(path):
    return Path(path).read_text(encoding="utf-8")


class TestUsage:
    def test_no_arguments_prints_usage_nonzero(self, capsys):
        assert main([]) == 1
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


    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, workers, tmp_path, config_path, capsys):
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "runs"), "--workers", workers]
        assert main(argv) == 1
        assert "--workers" in capsys.readouterr().err


# Each command accepts only the flags it uses.
CONFIG_FLAGS = [
    ["--config", "c.json"], ["-w", "5"], ["-s", "5"], ["--label-rule", "majority"], ["--offset", "auto"],
    ["--anchor", "origin"], ["--dimension", "0"], ["--maxscale", "1"], ["--p", "1"], ["--k", "0"], ["--seed", "1"],
]
REMOVED_FLAGS = [
    *[(command, ["--no-cache"]) for command in ("ingest", "windows", "diagrams", "distmat", "classify", "sweep-k")],
    *[(command, ["--workers", "2"]) for command in ("ingest", "windows", "diagrams", "classify", "sweep-k")],
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
        assert (out / "standardized.csv").exists()
        assert (out / "params.json").exists()

        assert main(["windows", "--config", str(config_path), "--series", str(out / "standardized.csv"), "--out", str(out)]) == 0
        assert (out / "windows.csv").exists()

        assert main(["diagrams", "--config", str(config_path), "--windows", str(out / "windows.csv"), "--out", str(out)]) == 0
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
        for cmd in (
            ["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(out)],
            ["windows", "--config", str(config_path), "--series", str(out / "standardized.csv"), "--out", str(out)],
            ["diagrams", "--config", str(config_path), "--windows", str(out / "windows.csv"), "--out", str(out)],
            ["distmat", "--config", str(config_path), "--diagrams", str(out / "diagrams.csv"),
             "--windows", str(out / "windows.csv"), "--out", str(out)],
        ):
            assert main(cmd) == 0
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

    def test_ingest_idempotent(self, tmp_path, config_path, synth_csv):
        out = tmp_path / "stages"
        args = ["ingest", "--config", str(config_path), "--data", str(synth_csv), "--out", str(out)]
        assert main(args) == 0
        first = (out / "standardized.csv").read_bytes()
        assert main(args) == 0
        assert (out / "standardized.csv").read_bytes() == first

    def test_data_error_exit_code(self, tmp_path, config_path, capsys):
        missing = tmp_path / "absent.csv"
        code = main(["ingest", "--config", str(config_path), "--data", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

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


class TestStagesMatchRun:
    @pytest.mark.parametrize(
        "extra", [{}, {"dimension": 1, "maxscale": 8.0, "k": 3}], ids=["dim0", "dim1"]
    )
    def test_stage_outputs_equal_run_artifacts(self, tmp_path, synth_csv, extra):
        payload = synthetic_config_dict("match", synth_csv, n_windows=30)
        payload.update(extra)
        config = tmp_path / "match.json"
        write_json(config, payload)
        root, out = tmp_path / "runs", tmp_path / "stages"
        assert main(["run", "--config", str(config), "--out", str(root)]) == 0
        for command, *argv in (
            ["ingest", "--data", synth_csv],
            ["windows", "--series", out / "standardized.csv"],
            ["diagrams", "--windows", out / "windows.csv"],
            ["distmat", "--diagrams", out / "diagrams.csv", "--windows", out / "windows.csv"],
            ["classify", "--matrix", out / "distmat.csv", "--windows", out / "windows.csv"],
        ):
            argv = [command, "--config", str(config), "--out", str(out), *map(str, argv)]
            assert main(argv) == 0
        run_dir = root / "match"
        for name, pattern in {
            "series.csv": "ingest/*.series.csv",
            "params.json": "standardize/*.params.json",
            "windows.csv": "windows/*.windows.csv",
            "clouds.csv": "clouds/*.clouds.csv",
            "diagrams.csv": "diagrams/*.diagrams.csv",
            "distmat.csv": "distances/*.distmat.csv",
            "distmat.json": "distances/*.distmat.json",
            "report.json": "report.json",
            "report.txt": "report.txt",
        }.items():
            (artifact,) = run_dir.glob(pattern)
            assert (out / name).read_bytes() == artifact.read_bytes(), name
        # The run caches the parameters, not the standardized series.
        (series,) = run_dir.glob("ingest/*.series.csv")
        (params,) = run_dir.glob("standardize/*.params.json")
        io.write_series_csv(
            apply_standardizer(io.read_series_csv(series), io.read_params_json(params)), tmp_path / "expected.csv"
        )
        assert (out / "standardized.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestRunCommand:
    def test_run_and_describe(self, tmp_path, config_path, synth_csv, capsys):
        root = tmp_path / "runs"
        code = main(["run", "--config", str(config_path), "--out", str(root), "--describe"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
        assert "classify: computed" in out
        assert (root / "cli-synth" / "report.json").exists()

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
        ],
    )
    def test_ill_typed_field_is_a_usage_error(self, tmp_path, synth_csv, field, value, capsys):
        payload = synthetic_config_dict("bad-field", synth_csv, n_windows=30)
        payload[field] = value
        path = tmp_path / "bad-field.json"
        write_json(path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 1
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


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

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["plot-diagram", "--diagram", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "p")]) == 2

    def test_plot_twin_lossless_roundtrip(self, tmp_path):
        src = tmp_path / "diag.csv"
        rows = "dim,birth,death\n0,0.0,0.7071067811865476\n1,1.0,1.4142135623730951\n"
        src.write_text(rows, encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot-diagram", "--diagram", str(src), "--out", str(out)]) == 0
        assert read_lines(out / "diagram.csv") == rows
