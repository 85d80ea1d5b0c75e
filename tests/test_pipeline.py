import dataclasses
import gc
import json
import math
import multiprocessing.process
import re
import shutil
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topowin.pipeline
from topowin import (
    AugmentConfig,
    DataError,
    Diagrams,
    DistanceMatrix,
    PersistenceDiagram,
    PipelineConfig,
    apply_standardizer,
    augment,
    describe_run,
    io,
    load_csv,
    resolve_anchors,
    resolve_offset,
    rips_persistence_dim0,
    run,
)
from topowin.cli import main
from topowin.ingest import STANDARDIZE_MODES
from topowin.persistence import ESSENTIAL_POLICIES
from topowin.pipeline import (
    build_clouds,
    compute_diagrams,
    compute_distances,
    cut_windows,
    default_runs_root,
    split_labels,
    standardize,
)
from conftest import synthetic_config_dict, synthetic_two_class_series, windows_slice


class TwoArgumentDataError(DataError):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


STAGES = ("ingest", "windows", "standardize", "clouds", "diagrams", "distances", "classify")
# A run reads only these stages' artifacts; it computes the stages before them.
SERVED = ("diagrams", "distances", "classify")
# A fully cached rerun's statuses: it reads the report, and nothing needs the rest.
WARM = {stage: "cached" if stage in SERVED else "skipped" for stage in STAGES}
# Artifact kind: (stage that writes it, file name suffix).
ARTIFACTS = {
    "series": ("ingest", "series.csv"),
    "params": ("standardize", "params.json"),
    "windows": ("windows", "windows.csv"),
    "clouds": ("clouds", "clouds.csv"),
    "diagrams": ("diagrams", "diagrams.csv"),
    "distmat": ("distances", "distmat.csv"),
    "report": ("classify", "report.json"),
}
UPSTREAM_READERS = (
    "read_series_csv",
    "read_params_json",
    "read_windows_csv",
    "read_clouds_csv",
    "read_diagrams_csv",
    "read_distmat_csv",
)


def config_for(synth_csv, run_id="synth", **extra):
    payload = synthetic_config_dict(run_id, synth_csv)
    payload.update(extra)
    return PipelineConfig.from_dict(payload)


class TestConfig:
    def test_round_trip(self, synth_csv):
        cfg = config_for(synth_csv)
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize(
        "spec",
        [
            {"anchors": "origin"},
            {"anchors": "none"},
            {"anchors": [[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]]},
            {"anchors": ["1,2,3"]},
            {"anchors": "1,2,3"},
            {"offset": "0,1,2"},
        ],
    )
    def test_round_trip_keeps_offset_and_anchors(self, synth_csv, spec):
        cfg = config_for(synth_csv, **spec)
        again = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        np.testing.assert_array_equal(resolve_offset(again.offset, 3), resolve_offset(cfg.offset, 3))
        np.testing.assert_array_equal(resolve_anchors(again.anchors, 3), resolve_anchors(cfg.anchors, 3))

    @pytest.mark.parametrize(
        "field, name, allowed",
        [("standardize", "standardize mode", STANDARDIZE_MODES), ("essential_policy", "essential policy", ESSENTIAL_POLICIES)],
    )
    def test_unknown_choice_names_the_field_and_the_allowed_values(self, synth_csv, field, name, allowed):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be one of {allowed}, got 'bogus'")):
            config_for(synth_csv, **{field: "bogus"})

    @pytest.mark.parametrize("spec", [{"anchors": None}, {"offset": None}, {"anchors": None, "offset": None}])
    def test_round_trip_keeps_null_offset_and_anchors(self, synth_csv, spec):
        cfg = config_for(synth_csv, **spec)
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert {name: payload[name] for name in spec} == spec
        assert PipelineConfig.from_dict(payload) == cfg

    @pytest.mark.parametrize("run_id", ["../x", "a/b", "a\\b", "..", ".", "", 5, None])
    def test_directly_built_config_checks_its_run_id(self, synth_csv, run_id):
        # Not only from_dict: a run_id that is not one directory name would
        # send the run's files outside its runs root.
        message = re.escape("config field 'run_id' must be one directory name")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(config_for(synth_csv), run_id=run_id)
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**{**vars(config_for(synth_csv)), "run_id": run_id})

    @pytest.mark.parametrize("field", ["window", "stride", "k", "p", "dimension", "seed"])
    def test_null_number_field_names_the_field(self, synth_csv, field):
        payload = synthetic_config_dict("synth", synth_csv)
        payload[field] = None
        with pytest.raises(ValueError, match=f"config field '{field}' must be a number, got null"):
            PipelineConfig.from_dict(payload)

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
            ("p", 10**400),  # an int no float holds
            ("maxscale", -(10**400)),
            ("offset", [10**400, 0, 0]),
        ],
    )
    def test_ill_typed_field_names_the_field(self, synth_csv, field, value):
        payload = synthetic_config_dict("synth", synth_csv)
        payload[field] = value
        with pytest.raises(ValueError, match=f"config field '{field}' must be"):
            PipelineConfig.from_dict(payload)

    @pytest.mark.parametrize("field", ["schema", "splits", "window", "schema.timestamp", "schema.features"])
    def test_missing_field_is_named(self, synth_csv, field):
        payload = synthetic_config_dict("synth", synth_csv)
        del (payload["schema"] if field.startswith("schema.") else payload)[field.split(".")[-1]]
        with pytest.raises(ValueError, match=re.escape(f"config field '{field}' is required")):
            PipelineConfig.from_dict(payload)

    @pytest.mark.parametrize("maxscale", [3, 2.5])
    def test_maxscale_is_stored_as_given(self, synth_csv, maxscale):
        assert json.dumps(config_for(synth_csv, maxscale=maxscale).to_dict()["maxscale"]) == json.dumps(maxscale)

    def test_dimension_one_needs_maxscale(self, synth_csv):
        with pytest.raises(ValueError, match="maxscale"):
            config_for(synth_csv, dimension=1)

    @pytest.mark.parametrize("maxscale", [float("inf"), float("-inf"), float("nan"), 0, 0.0, -1.0])
    @pytest.mark.parametrize(
        "extra", [{"dimension": 1}, {"essential_policy": "capped"}, {}], ids=["dim1", "capped", "dim0-dropped"]
    )
    def test_maxscale_must_be_positive_and_finite(self, synth_csv, extra, maxscale):
        # Checked whenever it is given, also where no stage uses it.
        with pytest.raises(ValueError, match="^maxscale must be positive and finite"):
            config_for(synth_csv, maxscale=maxscale, **extra)

    def test_missing_split_name(self, synth_csv):
        with pytest.raises(ValueError, match="train split"):
            config_for(synth_csv, train_split="nope")

    def test_same_train_and_test_rejected(self, synth_csv):
        with pytest.raises(ValueError, match="differ"):
            config_for(synth_csv, test_split="train")


class TestRun:
    def test_synthetic_classes_separate(self, synth_csv, tmp_path):
        report = run(config_for(synth_csv), synth_csv, runs_root=tmp_path / "runs")
        assert float(report.accuracy) >= 0.95

    def test_artifacts_and_provenance(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        run(config_for(synth_csv), synth_csv, runs_root=root)
        prov = describe_run("synth", root)
        stages = [s["stage"] for s in prov["stages"]]
        assert stages == [
            "ingest",
            "windows",
            "standardize",
            "clouds",
            "diagrams",
            "distances",
            "classify",
        ]
        assert all(s["status"] == "computed" for s in prov["stages"])
        assert (root / "synth" / "report.json").exists()
        assert (root / "synth" / "report.txt").exists()

    def test_rerun_hits_cache(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        cfg = config_for(synth_csv)
        run(cfg, synth_csv, runs_root=root)
        run(cfg, synth_csv, runs_root=root)
        assert statuses(cfg, root) == WARM

    def test_changing_k_reuses_distances(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        run(config_for(synth_csv, k=5), synth_csv, runs_root=root)
        run(config_for(synth_csv, k=7), synth_csv, runs_root=root)
        status = {s["stage"]: s["status"] for s in describe_run("synth", root)["stages"]}
        assert status["distances"] == "cached"
        assert status["classify"] == "computed"
        # Every file is a fresh k = 7 run's, byte for byte.
        run(config_for(synth_csv, k=7), synth_csv, runs_root=tmp_path / "fresh")
        fresh = {p.relative_to(tmp_path / "fresh"): b for p, b in files(tmp_path / "fresh").items()}
        assert {name: (root / name).read_bytes() for name in fresh if name.name != "provenance.json"} == {
            name: b for name, b in fresh.items() if name.name != "provenance.json"
        }

    def test_changing_window_recomputes_downstream(self, synth_csv, tmp_path, replaced):
        root = tmp_path / "runs"
        run(config_for(synth_csv), synth_csv, runs_root=root)
        series = artifact(root / "synth", "series")
        replaced.clear()
        cfg2 = config_for(synth_csv, stride=5)
        run(cfg2, synth_csv, runs_root=root)
        # The series is computed again from the data; the standardize key
        # chains the windows key, so the parameters are refit.
        assert statuses(cfg2, root) == dict.fromkeys(STAGES, "computed")
        assert reasons(cfg2, root) == {}
        # The series artifact passed its digest, so it is left as it was.
        assert series not in replaced
        assert {p.parent.name for p in replaced if p.suffix != ".sha256"} == {*STAGES[1:], "synth"}

    def test_determinism_across_fresh_roots(self, synth_csv, tmp_path):
        cfg = config_for(synth_csv)
        run(cfg, synth_csv, runs_root=tmp_path / "a")
        run(cfg, synth_csv, runs_root=tmp_path / "b")
        r1 = (tmp_path / "a" / "synth" / "report.json").read_bytes()
        r2 = (tmp_path / "b" / "synth" / "report.json").read_bytes()
        assert r1 == r2

    def test_no_cache_output_identical(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        cfg = config_for(synth_csv)
        run(cfg, synth_csv, runs_root=root)
        cached = (root / "synth" / "report.json").read_bytes()
        run(cfg, synth_csv, runs_root=root, use_cache=False)
        recomputed = (root / "synth" / "report.json").read_bytes()
        assert cached == recomputed
        prov = describe_run("synth", root)
        assert all(s["status"] == "computed" for s in prov["stages"])

    def test_empty_data_names_the_stage(self, synth_csv, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="stage 'ingest'"):
            run(config_for(synth_csv), empty, runs_root=tmp_path / "runs")

    def test_missing_data_file(self, synth_csv, tmp_path):
        with pytest.raises(DataError, match="stage 'ingest'"):
            run(config_for(synth_csv), tmp_path / "absent.csv", runs_root=tmp_path / "runs")

    def test_data_path_naming_a_directory(self, synth_csv, tmp_path):
        with pytest.raises(DataError, match="stage 'ingest': no such data file"):
            run(config_for(synth_csv), tmp_path, runs_root=tmp_path / "runs")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "exc, base",
        [
            (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), ValueError),
            (json.JSONDecodeError("Expecting value", "x", 0), ValueError),
            (TwoArgumentDataError("a", "b"), DataError),
        ],
        ids=["unicode", "json", "data-error-subclass"],
    )
    def test_stage_error_reraised_as_its_base_class(self, synth_csv, tmp_path, monkeypatch, exc, base):
        def fail(*args):
            raise exc

        monkeypatch.setattr(topowin.pipeline, "load_csv", fail)
        with pytest.raises(base, match="^stage 'ingest': ") as info:
            run(config_for(synth_csv), synth_csv, runs_root=tmp_path / "runs")
        assert type(info.value) is base
        assert info.value.__cause__ is exc

    def test_describe_unknown_run(self, tmp_path):
        with pytest.raises(DataError, match="unknown run"):
            describe_run("never-ran", tmp_path)

    def test_dim1_pipeline_runs(self, synth_csv, tmp_path):
        cfg = config_for(synth_csv, run_id="synth-d1", dimension=1, maxscale=8.0, k=3)
        report = run(cfg, synth_csv, runs_root=tmp_path / "runs")
        assert report.total == 40

    def test_cached_report_equals_recomputed_object(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        cfg = config_for(synth_csv)
        first = run(cfg, synth_csv, runs_root=root)
        second = run(cfg, synth_csv, runs_root=root)
        assert first == second


class TestRunsRoot:
    def test_env_var_controls_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TOPOWIN_CACHE_DIR", str(tmp_path / "cache"))
        assert default_runs_root(None) == tmp_path / "cache"

    def test_explicit_out_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TOPOWIN_CACHE_DIR", str(tmp_path / "cache"))
        assert default_runs_root(tmp_path / "explicit") == tmp_path / "explicit"


@pytest.fixture
def warm(small_run, tmp_path):
    """A private copy of ``small_run``'s cache."""
    cfg, data, source = small_run
    shutil.copytree(source, tmp_path / "runs")
    return cfg, data, tmp_path / "runs"


def artifact(run_dir, kind):
    stage, suffix = ARTIFACTS[kind]
    (path,) = (run_dir / stage).glob(f"*.{suffix}")
    return path


def truncate(path):
    """Cut the file to two thirds of its bytes.  A CSV is cut just before a
    field separator, so its last row comes out short; a cut at a line
    boundary (or inside a row's last field) still reads as a well-formed
    file, and only a content hash of the artifact can catch it."""
    data = path.read_bytes()
    cut = len(data) * 2 // 3
    if path.suffix == ".csv":
        cut = data.rindex(b",", 0, cut)
    path.write_bytes(data[:cut])


def statuses(cfg, root):
    return {s["stage"]: s["status"] for s in describe_run(cfg.run_id, root)["stages"]}


def reasons(cfg, root):
    """The stages whose provenance gives a reason, with it."""
    return {s["stage"]: s["reason"] for s in describe_run(cfg.run_id, root)["stages"] if "reason" in s}


def recording_reads(monkeypatch):
    """Wrap every ``io.read_*``; the returned list collects (reader, directory of the file read)."""
    called = []

    def recording(name, fn):
        def wrapper(path, *args, **kwargs):
            called.append((name, Path(path).parent.name))
            return fn(path, *args, **kwargs)

        return wrapper

    for name in [n for n in vars(io) if n.startswith("read_")]:
        monkeypatch.setattr(io, name, recording(name, getattr(io, name)))
    return called


class TestCacheReads:
    def test_fully_cached_rerun_reads_only_the_report(self, warm, monkeypatch):
        cfg, data, root = warm
        expected = (root / cfg.run_id / "report.json").read_bytes()

        def unexpected(*args, **kwargs):
            raise AssertionError("a fully cached run read an upstream artifact")

        for name in UPSTREAM_READERS:
            monkeypatch.setattr(io, name, unexpected)
        run(cfg, data, runs_root=root)
        assert (root / cfg.run_id / "report.json").read_bytes() == expected
        assert statuses(cfg, root) == WARM

    def test_changing_k_reads_only_the_matrix(self, warm, monkeypatch, replaced, tmp_path):
        # The labels come from windows cut again from the data, whose
        # artifacts pass their digests and are left as they are.
        cfg, data, root = warm
        called = recording_reads(monkeypatch)
        rerun = dataclasses.replace(cfg, k=3)
        run(rerun, data, runs_root=root)
        assert called == [("read_distmat_csv", "distances")]
        assert statuses(cfg, root) == dict(WARM, ingest="computed", windows="computed", classify="computed")
        assert reasons(cfg, root) == {}
        # Only the new report, its digest and the run's own files are written.
        assert {p.parent.name for p in replaced} == {"classify", cfg.run_id}
        report = Path(describe_run(cfg.run_id, root)["stages"][-1]["path"])
        run(rerun, data, runs_root=tmp_path / "fresh")
        assert report.read_bytes() == artifact(tmp_path / "fresh" / cfg.run_id, "report").read_bytes()

    def test_changing_p_reads_only_the_diagrams(self, warm, monkeypatch, tmp_path):
        cfg, data, root = warm
        called = recording_reads(monkeypatch)
        rerun = dataclasses.replace(cfg, p=2.0)
        run(rerun, data, runs_root=root)
        assert called == [("read_diagrams_csv", "diagrams")]
        computed = dict.fromkeys(STAGES, "computed")
        assert statuses(cfg, root) == dict(computed, standardize="skipped", clouds="skipped", diagrams="cached")
        assert reasons(cfg, root) == {}
        report = Path(describe_run(cfg.run_id, root)["stages"][-1]["path"])
        run(rerun, data, runs_root=tmp_path / "fresh")
        assert report.read_bytes() == artifact(tmp_path / "fresh" / cfg.run_id, "report").read_bytes()

    def test_standardize_artifact_is_the_params(self, small_run):
        cfg, _, root = small_run
        keys = {s["stage"]: s["key"] for s in describe_run(cfg.run_id, root)["stages"]}
        artifact = f"{keys['standardize']}.params.json"
        assert sorted(p.name for p in (root / cfg.run_id / "standardize").iterdir()) == [artifact, f"{artifact}.sha256"]

    @pytest.mark.parametrize("use_cache", [True, False], ids=["cold", "no-cache"])
    def test_distances_artifact_is_the_matrix(self, small_run, tmp_path, use_cache):
        cfg, data, _ = small_run
        root = tmp_path / "runs"
        run(cfg, data, runs_root=root, use_cache=use_cache)
        keys = {s["stage"]: s["key"] for s in describe_run(cfg.run_id, root)["stages"]}
        artifact = f"{keys['distances']}.distmat.csv"
        assert sorted(p.name for p in (root / cfg.run_id / "distances").iterdir()) == [artifact, f"{artifact}.sha256"]

    def test_changing_window_reads_no_artifact(self, warm, monkeypatch, tmp_path):
        cfg, data, root = warm
        cfg = dataclasses.replace(cfg, window=5)
        called = recording_reads(monkeypatch)
        run(cfg, data, runs_root=root)
        assert called == []
        assert statuses(cfg, root) == dict.fromkeys(STAGES, "computed")
        rerun = Path(describe_run(cfg.run_id, root)["stages"][STAGES.index("windows")]["path"])
        run(cfg, data, runs_root=tmp_path / "fresh")
        assert rerun.read_bytes() == artifact(tmp_path / "fresh" / cfg.run_id, "windows").read_bytes()

    def test_standardize_only_rerun_keeps_the_windows(self, warm, replaced):
        cfg, data, root = warm
        cfg = dataclasses.replace(cfg, standardize="fit_on_train")
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root) == dict.fromkeys(STAGES, "computed")
        # The series and windows are cut again, and their artifacts left as they were.
        assert len(list((root / cfg.run_id / "windows").iterdir())) == 2
        assert not {p.parent.name for p in replaced} & {"ingest", "windows"}

    def test_splits_only_rerun_recomputes_the_windows(self, warm):
        cfg, data, root = warm
        cfg = PipelineConfig.from_dict(dict(cfg.to_dict(), splits=[["train", 0, 200], ["test", 200, 300]]))
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)["windows"] == "computed"
        assert len(list((root / cfg.run_id / "windows").iterdir())) == 4
        windows = Path(describe_run(cfg.run_id, root)["stages"][STAGES.index("windows")]["path"])
        assert [len(wins) for wins in io.read_windows_csv(windows).values()] == [20, 10]

    @pytest.mark.parametrize("stage", STAGES)
    def test_rerun_without_one_stage_directory(self, warm, stage):
        # With the report cached nothing upstream is read, so any other
        # stage whose directory is gone is skipped; a missing report is
        # recomputed from the cached matrix and windows cut again from the
        # data, to its bytes.
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        before = files(run_dir)
        shutil.rmtree(run_dir / stage)
        run(cfg, data, runs_root=root)
        recomputed = {"ingest": "computed", "windows": "computed", "classify": "computed"}
        assert statuses(cfg, root) == dict(WARM, **(recomputed if stage == "classify" else {stage: "skipped"}))
        kept = {p: b for p, b in before.items() if stage == "classify" or p.parent.name != stage}
        provenance = run_dir / "provenance.json"
        assert {p: b for p, b in files(run_dir).items() if p != provenance} == {
            p: b for p, b in kept.items() if p != provenance
        }

    def test_failure_is_prefixed_once(self, synth_csv, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataError) as info:
            run(config_for(synth_csv), empty, runs_root=tmp_path / "runs")
        assert str(info.value).count("stage '") == 1


class TestTruncatedArtifacts:
    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_truncated_artifact_is_a_cache_miss(self, kind, warm):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        stage = ARTIFACTS[kind][0]
        path = artifact(run_dir, kind)
        original = path.read_bytes()
        report = (run_dir / "report.json").read_bytes()
        truncate(path)
        for downstream in STAGES[STAGES.index(stage) + 1 :]:
            shutil.rmtree(run_dir / downstream)
        (run_dir / "report.json").unlink()
        run(cfg, data, runs_root=root)
        assert (run_dir / "report.json").read_bytes() == report
        assert path.read_bytes() == original
        assert statuses(cfg, root)[stage] == "computed"

    def test_stage_command_rejects_truncated_input(self, warm, tmp_path, capsys):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        config = tmp_path / "small.json"
        io.write_json(config, cfg.to_dict())
        diagrams = artifact(run_dir, "diagrams")
        truncate(diagrams)
        code = main([
            "distmat",
            "--config", str(config),
            "--diagrams", str(diagrams),
            "--windows", str(artifact(run_dir, "windows")),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_diagram_row_the_read_cannot_place_is_a_cache_miss(self, warm):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        path = artifact(run_dir, "diagrams")
        original = path.read_bytes()
        report = (run_dir / "report.json").read_bytes()
        with path.open("a", encoding="utf-8") as fh:
            fh.write("train,0,1,0.5,1.5\n")
        for downstream in ("distances", "classify"):
            shutil.rmtree(run_dir / downstream)
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)["diagrams"] == "computed"
        assert path.read_bytes() == original
        assert (run_dir / "report.json").read_bytes() == report

    @pytest.mark.parametrize("mismatch", ["dim1-diagrams", "fewer-windows"])
    def test_distmat_rejects_diagrams_the_windows_do_not_match(self, warm, tmp_path, capsys, mismatch):
        cfg, _, root = warm
        run_dir = root / cfg.run_id
        config, diagrams, windows = tmp_path / "small.json", artifact(run_dir, "diagrams"), artifact(run_dir, "windows")
        io.write_json(config, cfg.to_dict())
        if mismatch == "dim1-diagrams":
            clouds = io.read_clouds_csv(artifact(run_dir, "clouds"))
            diagrams = tmp_path / "dim1.diagrams.csv"
            io.write_diagrams_csv(compute_diagrams(clouds, dataclasses.replace(cfg, dimension=1, maxscale=8.0)), diagrams)
            assert ",1," in diagrams.read_text(encoding="utf-8")
        else:
            wins = io.read_windows_csv(windows)
            wins[cfg.train_split] = windows_slice(wins[cfg.train_split], slice(-2))
            windows = tmp_path / "fewer.windows.csv"
            io.write_windows_csv(wins, cfg.schema.features, windows)
        code = main([
            "distmat",
            "--config", str(config),
            "--diagrams", str(diagrams),
            "--windows", str(windows),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def keep_lines(path, fraction):
    """Cut the file after ``fraction`` of its lines: what is left parses."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[: int(len(lines) * fraction)]))


class TestArtifactDigests:
    """A stage serves its cached artifact only when the bytes still hash to
    the digest written beside them."""

    def test_each_artifact_has_its_digest(self, small_run):
        cfg, _, root = small_run
        for kind in ARTIFACTS:
            path = artifact(root / cfg.run_id, kind)
            digest = path.with_name(f"{path.name}.sha256")
            assert digest.read_text(encoding="utf-8") == io.sha256_bytes(path.read_bytes()) + "\n"

    def test_matrix_cut_at_a_row_boundary_is_recomputed(self, warm, tmp_path):
        cfg, data, root = warm
        path = artifact(root / cfg.run_id, "distmat")
        original, rows = path.read_bytes(), len(io.read_distmat_csv(path).values)
        keep_lines(path, 0.5)
        assert 0 < len(io.read_distmat_csv(path).values) < rows
        rerun = dataclasses.replace(cfg, k=7)
        run(rerun, data, runs_root=root)
        assert statuses(rerun, root)["distances"] == "computed"
        assert path.read_bytes() == original
        run(rerun, data, runs_root=tmp_path / "fresh")
        expected = (tmp_path / "fresh" / cfg.run_id / "report.json").read_bytes()
        assert (root / cfg.run_id / "report.json").read_bytes() == expected

    def test_dim1_diagrams_cut_at_a_line_boundary_are_recomputed(self, synth_csv, tmp_path):
        cfg = config_for(synth_csv, run_id="synth-d1", dimension=1, maxscale=8.0, k=3)
        root = tmp_path / "runs"
        run(cfg, synth_csv, runs_root=root)
        run_dir = root / cfg.run_id
        path = artifact(run_dir, "diagrams")
        original, report = path.read_bytes(), (run_dir / "report.json").read_bytes()
        keep_lines(path, 0.5)
        for downstream in ("distances", "classify"):
            shutil.rmtree(run_dir / downstream)
        run(cfg, synth_csv, runs_root=root)
        assert statuses(cfg, root)["diagrams"] == "computed"
        assert reasons(cfg, root) == {"diagrams": "corrupt"}
        assert path.read_bytes() == original
        assert (run_dir / "report.json").read_bytes() == report

    @pytest.mark.parametrize("damage", ["missing", "differing"])
    def test_bad_digest_recomputes_the_stage_once(self, warm, damage):
        cfg, data, root = warm
        path = artifact(root / cfg.run_id, "report")
        digest = path.with_name(f"{path.name}.sha256")
        recorded = digest.read_bytes()
        if damage == "missing":  # as in a cache written before digests
            digest.unlink()
        else:
            digest.write_text("0" * 64 + "\n", encoding="utf-8")
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)["classify"] == "computed"
        assert reasons(cfg, root) == {"classify": "unverified" if damage == "missing" else "corrupt"}
        assert digest.read_bytes() == recorded
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root) == WARM
        assert reasons(cfg, root) == {}

    def test_cold_run_hashes_only_the_input(self, synth_csv, tmp_path, monkeypatch):
        # Each digest comes from the bytes as they were written, not a read-back.
        hashed, sha256_file = [], io.sha256_file
        monkeypatch.setattr(io, "sha256_file", lambda path: (hashed.append(Path(path)), sha256_file(path))[1])
        cfg = config_for(synth_csv)
        run(cfg, synth_csv, runs_root=tmp_path)
        assert hashed == [Path(synth_csv)]
        for kind in ARTIFACTS:
            path = artifact(tmp_path / cfg.run_id, kind)
            assert path.with_name(f"{path.name}.sha256").read_text(encoding="utf-8") == sha256_file(path) + "\n"


def drop_downstream(run_dir, kind):
    """Delete the stages after the one that writes ``kind``, so a run reads it."""
    stage = ARTIFACTS[kind][0]
    for downstream in STAGES[STAGES.index(stage) + 1 :]:
        shutil.rmtree(run_dir / downstream)
    return stage


class TestMissReasons:
    """Provenance says why a stage whose artifact existed was recomputed, and
    the stage writes its artifact again; stages computed without an artifact
    or over one that passes its digest, and stages served from cache, give
    none."""

    @pytest.mark.parametrize("kind", ["series", "distmat", "report"])
    def test_corrupt(self, warm, kind):
        cfg, data, root = warm
        path = artifact(root / cfg.run_id, kind)
        original = path.read_bytes()
        truncate(path)
        stage = drop_downstream(root / cfg.run_id, kind)
        run(cfg, data, runs_root=root)
        assert reasons(cfg, root) == {stage: "corrupt"}
        assert statuses(cfg, root)[stage] == "computed"
        assert path.read_bytes() == original

    @pytest.mark.parametrize("kind", ["windows", "params"])
    def test_unverified(self, warm, kind):
        cfg, data, root = warm
        path = artifact(root / cfg.run_id, kind)
        digest = path.with_name(f"{path.name}.sha256")
        recorded = digest.read_bytes()
        digest.unlink()
        stage = drop_downstream(root / cfg.run_id, kind)
        run(cfg, data, runs_root=root)
        assert reasons(cfg, root) == {stage: "unverified"}
        assert statuses(cfg, root)[stage] == "computed"
        assert digest.read_bytes() == recorded

    @pytest.mark.parametrize("kind", ["diagrams", "distmat", "report"])
    def test_unreadable(self, warm, kind):
        # Bytes that match their digest but that the reader rejects.
        cfg, data, root = warm
        path = artifact(root / cfg.run_id, kind)
        original = path.read_bytes()
        path.write_text("{means: []}", encoding="utf-8")
        path.with_name(f"{path.name}.sha256").write_text(io.sha256_file(path) + "\n", encoding="utf-8")
        stage = drop_downstream(root / cfg.run_id, kind)
        run(cfg, data, runs_root=root)
        assert reasons(cfg, root) == {stage: "unreadable"}
        assert statuses(cfg, root)[stage] == "computed"
        assert path.read_bytes() == original

    @pytest.mark.parametrize(
        "change",
        [{"confusion": [[-20, 0], [2.5, 20]]}, {"confusion": [["3", 0], [0, True]]}, {"classes": [1, 1]}],
        ids=["negative-and-float", "string-and-bool", "duplicate-classes"],
    )
    def test_report_with_values_no_writer_writes(self, warm, change):
        # Vouched for by its digest, but not a report a run could write.
        cfg, data, root = warm
        path, stable = artifact(root / cfg.run_id, "report"), root / cfg.run_id / "report.json"
        original, fresh = path.read_bytes(), stable.read_bytes()
        io.write_json(path, {**io.read_json(path), **change})
        path.with_name(f"{path.name}.sha256").write_text(io.sha256_file(path) + "\n", encoding="utf-8")
        run(cfg, data, runs_root=root)
        assert (statuses(cfg, root)["classify"], reasons(cfg, root)) == ("computed", {"classify": "unreadable"})
        assert path.read_bytes() == original and stable.read_bytes() == fresh

    @pytest.mark.parametrize("kind", ["series", "windows", "params", "clouds"])
    def test_a_stage_never_read_keeps_bytes_that_match_their_digest(self, warm, kind, tmp_path):
        # The run computes the stage from the data, so bytes its reader
        # would reject reach nothing, and a digest that matches them keeps
        # the file.
        cfg, data, root = warm
        path = artifact(root / cfg.run_id, kind)
        path.write_text("{means: []}", encoding="utf-8")
        path.with_name(f"{path.name}.sha256").write_text(io.sha256_file(path) + "\n", encoding="utf-8")
        stage = drop_downstream(root / cfg.run_id, kind)
        run(cfg, data, runs_root=root)
        assert reasons(cfg, root) == {}
        assert statuses(cfg, root)[stage] == "computed"
        assert path.read_text(encoding="utf-8") == "{means: []}"
        run(cfg, data, runs_root=tmp_path / "fresh")
        fresh = (tmp_path / "fresh" / cfg.run_id / "report.json").read_bytes()
        assert (root / cfg.run_id / "report.json").read_bytes() == fresh

    @pytest.mark.parametrize("use_cache", [True, False], ids=["missing-artifact", "no-cache"])
    def test_no_reason_without_a_failed_check(self, warm, use_cache):
        cfg, data, root = warm
        artifact(root / cfg.run_id, "report").unlink()
        run(cfg, data, runs_root=root, use_cache=use_cache)
        assert statuses(cfg, root)["classify"] == "computed"
        assert reasons(cfg, root) == {}

    def test_describe_prints_no_reason(self, warm, tmp_path, capsys):
        cfg, data, root = warm
        truncate(artifact(root / cfg.run_id, "report"))
        config = tmp_path / "small.json"
        io.write_json(config, cfg.to_dict())
        assert main(["run", "--config", str(config), "--data", str(data), "--out", str(root), "--describe"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert reasons(cfg, root) == {"classify": "corrupt"}
        assert [line.split(" key=")[0] for line in lines[-7:]] == [
            "ingest: computed",
            "windows: computed",
            "standardize: skipped",
            "clouds: skipped",
            "diagrams: cached",
            "distances: cached",
            "classify: computed",
        ]
        assert all(re.fullmatch(r"\w+: \w+ key=[0-9a-f]{16} \([0-9.e-]+s\)", line) for line in lines[-7:])

    def test_a_rejected_read_counts_in_the_computed_stage(self, small_run, tmp_path, monkeypatch):
        # The seconds spent reading an artifact its reader rejects are part
        # of the stage that is then computed.
        cfg, data, _ = small_run
        root = tmp_path / "runs"

        def rejecting(path, shape):
            time.sleep(0.2)
            raise DataError("rejected")

        entries = []
        for rerun in (cfg, cfg, dataclasses.replace(cfg, k=cfg.k + 2)):  # cold, warm, another k
            if rerun is not cfg:
                monkeypatch.setattr(io, "read_distmat_csv", rejecting)
            run(rerun, data, runs_root=root)
            entries += describe_run(cfg.run_id, root)["stages"]
        assert reasons(cfg, root) == {"distances": "unreadable"}
        distances = entries[-2]
        assert (distances["stage"], distances["status"]) == ("distances", "computed")
        assert distances["duration_s"] >= 0.2
        fields = {"stage", "key", "path", "status", "duration_s"}
        assert [set(entry) ^ fields for entry in entries] == [set()] * 19 + [{"reason"}, set()]


def set_cell(path, line, column, text):
    """Replace cell ``column`` of line ``line`` (1-based) of an unquoted CSV."""
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[line - 1].split(",")
    cells[column] = text(cells[column]) if callable(text) else text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def set_first_mean(path, value):
    payload = io.read_json(path)
    payload["means"][0] = value
    io.write_json(path, payload)


# Case: (artifact kind, damage, what stderr says after "data error: <file>: ").
MALFORMED = {
    "series-value": ("series", lambda p: set_cell(p, 2, 1, lambda c: "x" + c), "1 malformed row(s): line 2: could not convert string to float: 'x"),
    "distmat-header-only": (
        "distmat",
        lambda p: p.write_text(p.read_text(encoding="utf-8").split("\n")[0] + "\n", encoding="utf-8"),
        "values shaped (0,), expected a (test, train) matrix",
    ),
    "distmat-cell": ("distmat", lambda p: set_cell(p, 2, 1, lambda c: "abc" + c), "line 2: could not convert string to float: 'abc"),
    "windows-point": ("windows", lambda p: set_cell(p, 2, 2, "x"), "line 2: invalid literal for int() with base 10: 'x'"),
    "diagrams-death": ("diagrams", lambda p: set_cell(p, 2, 4, "zz"), "line 2: could not convert string to float: 'zz'"),
    "diagrams-negative-death": ("diagrams", lambda p: set_cell(p, 2, 4, "-1.0"), "line 2: invalid diagram point (0.0, -1.0)"),
    "params-mean": ("params", lambda p: set_first_mean(p, "abc"), "could not convert string to float: 'abc'"),
    "params-not-json": (
        "params",
        lambda p: p.write_text("{means: []}", encoding="utf-8"),
        "Expecting property name enclosed in double quotes",
    ),
}


def stage_command(kind, run_dir, damaged):
    """A stage command that reads the ``kind`` artifact, given ``damaged``
    in its place and the run's own artifacts for its other inputs."""
    windows = str(artifact(run_dir, "windows"))
    return {
        "series": ["windows", "--series", str(damaged)],
        "distmat": ["classify", "--matrix", str(damaged), "--windows", windows],
        "windows": ["classify", "--matrix", str(artifact(run_dir, "distmat")), "--windows", str(damaged)],
        "diagrams": ["distmat", "--diagrams", str(damaged), "--windows", windows],
        "params": ["diagrams", "--windows", windows, "--params", str(damaged)],
    }[kind]


class TestMalformedArtifacts:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_stage_command_is_a_data_error_naming_the_file(self, warm, tmp_path, capsys, case):
        cfg, _, root = warm
        run_dir = root / cfg.run_id
        kind, damage, message = MALFORMED[case]
        damaged = tmp_path / artifact(run_dir, kind).name
        shutil.copyfile(artifact(run_dir, kind), damaged)
        damage(damaged)
        config = tmp_path / "small.json"
        io.write_json(config, cfg.to_dict())
        argv = [*stage_command(kind, run_dir, damaged), "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {damaged}: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", MALFORMED)
    def test_cached_artifact_is_a_cache_miss(self, warm, case):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        kind, damage, _ = MALFORMED[case]
        stage, path = ARTIFACTS[kind][0], artifact(run_dir, kind)
        original = path.read_bytes()
        reports = {name: (run_dir / name).read_bytes() for name in ("report.json", "report.txt")}
        damage(path)
        for downstream in STAGES[STAGES.index(stage) + 1 :]:
            shutil.rmtree(run_dir / downstream)
        (run_dir / "report.json").unlink()
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)[stage] == "computed"
        assert path.read_bytes() == original
        assert {name: (run_dir / name).read_bytes() for name in reports} == reports


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_artifact(self, warm):
        cfg, data, root = warm
        run_dir = root / cfg.run_id

        def files():
            return {p: p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}

        before = files()
        path = artifact(run_dir, "distmat")
        matrix = io.read_distmat_csv(path)
        # The last cell cannot be formatted, so the writer raises after its header.
        values = matrix.values.astype(object)
        values[-1, -1] = "not a number"
        with pytest.raises(ValueError):
            io.write_distmat_csv(SimpleNamespace(values=values), path)
        assert files() == before  # old bytes, and no temp file left behind
        run(cfg, data, runs_root=root)
        provenance = run_dir / "provenance.json"
        after = files()
        assert {p: b for p, b in after.items() if p != provenance} == {
            p: b for p, b in before.items() if p != provenance
        }

    def test_stream_that_raises_after_its_first_chunk_keeps_the_old_artifact(self, warm):
        cfg, _, root = warm
        before = files(root)
        path = artifact(root / cfg.run_id, "series")

        def chunks():
            yield "timestamp,f0,f1,f2,label\n"
            raise DataError("second chunk")

        for target in (path, path.with_name("new.csv")):
            with pytest.raises(DataError, match="second chunk"):
                io.write_text(target, chunks())
        assert files(root) == before  # old bytes, no new file and no temp file left behind


def files(run_dir):
    return {p: p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


class TestUnchangedFilesAreNotRewritten:
    @pytest.mark.parametrize("use_cache", [True, False], ids=["cached", "no-cache"])
    def test_rerun_replaces_only_provenance(self, warm, replaced, use_cache):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        provenance = run_dir / "provenance.json"
        before = files(run_dir)
        run(cfg, data, runs_root=root, use_cache=use_cache)
        assert replaced == [provenance]
        after = files(run_dir)
        assert after.keys() == before.keys()
        assert {p: b for p, b in after.items() if p != provenance} == {
            p: b for p, b in before.items() if p != provenance
        }
        assert statuses(cfg, root) == (WARM if use_cache else dict.fromkeys(STAGES, "computed"))

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("report.txt", lambda p: p.write_text(p.read_text(encoding="utf-8") + "edited\n", encoding="utf-8")),
            ("report.json", truncate),
            # Same size, other bytes: only a content comparison catches it.
            ("report.txt", lambda p: p.write_bytes(p.read_bytes().swapcase())),
        ],
        ids=["edited-txt", "truncated-json", "same-size-txt"],
    )
    def test_damaged_report_copy_is_rewritten(self, warm, replaced, name, damage):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        path = run_dir / name
        original = path.read_bytes()
        damage(path)
        assert path.read_bytes() != original
        run(cfg, data, runs_root=root)
        assert path.read_bytes() == original
        assert replaced == [path, run_dir / "provenance.json"]

    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_truncated_artifact_is_rewritten_in_full(self, kind, warm, replaced):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        stage = ARTIFACTS[kind][0]
        path = artifact(run_dir, kind)
        before = files(run_dir)
        truncate(path)
        downstream = STAGES[STAGES.index(stage) + 1 :]
        for name in downstream:
            shutil.rmtree(run_dir / name)
        run(cfg, data, runs_root=root)
        provenance = run_dir / "provenance.json"
        after = files(run_dir)
        assert {p: b for p, b in after.items() if p != provenance} == {
            p: b for p, b in before.items() if p != provenance
        }
        # The damaged artifact and the deleted downstream ones are written;
        # report.txt and the report copy of an unchanged report are not.
        rewritten = {path, provenance, *(p for p in after if p.parent.name in downstream)}
        assert set(replaced) == rewritten
        assert len(replaced) == len(rewritten)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """(config, data, runs root) of a finished run whose series (3000 rows)
    and matrix (239 x 359) are each longer than one write chunk, with
    overlapping windows."""
    base = tmp_path_factory.mktemp("long")
    data = base / "synthetic.csv"
    io.write_series_csv(synthetic_two_class_series(n_windows=300), data)
    cfg = PipelineConfig.from_dict({**synthetic_config_dict("long", data, n_windows=300), "stride": 5})
    run(cfg, data, runs_root=base / "runs")
    return cfg, data, base / "runs"


class TestArtifactsRewriteToTheirBytes:
    """A cold run's artifacts, some written through the writers' shared row
    memo, are what the plain writers write for the values read back."""

    def test_long_run_spans_several_chunks(self, long_run):
        cfg, _, root = long_run
        assert len(io.read_series_csv(artifact(root / cfg.run_id, "series")).timestamps) > io._CHUNK_ROWS
        assert io.read_distmat_csv(artifact(root / cfg.run_id, "distmat")).values.size > 2 * io._CHUNK_CELLS

    @pytest.mark.parametrize("which", ["small_run", "long_run"])
    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_plain_writer_reproduces_the_artifact(self, request, tmp_path, kind, which):
        cfg, _, root = request.getfixturevalue(which)
        run_dir = root / cfg.run_id
        windows = io.read_windows_csv(artifact(run_dir, "windows"))
        counts = {split: len(wins) for split, wins in windows.items()}
        read, write = {
            "series": (io.read_series_csv, io.write_series_csv),
            "params": (io.read_params_json, io.write_params_json),
            "windows": (io.read_windows_csv, lambda v, p: io.write_windows_csv(v, cfg.schema.features, p)),
            "clouds": (io.read_clouds_csv, io.write_clouds_csv),
            "diagrams": (
                lambda p: io.read_diagrams_csv(p, counts, cfg.dimension),
                io.write_diagrams_csv,
            ),
            "distmat": (io.read_distmat_csv, io.write_distmat_csv),
            "report": (io.read_report_json, io.write_report_json),
        }[kind]
        path = artifact(run_dir, kind)
        write(read(path), tmp_path / path.name)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes()


# Per stage function: the objects of its value that a run must free.
HELD = {
    "load_csv": lambda series: [series, series.values],
    "cut_windows": lambda windows: [wins.points for wins in windows.values()],
    "build_clouds": lambda clouds: list(clouds.values()),
    "compute_diagrams": lambda diagrams: [d.deaths for d in diagrams.values()],
}


def holding(monkeypatch, producers):
    """Wrap each of ``producers`` in ``topowin.pipeline``; the returned list
    collects weak references to the ``HELD`` objects of what they return."""
    refs = []

    def wrap(produce, held):
        def producing(*args):
            value = produce(*args)
            refs.extend(map(weakref.ref, held(value)))
            return value

        return producing

    for name in producers:
        monkeypatch.setattr(topowin.pipeline, name, wrap(getattr(topowin.pipeline, name), HELD[name]))
    return refs


def alive_when(monkeypatch, consumer, refs):
    """Wrap ``consumer``; the returned list gets, per call, how many of
    ``refs`` are alive as it starts."""
    consume, alive = getattr(topowin.pipeline, consumer), []

    def consuming(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return consume(*args)

    monkeypatch.setattr(topowin.pipeline, consumer, consuming)
    return alive


class TestTrainAndTest:
    @pytest.mark.parametrize("pick, what", [(compute_distances, "diagrams"), (split_labels, "windows")])
    def test_a_missing_split_is_named_with_what_holds_it(self, small_run, pick, what):
        cfg, _, _ = small_run
        with pytest.raises(DataError) as info:
            pick({"train": None, "other": None}, cfg)
        assert str(info.value) == f"no split named 'test' in {what} (have ['other', 'train'])"

    def test_split_labels_are_the_train_then_the_test_labels(self, small_run):
        cfg, data, _ = small_run
        windows = cut_windows(load_csv(data, cfg.schema), cfg)
        assert split_labels(windows, cfg) == (windows["train"].labels.tolist(), windows["test"].labels.tolist())


class TestRunFreesItsValues:
    def test_no_reference_cycle_outlives_a_cold_run(self, small_run, tmp_path, monkeypatch):
        # A cycle through a run's values would hold them until the next
        # collection, raising the next run's peak memory.
        cfg, data, _ = small_run
        refs = holding(monkeypatch, HELD)
        gc.collect()
        gc.disable()
        try:
            run(cfg, data, runs_root=tmp_path, use_cache=False)
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert refs and alive == 0

    @pytest.mark.parametrize(
        "producer, consumer",
        [("load_csv", "compute_diagrams"), ("build_clouds", "compute_distances")],
        ids=["series-before-diagrams", "clouds-before-distances"],
    )
    def test_value_is_freed_before_a_later_stage_starts(self, small_run, tmp_path, monkeypatch, producer, consumer):
        cfg, data, _ = small_run
        refs = holding(monkeypatch, [producer])
        alive = alive_when(monkeypatch, consumer, refs)
        run(cfg, data, runs_root=tmp_path)
        assert refs and alive == [0]

    def test_changing_p_cuts_the_windows_after_the_distances(self, warm, monkeypatch):
        # The served diagrams need no series or windows; the report's labels
        # are cut from the data once the matrix is computed.
        cfg, data, root = warm
        refs = holding(monkeypatch, ["load_csv", "cut_windows"])
        alive = alive_when(monkeypatch, "compute_distances", refs)
        run(dataclasses.replace(cfg, p=2.0), data, runs_root=root)
        assert refs and alive == [0]


class TestRunArguments:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_on_a_cached_run(self, warm, workers, monkeypatch):
        cfg, data, root = warm
        before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        def unexpected(*args, **kwargs):
            raise AssertionError("a stage was resolved")

        monkeypatch.setattr(io, "read_report_json", unexpected)
        with pytest.raises(ValueError, match="workers"):
            run(cfg, data, runs_root=root, workers=workers)
        assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before


    def test_workers_change_no_byte_and_start_no_process(self, synth_csv, tmp_path, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        payload = synthetic_config_dict("d1", synth_csv, n_windows=30)
        payload.update(dimension=1, maxscale=8.0, k=3)
        cfg = PipelineConfig.from_dict(payload)
        runs = []
        for workers in (1, 2):
            root = tmp_path / f"workers-{workers}"
            run(cfg, synth_csv, runs_root=root, workers=workers)
            run_dir = root / cfg.run_id
            # provenance.json holds the runs root and timings; its stage keys are compared.
            files = {
                p.relative_to(run_dir): p.read_bytes()
                for p in sorted(run_dir.rglob("*"))
                if p.is_file() and p.name != "provenance.json"
            }
            stages = [(s["stage"], s["key"], s["status"]) for s in describe_run(cfg.run_id, root)["stages"]]
            runs.append((files, stages))
        assert runs[0] == runs[1]


class TestDistanceCacheVersion:
    def test_artifact_under_the_unversioned_key_is_recomputed(self, warm):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        keys = {s["stage"]: s["key"] for s in describe_run(cfg.run_id, root)["stages"]}
        # The distances key of a cache written before the stage had a version:
        # no version entry in its params, and none in the key itself.
        old_params = {"p": repr(float(cfg.p)), "train": cfg.train_split, "test": cfg.test_split}
        payload = {"stage": "distances", "parent": keys["diagrams"], "params": old_params}
        old_key = io.sha256_bytes(json.dumps(payload, sort_keys=True).encode("utf-8"))[:16]
        assert old_key != keys["distances"]
        current = artifact(run_dir, "distmat")
        original = current.read_bytes()
        report = (run_dir / "report.json").read_bytes()
        matrix = io.read_distmat_csv(current)
        stale = DistanceMatrix(matrix.values[:, ::-1])
        stale_path = run_dir / "distances" / f"{old_key}.distmat.csv"
        io.write_distmat_csv(stale, stale_path)
        current.unlink()
        shutil.rmtree(run_dir / "classify")
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)["distances"] == "computed"
        assert current.read_bytes() == original
        assert (run_dir / "report.json").read_bytes() == report


def clouds_of(cfg, data):
    """The augmented clouds of every split, from the stage functions."""
    series = load_csv(data, cfg.schema)
    return build_clouds(cut_windows(series, cfg), standardize(series, cfg), cfg)


def counting(monkeypatch, name):
    """Replace ``topowin.pipeline.<name>`` with a wrapper that counts calls."""
    calls = []
    original = getattr(topowin.pipeline, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(topowin.pipeline, name, wrapper)
    return calls


class TestDiagramsStage:
    @pytest.mark.parametrize(
        "extra", [{}, {"essential_policy": "capped", "maxscale": 3.0}], ids=["dropped", "capped"]
    )
    def test_dim0_is_one_batched_call_per_split(self, synth_csv, tmp_path, monkeypatch, extra):
        payload = synthetic_config_dict("batched", synth_csv, n_windows=30)
        payload.update(extra)
        cfg = PipelineConfig.from_dict(payload)
        clouds = clouds_of(cfg, synth_csv)
        expected = tmp_path / "expected.csv"
        io.write_diagrams_csv(
            {
                name: Diagrams.from_pairs(
                    0, [rips_persistence_dim0(c, cfg.essential_policy, cfg.maxscale).pairs for c in split]
                )
                for name, split in clouds.items()
            },
            expected,
        )

        def per_cloud(*args, **kwargs):
            raise AssertionError("per-cloud dimension-0 call")

        monkeypatch.setattr(topowin.pipeline, "rips_persistence_dim0", per_cloud)
        calls = counting(monkeypatch, "rips_persistence_dim0_batch")
        root = tmp_path / "runs"
        run(cfg, synth_csv, runs_root=root)
        assert len(calls) == len(clouds)
        (written,) = (root / "batched" / "diagrams").glob("*.diagrams.csv")
        assert written.read_bytes() == expected.read_bytes()

        config, out = tmp_path / "batched.json", tmp_path / "stages"
        io.write_json(config, payload)
        for command, *argv in (
            ["ingest", "--data", synth_csv],
            ["windows", "--series", out / "series.csv"],
            ["diagrams", "--windows", out / "windows.csv", "--params", out / "params.json"],
        ):
            assert main([command, "--config", str(config), "--out", str(out), *map(str, argv)]) == 0
        assert len(calls) == 2 * len(clouds)
        assert (out / "diagrams.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "extra", [{}, {"essential_policy": "capped", "maxscale": 3.0}], ids=["dropped", "capped"]
    )
    def test_cold_dim0_run_builds_no_diagram(self, synth_csv, tmp_path, monkeypatch, extra):
        # Each split's deaths array goes from the batched pass to the writer
        # and the distances as it is.
        payload = synthetic_config_dict("arrays", synth_csv, n_windows=30)
        payload.update(extra)
        cfg = PipelineConfig.from_dict(payload)
        batched = counting(monkeypatch, "rips_persistence_dim0_batch")
        matrices = counting(monkeypatch, "distance_matrix")
        built = []
        check = PersistenceDiagram.__post_init__
        monkeypatch.setattr(PersistenceDiagram, "__post_init__", lambda diag: built.append(check(diag)))
        run(cfg, synth_csv, runs_root=tmp_path / "runs")
        assert len(batched) == len(cfg.splits.names())
        ((test, train, _),) = matrices
        assert isinstance(test, Diagrams) and isinstance(train, Diagrams)
        assert built == []

    def test_dim1_is_one_call_per_cloud(self, synth_csv, tmp_path, monkeypatch):
        payload = synthetic_config_dict("per-cloud", synth_csv, n_windows=30)
        payload.update(dimension=1, maxscale=8.0, k=3)
        cfg = PipelineConfig.from_dict(payload)
        calls = counting(monkeypatch, "rips_persistence_dim1")
        batched = counting(monkeypatch, "rips_persistence_dim0_batch")
        run(cfg, synth_csv, runs_root=tmp_path / "runs")
        assert len(calls) == sum(len(split) for split in clouds_of(cfg, synth_csv).values())
        assert batched == []


class TestStageVersion:
    @pytest.mark.parametrize("stage", STAGES)
    def test_bump_changes_its_key_and_every_later_one(self, warm, monkeypatch, stage):
        cfg, data, root = warm
        before = {s["stage"]: s["key"] for s in describe_run(cfg.run_id, root)["stages"]}
        monkeypatch.setitem(io.STAGE_VERSION, stage, io.STAGE_VERSION[stage] + 1)
        run(cfg, data, runs_root=root)
        after = {s["stage"]: s["key"] for s in describe_run(cfg.run_id, root)["stages"]}
        i = STAGES.index(stage)
        assert [after[s] == before[s] for s in STAGES] == [True] * i + [False] * (len(STAGES) - i)

    def test_every_stage_has_a_version(self):
        assert tuple(io.STAGE_VERSION) == STAGES


def standardized_clouds_csv(cfg, data, path):
    """The clouds CSV by the two-step oracle: standardize the whole series,
    cut it, then translate and anchor one window at a time."""
    series = load_csv(data, cfg.schema)
    windows = cut_windows(apply_standardizer(series, standardize(series, cfg)), cfg)
    d = len(cfg.schema.features)
    aug = AugmentConfig(resolve_offset(cfg.offset, d), resolve_anchors(cfg.anchors, d))
    io.write_clouds_csv({name: np.array([augment(w, aug) for w in wins]) for name, wins in windows.items()}, path)


class TestCloudsStage:
    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"anchors": "none"},
            {"anchors": [[1.0, -2.0, 0.5], [0.0, 3.0, 1e-3]], "offset": [0.5, 10.0, -4.0]},
            {"anchors": "none", "offset": "0,0.1,0.2", "standardize": "fit_on_train"},
            {"dimension": 1, "maxscale": 8.0, "k": 3},
            {"dimension": 1, "maxscale": 8.0, "k": 3, "anchors": [[2.0, 2.0, 2.0]], "offset": [1.0, 0.0, 3.0]},
        ],
        ids=["dim0-origin-auto", "dim0-none-auto", "dim0-explicit", "dim0-none-explicit-train", "dim1-origin-auto", "dim1-explicit"],
    )
    def test_clouds_equal_per_window_augment_of_standardized_windows(self, synth_csv, tmp_path, extra):
        payload = synthetic_config_dict("oracle", synth_csv, n_windows=30)
        payload.update(extra)
        cfg = PipelineConfig.from_dict(payload)
        run(cfg, synth_csv, runs_root=tmp_path / "runs")
        standardized_clouds_csv(cfg, synth_csv, tmp_path / "expected.csv")
        (written,) = (tmp_path / "runs" / "oracle" / "clouds").glob("*.clouds.csv")
        assert written.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_windows_hold_the_series_rows(self, small_run):
        cfg, _, root = small_run
        run_dir = root / cfg.run_id
        series = artifact(run_dir, "series").read_text(encoding="utf-8").splitlines()[1:]
        windows = artifact(run_dir, "windows").read_text(encoding="utf-8").splitlines()[1:]
        starts = {r.name: r.start for r in cfg.splits.boundaries}
        assert len(windows) == sum(r.stop - r.start for r in cfg.splits.boundaries)
        for line in windows:
            split, window, point, _, _, _, *cells = line.split(",")
            row = starts[split] + int(window) * cfg.stride + int(point)
            assert cells == series[row].split(",")[1:-1]

    def test_overflowing_coordinate_is_a_data_error_in_clouds(self, tmp_path, capsys):
        # Train rows of f0 alternate 0 and 2e-150 (SD 1e-150); one test row
        # is 1e200 SDs away, which overflows when standardized.
        series = synthetic_two_class_series(n_windows=30)
        values = series.values.copy()
        values[:180, 0] = np.tile([0.0, 2e-150], 90)
        values[245, 0] = 1e200
        data = tmp_path / "tiny-sd.csv"
        io.write_series_csv(dataclasses.replace(series, values=values), data)
        payload = synthetic_config_dict("tiny-sd", data, n_windows=30)
        payload["standardize"] = "fit_on_train"
        config = tmp_path / "tiny-sd.json"
        io.write_json(config, payload)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: stage 'clouds': split 'test': window 6: ")
        assert not list((tmp_path / "runs" / "tiny-sd").glob("clouds/*"))


def without_window(path, split, window):
    """Drop the rows of one window from a diagrams CSV."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith(f"{split},{window},")), encoding="utf-8")


class TestDiagramsSkippingAWindow:
    def test_distmat_rejects_a_dim0_file_without_a_window(self, warm, tmp_path, capsys):
        cfg, _, root = warm
        run_dir = root / cfg.run_id
        diagrams = tmp_path / "d.csv"
        shutil.copy(artifact(run_dir, "diagrams"), diagrams)
        without_window(diagrams, "train", 17)
        config = tmp_path / "small.json"
        io.write_json(config, cfg.to_dict())
        argv = ["distmat", "--config", str(config), "--diagrams", str(diagrams)]
        assert main([*argv, "--windows", str(artifact(run_dir, "windows")), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"data error: {diagrams}: no rows for split 'train' window 17\n"
        assert not (tmp_path / "out").exists()

    def test_run_treats_it_as_a_cache_miss(self, warm):
        cfg, data, root = warm
        run_dir = root / cfg.run_id
        path = artifact(run_dir, "diagrams")
        original, report = path.read_bytes(), (run_dir / "report.json").read_bytes()
        without_window(path, "test", 11)
        for downstream in ("distances", "classify"):
            shutil.rmtree(run_dir / downstream)
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)["diagrams"] == "computed"
        assert path.read_bytes() == original
        assert (run_dir / "report.json").read_bytes() == report

    def test_dim1_window_without_rows_reads_as_empty(self, warm, tmp_path):
        cfg, _, root = warm
        cfg1 = dataclasses.replace(cfg, dimension=1, maxscale=8.0)
        path = tmp_path / "dim1.csv"
        io.write_diagrams_csv({"train": Diagrams.from_pairs(1, []), "test": Diagrams.from_pairs(1, [])}, path)
        diagrams = io.read_diagrams_csv(path, {"train": 18, "test": 12}, cfg1.dimension)
        assert [len(diagrams[name]) for name in ("train", "test")] == [18, 12]
        assert all(not d.pairs for ds in diagrams.values() for d in ds)


UNIT_SERIES = synthetic_two_class_series(n_windows=10)


def unit_run(base, e):
    """Run the 10-window synthetic config over ``UNIT_SERIES`` with channel
    f0 scaled by 2**e, in its own runs root under ``base``; the run's
    directory."""
    values = UNIT_SERIES.values.copy()
    values[:, 0] = np.ldexp(values[:, 0], e)
    data = base / "series.csv"
    io.write_series_csv(dataclasses.replace(UNIT_SERIES, values=values), data)
    cfg = PipelineConfig.from_dict(synthetic_config_dict("unit", data, n_windows=10))
    run(cfg, data, runs_root=base / "runs")
    return base / "runs" / cfg.run_id


@pytest.fixture(scope="module")
def unit_run_at_0(tmp_path_factory):
    return unit_run(tmp_path_factory.mktemp("unit-0"), 0)


def normal_exponents():
    """The e at which f0 scaled by 2**e, its sum over the rows, its mean and
    its SD all stay normal floats."""
    f0 = UNIT_SERIES.values[:, 0]
    smallest = min(np.abs(f0[f0 != 0]).min(), abs(f0.mean()), f0.std())
    largest = np.abs(f0).sum()
    return -1022 - math.floor(math.log2(smallest)), 1023 - math.ceil(math.log2(largest))


class TestChannelUnit:
    """Scaling a channel by a power of two scales its mean and SD by exactly
    that power and leaves every artifact after the standardize stage
    byte-identical."""

    @settings(max_examples=8, deadline=None)
    @given(e=st.integers(*normal_exponents()))
    @example(e=-520)  # the squared deviations would be subnormal and lose bits
    @example(e=510)  # the squared deviations would overflow
    def test_a_power_of_two_changes_only_the_params(self, unit_run_at_0, tmp_path_factory, e):
        run_dir = unit_run(tmp_path_factory.mktemp("unit"), e)
        params, want = (io.read_params_json(artifact(d, "params")) for d in (run_dir, unit_run_at_0))
        scale = np.array([e, 0, 0])
        assert params.means.tobytes() == np.ldexp(want.means, scale).tobytes()
        assert params.standard_deviations.tobytes() == np.ldexp(want.standard_deviations, scale).tobytes()
        for kind in ("clouds", "diagrams", "distmat", "report"):
            assert artifact(run_dir, kind).read_bytes() == artifact(unit_run_at_0, kind).read_bytes(), kind
