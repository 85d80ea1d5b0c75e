import dataclasses
import json
import multiprocessing.process
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import topowin.pipeline
from topowin import (
    DataError,
    PipelineConfig,
    apply_standardizer,
    describe_run,
    io,
    load_csv,
    resolve_anchors,
    resolve_offset,
    rips_persistence_dim0,
    run,
)
from topowin.cli import main
from topowin.pipeline import build_clouds, cut_windows, default_runs_root, standardize
from conftest import synthetic_config_dict


class TwoArgumentDataError(DataError):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


STAGES = ("ingest", "standardize", "windows", "clouds", "diagrams", "distances", "classify")
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

    @pytest.mark.parametrize("spec", [{"anchors": None}, {"offset": None}, {"anchors": None, "offset": None}])
    def test_round_trip_keeps_null_offset_and_anchors(self, synth_csv, spec):
        cfg = config_for(synth_csv, **spec)
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert {name: payload[name] for name in spec} == spec
        assert PipelineConfig.from_dict(payload) == cfg

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
        ],
    )
    def test_ill_typed_field_names_the_field(self, synth_csv, field, value):
        payload = synthetic_config_dict("synth", synth_csv)
        payload[field] = value
        with pytest.raises(ValueError, match=f"config field '{field}' must be"):
            PipelineConfig.from_dict(payload)

    @pytest.mark.parametrize("maxscale", [3, 2.5])
    def test_maxscale_is_stored_as_given(self, synth_csv, maxscale):
        assert json.dumps(config_for(synth_csv, maxscale=maxscale).to_dict()["maxscale"]) == json.dumps(maxscale)

    def test_dimension_one_needs_maxscale(self, synth_csv):
        with pytest.raises(ValueError, match="maxscale"):
            config_for(synth_csv, dimension=1)

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
            "standardize",
            "windows",
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
        prov = describe_run("synth", root)
        assert all(s["status"] == "cached" for s in prov["stages"])

    def test_changing_k_reuses_distances(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        run(config_for(synth_csv, k=5), synth_csv, runs_root=root)
        run(config_for(synth_csv, k=7), synth_csv, runs_root=root)
        status = {s["stage"]: s["status"] for s in describe_run("synth", root)["stages"]}
        assert status["distances"] == "cached"
        assert status["classify"] == "computed"

    def test_changing_window_recomputes_downstream(self, synth_csv, tmp_path):
        root = tmp_path / "runs"
        run(config_for(synth_csv), synth_csv, runs_root=root)
        cfg2 = config_for(synth_csv, stride=5)
        run(cfg2, synth_csv, runs_root=root)
        status = {s["stage"]: s["status"] for s in describe_run("synth", root)["stages"]}
        assert status["ingest"] == "cached"
        assert status["standardize"] == "cached"
        assert status["windows"] == "computed"
        assert status["distances"] == "computed"

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
        assert list(statuses(cfg, root).values()) == ["cached"] * 7

    def test_changing_k_reads_only_matrix_and_windows(self, warm, monkeypatch):
        cfg, data, root = warm
        called = recording_reads(monkeypatch)
        run(dataclasses.replace(cfg, k=3), data, runs_root=root)
        assert sorted(set(called)) == [("read_distmat_csv", "distances"), ("read_windows_csv", "windows")]
        status = statuses(cfg, root)
        assert status["classify"] == "computed"
        assert all(status[stage] == "cached" for stage in STAGES[:-1])

    def test_standardize_artifact_is_the_params(self, small_run):
        cfg, _, root = small_run
        keys = {s["stage"]: s["key"] for s in describe_run(cfg.run_id, root)["stages"]}
        assert [p.name for p in (root / cfg.run_id / "standardize").iterdir()] == [f"{keys['standardize']}.params.json"]

    def test_changing_window_reads_series_and_params(self, warm, monkeypatch, tmp_path):
        cfg, data, root = warm
        cfg = dataclasses.replace(cfg, window=dataclasses.replace(cfg.window, w=5))
        called = recording_reads(monkeypatch)
        run(cfg, data, runs_root=root)
        # read_params_json parses through read_json.
        assert sorted(set(called)) == [
            ("read_json", "standardize"),
            ("read_params_json", "standardize"),
            ("read_series_csv", "ingest"),
        ]
        status = statuses(cfg, root)
        assert (status["ingest"], status["standardize"], status["windows"]) == ("cached", "cached", "computed")
        rerun = Path(describe_run(cfg.run_id, root)["stages"][2]["path"])
        run(cfg, data, runs_root=tmp_path / "fresh")
        assert rerun.read_bytes() == artifact(tmp_path / "fresh" / cfg.run_id, "windows").read_bytes()

    def test_unread_stage_without_artifact_is_skipped(self, warm):
        cfg, data, root = warm
        shutil.rmtree(root / cfg.run_id / "clouds")
        run(cfg, data, runs_root=root)
        assert statuses(cfg, root)["clouds"] == "skipped"

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


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_artifact(self, warm):
        cfg, data, root = warm
        run_dir = root / cfg.run_id

        def files():
            return {p: p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}

        before = files()
        path = artifact(run_dir, "distmat")
        matrix = io.read_distmat_csv(path)
        # Rows past the second cannot be read, so the writer raises partway.
        broken = SimpleNamespace(row_ids=matrix.row_ids, col_ids=matrix.col_ids, values=matrix.values[:2])
        with pytest.raises(IndexError):
            io.write_distmat_csv(broken, path)
        assert files() == before  # old bytes, and no temp file left behind
        run(cfg, data, runs_root=root)
        provenance = run_dir / "provenance.json"
        after = files()
        assert {p: b for p, b in after.items() if p != provenance} == {
            p: b for p, b in before.items() if p != provenance
        }


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
        # The distances key of a cache written before the stage had a version entry.
        old_params = {"p": repr(float(cfg.p)), "train": cfg.train_split, "test": cfg.test_split}
        old_key = io.stage_key("distances", keys["diagrams"], old_params)
        assert old_key != keys["distances"]
        current = artifact(run_dir, "distmat")
        original = current.read_bytes()
        report = (run_dir / "report.json").read_bytes()
        matrix = io.read_distmat_csv(current)
        stale = SimpleNamespace(row_ids=matrix.row_ids, col_ids=matrix.col_ids, values=matrix.values[:, ::-1])
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
    return build_clouds(cut_windows(apply_standardizer(series, standardize(series, cfg)), cfg), cfg)


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
                name: [rips_persistence_dim0(c, cfg.essential_policy, cfg.maxscale) for c in split]
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
            ["windows", "--series", out / "standardized.csv"],
            ["diagrams", "--windows", out / "windows.csv"],
        ):
            assert main([command, "--config", str(config), "--out", str(out), *map(str, argv)]) == 0
        assert len(calls) == 2 * len(clouds)
        assert (out / "diagrams.csv").read_bytes() == expected.read_bytes()

    def test_dim1_is_one_call_per_cloud(self, synth_csv, tmp_path, monkeypatch):
        payload = synthetic_config_dict("per-cloud", synth_csv, n_windows=30)
        payload.update(dimension=1, maxscale=8.0, k=3)
        cfg = PipelineConfig.from_dict(payload)
        calls = counting(monkeypatch, "rips_persistence_dim1")
        batched = counting(monkeypatch, "rips_persistence_dim0_batch")
        run(cfg, synth_csv, runs_root=tmp_path / "runs")
        assert len(calls) == sum(len(split) for split in clouds_of(cfg, synth_csv).values())
        assert batched == []
