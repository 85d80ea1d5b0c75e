"""Randomized differential test of cached reruns.

A warm run, a ``use_cache=False`` run over an existing run, a rerun that
changes only ``k`` over a cached matrix and one that changes only ``p``
over cached diagrams must each leave the same ``distmat.csv`` and
``report.json`` bytes as a fresh run of their config in an empty cache, and
so must the CLI stage chain ``ingest`` -> ``windows`` -> ``diagrams`` ->
``distmat`` -> ``classify``.
No run reads the series, windows, parameters or clouds it wrote: those
readers raise.  In both dimensions, every distance must equal the matching
enumeration of ``tests/oracles.py``, and every prediction the counting vote
there.  The offset and the anchors are drawn too.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import PipelineConfig, describe_run, io, pipeline, run
from topowin.classify import TIE_BREAKS
from topowin.cli import main
from topowin.persistence import ESSENTIAL_POLICIES
from conftest import make_series
from oracles import knn_vote_by_counting, wasserstein_by_enumeration

# Rows per window in each dimension: the dimension-0 oracle enumerates every
# matching of up to 4 deaths, and 5 points on a ring open a cycle.
ROWS = {0: 3, 1: 5}
N_TRAIN, N_TEST = 5, 3


def write_data(path: Path, seed: int, w: int) -> None:
    """Windows of w points around a noisy ring in two channels, at a random
    phase, of radius 1 (class 0) or 2 (class 1)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=N_TRAIN + N_TEST)
    angles = (2 * np.pi * np.arange(w) / w + rng.uniform(0, 2 * np.pi, size=(labels.size, 1))).ravel()
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1) * (1.0 + labels.repeat(w))[:, None]
    values = ring + rng.normal(scale=rng.uniform(0.05, 0.5), size=ring.shape)
    io.write_series_csv(make_series(values, labels.repeat(w), ("a", "b")), path)


def config(w: int, **fields) -> PipelineConfig:
    rows = (N_TRAIN + N_TEST) * w
    return PipelineConfig.from_dict({
        "run_id": "rerun",
        "schema": {"timestamp": "timestamp", "features": ["a", "b"], "label": "label"},
        "splits": [["train", 0, N_TRAIN * w], ["test", N_TRAIN * w, rows]],
        "window": w,
        **fields,
    })


def stages(cfg: PipelineConfig, root: Path) -> dict[str, dict]:
    """The latest run's provenance record of each stage."""
    return {s["stage"]: s for s in describe_run(cfg.run_id, root)["stages"]}


# The artifacts of the stages a run computes from the data, never reads.
NEVER_READ = ("read_series_csv", "read_windows_csv", "read_params_json", "read_clouds_csv")


def refuse(path, *args, **kwargs):
    raise AssertionError(f"a run read {path}")


def predictions_of_run(cfg: PipelineConfig, data: Path, root: Path) -> list[int]:
    """Run ``cfg`` in ``root``; the k-NN predictions its classify stage made."""
    made = []
    predict_all = pipeline.predict_all

    def recording(*args):
        made.extend(predict_all(*args))
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "predict_all", recording)
        run(cfg, data, runs_root=root)
    return made


def written(records: dict[str, dict]) -> tuple[bytes, bytes]:
    """The bytes of the matrix and the report a run left."""
    return tuple(Path(records[stage]["path"]).read_bytes() for stage in ("distances", "classify"))


def cli_chain(cfg: PipelineConfig, data: Path, base: Path) -> tuple[bytes, bytes]:
    """The bytes of the matrix and the report the CLI stage commands write
    for ``cfg``, one after the other, into ``base / "out"``."""
    config, out = base / "config.json", base / "out"
    io.write_json(config, {**cfg.to_dict(), "data": str(data)})
    for argv in (
        ["ingest"],
        ["windows", "--series", out / "series.csv"],
        ["diagrams", "--windows", out / "windows.csv", "--params", out / "params.json"],
        ["distmat", "--diagrams", out / "diagrams.csv", "--windows", out / "windows.csv"],
        ["classify", "--matrix", out / "distmat.csv", "--windows", out / "windows.csv"],
    ):
        assert main([*map(str, argv), "--config", str(config), "--out", str(out)]) == 0
    return (out / "distmat.csv").read_bytes(), (out / "report.json").read_bytes()


# A report of few test windows often has a 0/0 metric.
@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@settings(max_examples=36, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.sampled_from([0, 1]),
    p=st.sampled_from([1.0, 2.0]),
    policy=st.sampled_from(ESSENTIAL_POLICIES),
    tie_break=st.sampled_from(TIE_BREAKS),
    k=st.integers(1, N_TRAIN),
    maxscale=st.sampled_from([0.5, 1.5, 3.0]),
    offset=st.one_of(st.just("auto"), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)),
    anchors=st.sampled_from(["origin", "none"]),
    # The CLI chain on about one example in three, which keeps the test's time.
    chained=st.sampled_from([True, False, False]),
)
def test_cached_reruns_match_a_fresh_run(
    tmp_path_factory, seed, dimension, p, policy, tie_break, k, maxscale, offset, anchors, chained
):
    base = tmp_path_factory.mktemp("rerun")
    data = base / "series.csv"
    write_data(data, seed, ROWS[dimension])
    cfg = config(
        ROWS[dimension],
        dimension=dimension, p=p, essential_policy=policy, tie_break=tie_break, k=k, maxscale=maxscale,
        offset=offset, anchors=anchors,
    )
    configs = {
        "cfg": cfg,
        "other p": dataclasses.replace(cfg, p=3.0 - p),
        "other k": dataclasses.replace(cfg, k=k % N_TRAIN + 1),
    }
    fresh, predictions = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        for name in NEVER_READ:
            patch.setattr(io, name, refuse)
        for name, c in configs.items():
            root = tmp_path_factory.mktemp("fresh")
            predictions[name] = predictions_of_run(c, data, root)
            fresh[name] = stages(c, root)

        root = base / "runs"
        for name, use_cache, want in [
            ("cfg", True, {"classify": "computed"}),  # cold
            ("cfg", True, {"ingest": "skipped", "distances": "cached", "classify": "cached"}),  # warm
            ("cfg", False, {"diagrams": "computed", "distances": "computed", "classify": "computed"}),
            ("other k", True, {"ingest": "computed", "clouds": "skipped", "distances": "cached"}),
            ("other p", True, {"clouds": "skipped", "diagrams": "cached", "distances": "computed"}),
        ]:
            run(configs[name], data, runs_root=root, use_cache=use_cache)
            records = stages(configs[name], root)
            assert written(records) == written(fresh[name])
            assert {stage: records[stage]["status"] for stage in want} == want

    if chained:
        assert cli_chain(cfg, data, base / "chain") == written(fresh["cfg"])
    for name, records in fresh.items():
        diagrams = io.read_diagrams_csv(records["diagrams"]["path"], {"train": N_TRAIN, "test": N_TEST}, dimension)
        values = io.read_distmat_csv(records["distances"]["path"]).values
        for i, test in enumerate(diagrams["test"]):
            for j, train in enumerate(diagrams["train"]):
                want = wasserstein_by_enumeration(test.pairs, train.pairs, p=configs[name].p)
                assert values[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)
        train_labels = io.read_windows_csv(records["windows"]["path"])["train"].labels.tolist()
        votes = [knn_vote_by_counting(row, train_labels, configs[name].k, tie_break) for row in values]
        assert predictions[name] == votes
