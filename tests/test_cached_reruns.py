"""Randomized differential test of cached reruns.

A warm run, a ``use_cache=False`` run over an existing run, and a rerun
that changes only ``p`` over cached diagrams must each leave the same
``distmat.csv`` and ``report.json`` bytes as a fresh run of their config
in an empty cache.  Every dimension-0 distance must equal the matching
enumeration of ``tests/oracles.py``.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import PipelineConfig, describe_run, io, run
from topowin.classify import TIE_BREAKS
from topowin.persistence import ESSENTIAL_POLICIES
from conftest import make_series
from oracles import wasserstein_by_enumeration

W = 3  # rows per window: an anchored cloud has 4 points, 3 deaths
N_TRAIN, N_TEST = 5, 3


def write_data(path: Path, seed: int) -> None:
    """Windows of tight (class 0) or wide (class 1) noise in two channels."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=N_TRAIN + N_TEST).repeat(W)
    values = rng.normal(size=(labels.size, 2)) * np.where(labels, 2.0, 0.2)[:, None]
    io.write_series_csv(make_series(values, labels, ("a", "b")), path)


def config(**fields) -> PipelineConfig:
    rows = (N_TRAIN + N_TEST) * W
    return PipelineConfig.from_dict({
        "run_id": "rerun",
        "schema": {"timestamp": "timestamp", "features": ["a", "b"], "label": "label"},
        "splits": [["train", 0, N_TRAIN * W], ["test", N_TRAIN * W, rows]],
        "window": W,
        **fields,
    })


def stages(cfg: PipelineConfig, root: Path) -> dict[str, dict]:
    """The latest run's provenance record of each stage."""
    return {s["stage"]: s for s in describe_run(cfg.run_id, root)["stages"]}


def written(records: dict[str, dict]) -> tuple[bytes, bytes]:
    """The bytes of the matrix and the report a run left."""
    return tuple(Path(records[stage]["path"]).read_bytes() for stage in ("distances", "classify"))


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
)
def test_cached_reruns_match_a_fresh_run(tmp_path_factory, seed, dimension, p, policy, tie_break, k, maxscale):
    base = tmp_path_factory.mktemp("rerun")
    data = base / "series.csv"
    write_data(data, seed)
    cfg = config(dimension=dimension, p=p, essential_policy=policy, tie_break=tie_break, k=k, maxscale=maxscale)
    other_p = dataclasses.replace(cfg, p=3.0 - p)
    fresh = {}
    for c in (cfg, other_p):
        root = tmp_path_factory.mktemp("fresh")
        run(c, data, runs_root=root)
        fresh[c.p] = stages(c, root)

    root = base / "runs"
    for c, use_cache, want in [
        (cfg, True, {"classify": "computed"}),  # cold
        (cfg, True, {"distances": "cached", "classify": "cached"}),  # warm
        (cfg, False, {"diagrams": "computed", "distances": "computed", "classify": "computed"}),
        (other_p, True, {"diagrams": "cached", "distances": "computed", "classify": "computed"}),
    ]:
        run(c, data, runs_root=root, use_cache=use_cache)
        records = stages(c, root)
        assert written(records) == written(fresh[c.p])
        assert {stage: records[stage]["status"] for stage in want} == want

    if dimension == 0:
        for p_run, records in fresh.items():
            diagrams = io.read_diagrams_csv(records["diagrams"]["path"], {"train": N_TRAIN, "test": N_TEST}, 0)
            values = io.read_distmat_csv(records["distances"]["path"]).values
            for i, test in enumerate(diagrams["test"]):
                for j, train in enumerate(diagrams["train"]):
                    want = wasserstein_by_enumeration(test.pairs, train.pairs, p=p_run)
                    assert values[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)
