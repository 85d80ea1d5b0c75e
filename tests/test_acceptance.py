"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 7 (full public-dataset protocols) needs the datasets fetched
with the scripts under scripts/, so it is skipped when the data files are
absent.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from topowin import (
    AugmentConfig,
    EvaluationReport,
    LabeledWindow,
    PersistenceDiagram,
    PipelineConfig,
    augment,
    describe_run,
    rips_persistence_dim0,
    rips_persistence_dim1,
    round_half_up,
    run,
    wasserstein,
)
from topowin.io import read_json, write_series_csv
from conftest import deaths, synthetic_config_dict, synthetic_two_class_series
from oracles import (
    dim0_deaths_by_component_counting,
    dim1_pairs_by_persistent_betti,
    wasserstein_by_enumeration,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report_pass(n: int, detail: str) -> None:
    print(f"\ncriterion {n}: PASS - {detail}")


def window_from(points):
    return LabeledWindow(points=np.asarray(points, dtype=float), label=0, time_range=(0.0, 1.0))


def test_criterion_1_augmentation_micro_values():
    started = time.perf_counter()
    cfg = AugmentConfig(offset=np.array([0.0, 1.0, 2.0, 3.0, 4.0]), anchors=np.zeros((1, 5)))
    y1 = augment(window_from([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]), cfg)
    y2 = augment(window_from([[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]), cfg)
    assert {tuple(p) for p in y1} == {(0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (0, 0, 0, 0, 0)}
    assert {tuple(p) for p in y2} == {(0, 1, 2, 3, 4), (0, 2, 2, 3, 4), (0, 0, 0, 0, 0)}
    d1 = float(np.linalg.norm(y1[1] - y1[2]))  # (1,1,2,3,4) to origin
    d2 = float(np.linalg.norm(y2[1] - y2[2]))  # (0,2,2,3,4) to origin
    assert abs(d1 - math.sqrt(31)) < 1e-12
    assert abs(d2 - math.sqrt(33)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(1, f"augmented clouds and anchor distances exact ({elapsed:.3f}s)")


def test_criterion_2_metrics_oracle():
    started = time.perf_counter()
    r1 = EvaluationReport.from_confusion([0, 1], [[109, 5], [14, 72]])
    assert r1.accuracy == Fraction(181, 200)
    assert round_half_up(r1.accuracy, 2) == 0.91
    assert round_half_up(r1.precision[1], 2) == 0.94
    r2 = EvaluationReport.from_confusion([0, 1], [[266, 1], [0, 309]])
    assert r2.accuracy == Fraction(575, 576)
    assert round_half_up(r2.accuracy, 4) == 0.9983
    assert r2.specificity == Fraction(266, 267)
    assert round_half_up(r2.specificity, 4) == 0.9963
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report_pass(2, f"confusion-matrix metrics match the reported values ({elapsed:.3f}s)")


def test_criterion_3_persistence_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240803)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        pts = rng.uniform(-2, 2, size=(n, d))
        got = deaths(rips_persistence_dim0(pts))
        want = dim0_deaths_by_component_counting(pts)
        assert len(got) == len(want) == n - 1
        np.testing.assert_allclose(got, want, atol=1e-9)

    rng = np.random.default_rng(50607)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, 4))
        pts = rng.uniform(-1, 1, size=(n, d))
        maxscale = 3.5
        got = rips_persistence_dim1(pts, maxscale).pairs
        want = dim1_pairs_by_persistent_betti(pts, maxscale)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) <= 1e-9
            assert abs(g[1] - w[1]) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report_pass(3, f"500 dim-0 and 100 dim-1 diagrams match brute-force oracles ({elapsed:.1f}s)")


def _random_diagram(rng, max_points=4):
    n = int(rng.integers(0, max_points + 1))
    pairs = []
    for _ in range(n):
        b = float(rng.uniform(0, 2))
        pairs.append((b, b + float(rng.uniform(0, 2))))
    return PersistenceDiagram(dim=0, pairs=tuple(sorted(pairs, key=lambda p: (p[1], p[0]))))


def test_criterion_4_wasserstein_oracle_and_metric_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    for _ in range(500):
        d1 = _random_diagram(rng)
        d2 = _random_diagram(rng)
        got = wasserstein(d1, d2)
        want = wasserstein_by_enumeration(d1.pairs, d2.pairs)
        assert abs(got - want) <= 1e-9

    rng = np.random.default_rng(171717)
    for _ in range(200):
        d1, d2, d3 = (_random_diagram(rng, max_points=5) for _ in range(3))
        w12, w21 = wasserstein(d1, d2), wasserstein(d2, d1)
        w13, w23 = wasserstein(d1, d3), wasserstein(d2, d3)
        assert w12 >= 0.0
        assert abs(w12 - w21) <= 1e-9
        assert w13 <= w12 + w23 + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report_pass(4, f"500 matchings equal enumeration; axioms hold on 200 triples ({elapsed:.1f}s)")


def test_criterion_5_dim0_stability_under_perturbation():
    started = time.perf_counter()
    rng = np.random.default_rng(987654)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 5))
        delta = float(rng.uniform(0.0, 0.01))
        pts = rng.uniform(-1, 1, size=(n, d))
        direction = rng.normal(size=(n, d))
        norms = np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
        moved = pts + direction / norms * rng.uniform(0, delta, size=(n, 1))
        a = np.asarray(deaths(rips_persistence_dim0(pts)))
        b = np.asarray(deaths(rips_persistence_dim0(moved)))
        assert a.shape == b.shape
        if a.size:
            assert float(np.max(np.abs(a - b))) <= 2 * delta + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(5, f"sorted dim-0 deaths moved <= 2*delta on 200 perturbed clouds ({elapsed:.1f}s)")


def test_criterion_6_synthetic_end_to_end_separation(tmp_path):
    started = time.perf_counter()
    series = synthetic_two_class_series()
    data = tmp_path / "synthetic.csv"
    write_series_csv(series, data)
    cfg = PipelineConfig.from_dict(synthetic_config_dict("accept-synth", data))
    report = run(cfg, data, runs_root=tmp_path / "runs")
    accuracy = float(report.accuracy)
    assert accuracy >= 0.95
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report_pass(6, f"synthetic two-class accuracy {accuracy:.3f} >= 0.95 ({elapsed:.1f}s)")


OCCUPANCY_DATA = REPO_ROOT / "data" / "occupancy.csv"
OCCUPANCY_CFG_1 = REPO_ROOT / "configs" / "occupancy_test1.json"
OCCUPANCY_CFG_2 = REPO_ROOT / "configs" / "occupancy_test2.json"
AREM_DATA = REPO_ROOT / "data" / "arem.csv"
AREM_CFG = REPO_ROOT / "configs" / "arem_test.json"


@pytest.mark.skipif(
    not (OCCUPANCY_DATA.exists() and AREM_DATA.exists()),
    reason="public datasets not fetched (network required); run scripts/fetch_occupancy.py "
    "and scripts/fetch_arem.py first",
)
def test_criterion_7_dataset_scale_reproduction(tmp_path):
    started = time.perf_counter()
    cfg1 = PipelineConfig.from_dict(read_json(OCCUPANCY_CFG_1))
    cfg2 = PipelineConfig.from_dict(read_json(OCCUPANCY_CFG_2))
    r1 = run(cfg1, OCCUPANCY_DATA, runs_root=tmp_path / "runs", workers=4)
    r2 = run(cfg2, OCCUPANCY_DATA, runs_root=tmp_path / "runs", workers=4)
    acc1, acc2 = float(r1.accuracy), float(r2.accuracy)
    assert abs(acc1 - 0.84) <= 0.05, f"occupancy test set 1 accuracy {acc1:.4f}"
    assert abs(acc2 - 0.91) <= 0.05, f"occupancy test set 2 accuracy {acc2:.4f}"

    arem_cfg = PipelineConfig.from_dict(read_json(AREM_CFG))
    r3 = run(arem_cfg, AREM_DATA, runs_root=tmp_path / "runs", workers=4)
    acc3 = float(r3.accuracy)
    assert acc3 >= 0.97, f"activity-recognition accuracy {acc3:.4f}"
    elapsed = time.perf_counter() - started
    report_pass(
        7,
        f"occupancy {acc1:.3f}/{acc2:.3f} within band, activity {acc3:.4f} >= 0.97 ({elapsed:.0f}s)",
    )


def test_criterion_8_determinism_and_cache_soundness(tmp_path):
    started = time.perf_counter()
    series = synthetic_two_class_series(n_windows=40)
    data = tmp_path / "synthetic.csv"
    write_series_csv(series, data)
    payload = synthetic_config_dict("accept-det", data, n_windows=40)
    cfg = PipelineConfig.from_dict(payload)

    run(cfg, data, runs_root=tmp_path / "a")
    run(cfg, data, runs_root=tmp_path / "b")
    bytes_a = (tmp_path / "a" / "accept-det" / "report.json").read_bytes()
    bytes_b = (tmp_path / "b" / "accept-det" / "report.json").read_bytes()
    assert bytes_a == bytes_b

    run(cfg, data, runs_root=tmp_path / "a")  # cached
    cached = (tmp_path / "a" / "accept-det" / "report.json").read_bytes()
    prov = describe_run("accept-det", tmp_path / "a")
    # The report is served; nothing needs the stages before the diagrams.
    assert [s["status"] for s in prov["stages"]] == ["skipped"] * 4 + ["cached"] * 3
    run(cfg, data, runs_root=tmp_path / "a", use_cache=False)
    recomputed = (tmp_path / "a" / "accept-det" / "report.json").read_bytes()
    assert cached == recomputed == bytes_a
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report_pass(8, f"reports byte-identical across fresh, cached and uncached runs ({elapsed:.1f}s)")
