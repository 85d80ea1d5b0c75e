"""The benchmark's trace hooks and microbenchmarks still fit the program.

``perfbench/run.py --trace 1`` wraps pipeline functions by name, calls the
public compute functions directly, and reads a finished run's artifacts by
stage and suffix; a rename, a signature change or a layout change breaks it
without failing any other test.
"""

import dataclasses
from pathlib import Path

import pytest

import topowin.pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_resolves_every_traced_name(perfbench):
    import tracing

    original = topowin.pipeline.fit_standardizer
    uninstall = tracing.Tracer().install()
    try:
        assert topowin.pipeline.fit_standardizer is not original
    finally:
        uninstall()
    assert topowin.pipeline.fit_standardizer is original


def test_micro_artifacts_reads_every_artifact_kind(perfbench, small_run, tmp_path):
    import micro

    cfg, _, root = small_run
    metrics = micro.artifacts(root / cfg.run_id, tmp_path, {"train": 18, "test": 12}, 0)
    kinds = ("series", "params", "windows", "clouds", "diagrams", "distmat", "report")
    assert {f"io.{op}.{kind}_s.n" for op in ("read", "write") for kind in kinds} <= set(metrics)


def test_micro_compute_calls_every_layer(perfbench):
    import micro

    metrics = micro.compute(1)
    assert {f"{name}.n" for name in micro.COMPUTE_SAMPLES} <= set(metrics)


@pytest.mark.parametrize("extra", [{}, {"dimension": 1, "maxscale": 8.0, "k": 3}], ids=["dim0", "dim1"])
def test_traced_run_completes(perfbench, small_run, tmp_path, extra):
    """A cold run with every traced function wrapped, as ``--trace 1`` runs
    it: the wrappers and their counters take what the program passes and
    returns, the run writes the report of the untraced run, and the layer
    self times add up to the traced run.  Only dimension 1 sends diagrams
    through the one-cloud builders and the assignment solver, so only it
    counts their pairs and calls."""
    import tracing

    cfg, data, root = small_run
    if extra:
        cfg, root = dataclasses.replace(cfg, **extra), tmp_path / "untraced"
        topowin.pipeline.run(cfg, data, runs_root=root)
    tracer = tracing.Tracer()
    traced_run = tracer.wrap("pipeline.run", topowin.pipeline.run)
    uninstall = tracer.install()
    try:
        traced_run(cfg, data, runs_root=tmp_path / "traced")
    finally:
        uninstall()
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "traced" / cfg.run_id / name).read_bytes() == (root / cfg.run_id / name).read_bytes()
    statuses = {s["stage"]: s["status"] for s in topowin.describe_run(cfg.run_id, tmp_path / "traced")["stages"]}
    assert set(statuses.values()) == {"computed"}
    layers = tracer.layer_metrics(1)
    assert abs(sum(layers[k] for k in tracing.SELF_METRICS) - layers["trace.run_s"]) <= 1e-6
    assert (layers["windowing.windows"], layers["classify.rows"]) == (30, 12)
    if cfg.dimension == 1:
        assert layers["persistence.diagram_pairs"] > 0 and layers["assignment.calls"] > 0
