"""Mutated cached artifacts never reach a run's report.

A cached run's ``diagrams.csv``, ``clouds.csv`` or ``windows.csv`` is
mutated: bytes flipped, cut off or inserted, a line dropped, or one cell
replaced by ``nan``, ``inf``, ``-0``, ``1e309`` or a quoted value.  A rerun
that changes only ``p`` recomputes the distances from the cached diagrams
and the classification with the cached windows' labels, so it has to read
both files; with the cached diagrams dropped, it recomputes them from the
cached clouds, so it has to read that file too.

- With the ``.sha256`` beside it left as it is, the rerun recomputes the
  mutated stage with reason ``corrupt``, and its report is byte for byte a
  fresh run's.
- With the ``.sha256`` rewritten to match, the stage is served or
  recomputed with reason ``unreadable``, and no exception escapes ``run``.
  A windows file whose rows of one window disagree, and a clouds file with
  a cloud whose distances overflow, are always recomputed.
"""

import dataclasses
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from topowin import PipelineConfig, describe_run, io, run
from conftest import synthetic_config_dict, synthetic_two_class_series

N_WINDOWS = 10  # 6 train and 4 test windows; 100 dimension-0 and 7 dimension-1 points

MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255).map(lambda x: bytes([x]))),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.binary(min_size=1, max_size=4)),
    st.tuples(st.sampled_from(["truncate", "drop line"]), st.integers(0, 2**16), st.just(b"")),
    st.tuples(st.just("cell"), st.integers(0, 2**16), st.sampled_from([b"nan", b"inf", b"-0", b"1e309", b'"0.25"'])),
)


def mutate(data: bytes, kind: str, at: int, value: bytes) -> bytes:
    """``data`` with one mutation of ``kind``; ``at`` picks the byte, line
    or cell, modulo how many there are."""
    if kind == "flip":
        i = at % len(data)
        return data[:i] + bytes([data[i] ^ value[0]]) + data[i + 1 :]
    if kind == "insert":
        i = at % (len(data) + 1)
        return data[:i] + value + data[i:]
    if kind == "truncate":
        return data[: at % len(data)]
    lines = data.splitlines(keepends=True)
    if kind == "drop line":
        del lines[at % len(lines)]
        return b"".join(lines)
    row = 1 + at % (len(lines) - 1)  # a data row, not the header
    cells = lines[row].rstrip(b"\n").split(b",")
    cells[at % len(cells)] = value
    lines[row] = b",".join(cells) + b"\n"
    return b"".join(lines)


def stages(cfg: PipelineConfig, root: Path) -> dict[str, dict]:
    return {s["stage"]: s for s in describe_run(cfg.run_id, root)["stages"]}


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """Per dimension: the data, a p = 1 config, the runs root of its run, and
    the report bytes of a fresh p = 2 run."""
    base = tmp_path_factory.mktemp("robust")
    data = base / "series.csv"
    io.write_series_csv(synthetic_two_class_series(n_windows=N_WINDOWS), data)
    out = {}
    for dimension in (0, 1):
        payload = synthetic_config_dict("robust", data, n_windows=N_WINDOWS)
        payload.update(dimension=dimension, maxscale=3.0)
        cfg = PipelineConfig.from_dict(payload)
        run(cfg, data, runs_root=base / f"primed-{dimension}")
        other = dataclasses.replace(cfg, p=2.0)
        run(other, data, runs_root=base / f"fresh-{dimension}")
        report = Path(stages(other, base / f"fresh-{dimension}")["classify"]["path"]).read_bytes()
        out[dimension] = (data, cfg, base / f"primed-{dimension}", report)
    return out


def rerun_mutated(primed, tmp_path_factory, dimension, stage, rewrite_digest, mutation):
    """The mutated stage's (status, reason) in a p = 2 rerun of a copy of the
    primed run, and whether its report is the fresh run's."""
    data, cfg, primed_root, fresh_report = primed[dimension]
    root = tmp_path_factory.mktemp("mutated") / "runs"
    shutil.copytree(primed_root, root)
    (path,) = (root / cfg.run_id / stage).glob(f"*.{stage}.csv")
    original = path.read_bytes()
    mutated = mutate(original, *mutation)
    if mutated == original:
        reject()
    path.write_bytes(mutated)
    if rewrite_digest:
        path.with_name(f"{path.name}.sha256").write_text(io.sha256_bytes(mutated) + "\n", encoding="utf-8")
    if stage == "clouds":
        shutil.rmtree(root / cfg.run_id / "diagrams")

    other = dataclasses.replace(cfg, p=2.0)
    run(other, data, runs_root=root)
    record = stages(other, root)[stage]
    report = Path(stages(other, root)["classify"]["path"]).read_bytes()
    return (record["status"], record.get("reason")), report == fresh_report


def check(status, fresh, rewrite_digest):
    if rewrite_digest:
        assert status in {("cached", None), ("computed", "unreadable")}
        assert fresh or status == ("cached", None)
    else:
        assert status == ("computed", "corrupt")
        assert fresh


# Few test windows, and served diagrams that may be off, often give a 0/0 metric.
@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@settings(max_examples=60, deadline=None)
@given(dimension=st.sampled_from([0, 1]), rewrite_digest=st.booleans(), mutation=MUTATIONS)
@example(dimension=0, rewrite_digest=True, mutation=("cell", 4, b"1e309"))  # a death of inf
def test_mutated_diagrams_never_reach_the_report(primed, tmp_path_factory, dimension, rewrite_digest, mutation):
    check(*rerun_mutated(primed, tmp_path_factory, dimension, "diagrams", rewrite_digest, mutation), rewrite_digest)


@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@pytest.mark.parametrize("stage", ["windows", "clouds"])
@settings(max_examples=40, deadline=None)
@given(rewrite_digest=st.booleans(), mutation=MUTATIONS)
@example(rewrite_digest=True, mutation=("cell", 15, b"nan"))  # a coordinate of nan
@example(rewrite_digest=True, mutation=("drop line", 10, b""))  # windows: window 0 a point short
@example(rewrite_digest=True, mutation=("drop line", 11, b""))  # clouds: cloud 0 a point short
def test_mutated_windows_and_clouds_never_reach_the_report(primed, tmp_path_factory, stage, rewrite_digest, mutation):
    check(*rerun_mutated(primed, tmp_path_factory, 0, stage, rewrite_digest, mutation), rewrite_digest)


@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@pytest.mark.parametrize("dimension", [0, 1])
@pytest.mark.parametrize(
    "stage, mutation",
    [
        ("windows", ("cell", 201, b"7")),  # the label of train window 0 on its point-1 row
        ("clouds", ("cell", 3, b"1e200")),  # a coordinate at which its cloud's distances overflow
    ],
    ids=["windows-row-disagrees", "clouds-overflow"],
)
def test_served_file_the_run_cannot_use_is_recomputed(primed, tmp_path_factory, dimension, stage, mutation):
    status, fresh = rerun_mutated(primed, tmp_path_factory, dimension, stage, True, mutation)
    assert status == ("computed", "unreadable")
    assert fresh
