"""Mutated cached artifacts never reach a run's report.

A cached run's ``diagrams.csv``, ``clouds.csv`` or ``windows.csv`` is
mutated: bytes flipped, cut off or inserted, a line dropped, or one cell
replaced by ``nan``, ``inf``, ``-0``, ``1e309`` or a quoted value.  The
cached stages after the mutated one up to the diagrams are dropped, so a
rerun that changes only ``p`` needs the mutated stage: it recomputes the
distances from the diagrams and the classification with the windows'
labels.

- The diagrams are served from cache.  With the ``.sha256`` beside them
  left as it is, or deleted, the rerun recomputes them with reason
  ``corrupt`` or ``unverified``, and its report is byte for byte a fresh
  run's.  With the ``.sha256`` rewritten to
  match, they are served or recomputed with reason ``unreadable``, and no
  exception escapes ``run``.
- The windows and clouds are never read by a run: it computes them from
  the data, so its report is always a fresh run's.  A file that fails its
  digest (reason ``corrupt``) or has none (``unverified``) is rewritten to
  the fresh bytes; one whose ``.sha256`` was rewritten to match is left as
  it is.
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


# The cached stages a rerun must not find, so that it needs the mutated one.
DROPPED = {"windows": ("clouds", "diagrams"), "clouds": ("diagrams",), "diagrams": ()}


def rerun_mutated(primed, tmp_path_factory, dimension, stage, digest, mutation):
    """The mutated stage's (status, reason) in a p = 2 rerun of a copy of the
    primed run, whether its report is the fresh run's, and whether the
    mutated file was rewritten to its original bytes (and, if so, its
    digest too) or left mutated.  ``digest`` is what became of the
    ``.sha256`` beside the mutated file: ``"kept"``, ``"rewritten"`` to
    match it or ``"deleted"``."""
    data, cfg, primed_root, fresh_report = primed[dimension]
    root = tmp_path_factory.mktemp("mutated") / "runs"
    shutil.copytree(primed_root, root)
    (path,) = (root / cfg.run_id / stage).glob(f"*.{stage}.csv")
    digest_path = path.with_name(f"{path.name}.sha256")
    original = path.read_bytes()
    mutated = mutate(original, *mutation)
    if mutated == original:
        reject()
    path.write_bytes(mutated)
    if digest == "rewritten":
        digest_path.write_text(io.sha256_bytes(mutated) + "\n", encoding="utf-8")
    elif digest == "deleted":
        digest_path.unlink()
    for dropped in DROPPED[stage]:
        shutil.rmtree(root / cfg.run_id / dropped)

    other = dataclasses.replace(cfg, p=2.0)
    run(other, data, runs_root=root)
    record = stages(other, root)[stage]
    report = Path(stages(other, root)["classify"]["path"]).read_bytes()
    now = path.read_bytes()
    assert now in (original, mutated)
    assert digest_path.read_text(encoding="utf-8") == io.sha256_bytes(now) + "\n"
    return (record["status"], record.get("reason")), report == fresh_report, now == original


def check(status, fresh, restored, digest):
    if digest == "rewritten":
        assert status in {("cached", None), ("computed", "unreadable")}
        assert fresh or status == ("cached", None)
        assert restored == (status == ("computed", "unreadable"))
    else:
        assert status == ("computed", "corrupt" if digest == "kept" else "unverified")
        assert fresh and restored


def check_never_read(status, fresh, restored, digest):
    """A stage the run never reads is computed, and its file restored unless
    a rewritten digest vouches for it."""
    assert status == ("computed", {"kept": "corrupt", "rewritten": None, "deleted": "unverified"}[digest])
    assert fresh
    assert restored == (digest != "rewritten")


DIGESTS = st.sampled_from(["kept", "rewritten", "deleted"])


# Few test windows, and served diagrams that may be off, often give a 0/0 metric.
@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@settings(max_examples=60, deadline=None)
@given(dimension=st.sampled_from([0, 1]), digest=DIGESTS, mutation=MUTATIONS)
@example(dimension=0, digest="rewritten", mutation=("cell", 4, b"1e309"))  # a death of inf
def test_mutated_diagrams_never_reach_the_report(primed, tmp_path_factory, dimension, digest, mutation):
    check(*rerun_mutated(primed, tmp_path_factory, dimension, "diagrams", digest, mutation), digest)


@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@pytest.mark.parametrize("stage", ["windows", "clouds"])
@settings(max_examples=40, deadline=None)
@given(digest=DIGESTS, mutation=MUTATIONS)
@example(digest="rewritten", mutation=("cell", 15, b"nan"))  # a coordinate of nan
@example(digest="rewritten", mutation=("drop line", 10, b""))  # windows: window 0 a point short
@example(digest="rewritten", mutation=("drop line", 11, b""))  # clouds: cloud 0 a point short
def test_mutated_windows_and_clouds_never_reach_the_report(primed, tmp_path_factory, stage, digest, mutation):
    check_never_read(*rerun_mutated(primed, tmp_path_factory, 0, stage, digest, mutation), digest)


@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@pytest.mark.parametrize("dimension", [0, 1])
@pytest.mark.parametrize(
    "stage, mutation",
    [
        ("windows", ("cell", 201, b"7")),  # the label of train window 0 on its point-1 row
        ("windows", ("cell", 402, b"1e200")),  # line 4's f0: the clouds built from it would overflow
        ("clouds", ("cell", 3, b"1e200")),  # a coordinate at which its cloud's distances overflow
    ],
    ids=["windows-row-disagrees", "windows-overflow", "clouds-overflow"],
)
def test_file_the_run_could_not_use_is_never_read(primed, tmp_path_factory, dimension, stage, mutation):
    # Each file passes its rewritten digest and is left as it is; the run
    # builds the stage again from the data.
    status, fresh, restored = rerun_mutated(primed, tmp_path_factory, dimension, stage, "rewritten", mutation)
    assert status == ("computed", None)
    assert fresh and not restored
