"""Mutated cached artifacts never reach a run's report, and no config value
or mutated input file crashes the CLI.

A cached run's ``diagrams.csv``, ``clouds.csv``, ``windows.csv``,
``distmat.csv`` or ``report.json`` is mutated: bytes flipped, cut off or
inserted, a line dropped, or one cell replaced by ``nan``, ``inf``, ``-0``,
``1e309`` or a quoted value.  A rerun then needs the mutated file: one that
changes only ``p`` for the diagrams, windows and clouds (the cached stages
after the mutated one up to the diagrams are dropped), one that changes
only ``k`` for the matrix (the cached reports are dropped), and a warm
rerun for the report.

- The diagrams, the matrix and the report are served from cache.  With the
  ``.sha256`` beside them left as it is, or deleted, the rerun recomputes
  them with reason ``corrupt`` or ``unverified``, and its report is byte
  for byte a fresh run's.  With the ``.sha256`` rewritten to match, they
  are served or recomputed with reason ``unreadable``, and no exception
  escapes ``run``.
- The windows and clouds are never read by a run: it computes them from
  the data, so its report is always a fresh run's.  A file that fails its
  digest (reason ``corrupt``) or has none (``unverified``) is rewritten to
  the fresh bytes; one whose ``.sha256`` was rewritten to match is left as
  it is.

A config with any JSON value in any one key is refused with a
``ValueError`` or ``KeyError``, and ``topowin run`` over it exits with one
stderr line and no traceback, or succeeds and writes ``provenance.json``
and ``report.json`` as strict JSON.

Each stage command and ``plot-diagram``, fed one mutated input file of the
README stage chain, succeeds or exits with one stderr line and no
traceback: a data or numerical error, or, for ``plot-diagram`` only, a
usage error.
"""

import dataclasses
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from topowin import PipelineConfig, describe_run, io, pipeline, run
from topowin.cli import main
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


# Per mutated stage: its file, the cached stages a rerun must not find so
# that it needs that file, and the rerun: its change to the config in RERUNS.
TARGETS = {
    "windows": ("windows.csv", ("clouds", "diagrams"), "p"),
    "clouds": ("clouds.csv", ("diagrams",), "p"),
    "diagrams": ("diagrams.csv", (), "p"),
    "distances": ("distmat.csv", ("classify",), "k"),
    "classify": ("report.json", (), "warm"),
}
RERUNS = {"p": {"p": 2.0}, "k": {"k": 3}, "warm": {}}


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """Per dimension: the data, a p = 1, k = 5 config, the runs root of its
    run, and the report bytes of a fresh run with each rerun's change."""
    base = tmp_path_factory.mktemp("robust")
    data = base / "series.csv"
    io.write_series_csv(synthetic_two_class_series(n_windows=N_WINDOWS), data)
    out = {}
    for dimension in (0, 1):
        payload = synthetic_config_dict("robust", data, n_windows=N_WINDOWS)
        payload.update(dimension=dimension, maxscale=3.0)
        cfg = PipelineConfig.from_dict(payload)
        run(cfg, data, runs_root=base / f"primed-{dimension}")
        reports = {}
        for name, change in RERUNS.items():
            other = dataclasses.replace(cfg, **change)
            run(other, data, runs_root=base / f"fresh-{name}-{dimension}")
            reports[name] = Path(stages(other, base / f"fresh-{name}-{dimension}")["classify"]["path"]).read_bytes()
        out[dimension] = (data, cfg, base / f"primed-{dimension}", reports)
    return out


def rerun_mutated(primed, tmp_path_factory, dimension, stage, digest, mutation):
    """The mutated stage's (status, reason) in a rerun of a copy of the
    primed run (see ``TARGETS``), whether its report is the fresh run's,
    and whether the mutated file was rewritten to its original bytes (and,
    if so, its digest too) or left mutated.  ``digest`` is what became of
    the ``.sha256`` beside the mutated file: ``"kept"``, ``"rewritten"`` to
    match it or ``"deleted"``."""
    data, cfg, primed_root, fresh_reports = primed[dimension]
    name, dropped, rerun = TARGETS[stage]
    root = tmp_path_factory.mktemp("mutated") / "runs"
    shutil.copytree(primed_root, root)
    (path,) = (root / cfg.run_id / stage).glob(f"*.{name}")
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
    for later in dropped:
        shutil.rmtree(root / cfg.run_id / later)

    other = dataclasses.replace(cfg, **RERUNS[rerun])
    run(other, data, runs_root=root)
    record = stages(other, root)[stage]
    report = Path(stages(other, root)["classify"]["path"]).read_bytes()
    now = path.read_bytes()
    assert now in (original, mutated)
    assert digest_path.read_text(encoding="utf-8") == io.sha256_bytes(now) + "\n"
    return (record["status"], record.get("reason")), report == fresh_reports[rerun], now == original


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
@pytest.mark.parametrize("stage", ["distances", "classify"])
@settings(max_examples=30, deadline=None)
@given(dimension=st.sampled_from([0, 1]), digest=DIGESTS, mutation=MUTATIONS)
@example(dimension=0, digest="rewritten", mutation=("drop line", 4, b""))  # distmat: a test row short
def test_mutated_matrix_and_report_never_reach_the_report(primed, tmp_path_factory, stage, dimension, digest, mutation):
    check(*rerun_mutated(primed, tmp_path_factory, dimension, stage, digest, mutation), digest)


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


# --- config values -----------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
# Every key the config file's table knows: PipelineConfig's fields, the
# schema's keys and the CLI's data path.
CONFIG_KEYS = [
    *(key.name for key in dataclasses.fields(PipelineConfig)),
    *(f"schema.{name}" for name in pipeline._SCHEMA),
    *pipeline.CLI_FIELDS,
]


@pytest.fixture(scope="module")
def config_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("config-data") / "series.csv"
    io.write_series_csv(synthetic_two_class_series(n_windows=N_WINDOWS), data)
    return data


# A run over a mutated config may have a 0/0 metric.
@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS), value=JSON_VALUES)
@example(key="data", value=5)
@example(key="data", value=["a"])
@example(key="data", value="")  # the current directory, not a data file
@example(key="p", value=10**400)  # an int no float holds
@example(key="maxscale", value=-(10**400))
@example(key="maxscale", value=math.nan)  # dimension 0, dropped: no stage uses it
@example(key="offset", value=[10**400, 0, 0])
@example(key="stride", value=2**63)  # past int64: one window per split
@example(key="label_rule", value="any\npositive")  # a line break in the value the message quotes
def test_any_json_value_in_any_config_key(config_data, tmp_path_factory, key, value):
    """A config with one key set to any JSON value: ``from_dict`` and the
    offset and anchors raise only ``ValueError`` or ``KeyError``, and
    ``topowin run`` succeeds, writing ``provenance.json`` and ``report.json``
    as strict JSON (no ``NaN`` or ``Infinity``), or exits with its code and
    one stderr line, leaving no runs directory after a usage error."""
    payload = synthetic_config_dict("fuzzed", config_data, n_windows=N_WINDOWS)
    parent, name = ("schema", key[len("schema.") :]) if key.startswith("schema.") else (None, key)
    (payload[parent] if parent else payload)[name] = value
    try:
        pipeline.augment_config(PipelineConfig.from_dict(payload))
    except (ValueError, KeyError):
        pass

    base = tmp_path_factory.mktemp("fuzzed")
    config, out = base / "fuzzed.json", base / "runs"
    io.write_json(config, payload)
    stderr, stdout = StringIO(), StringIO()
    with redirect_stderr(stderr), redirect_stdout(stdout):
        code = main(["run", "--config", str(config), "--out", str(out)])
    if code != 0:
        # 4 is a file error: say, a run_id too long for a directory name.
        assert code in (1, 2, 3, 4)
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
        assert "Traceback" not in stderr.getvalue()
    if code == 0:
        (run_dir,) = out.iterdir()
        for name in ("provenance.json", "report.json"):
            json.loads((run_dir / name).read_text(encoding="utf-8"), parse_constant=refuse_constant)
    if code == 1:
        assert not out.exists()


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# --- stage commands over mutated inputs ---------------------------------------

# Per command: its input flags, each naming a file of the stage chain, and
# any other flag; the config and --out are added for every command but
# plot-diagram, which reads no config.
COMMAND_INPUTS = {
    "windows": ["--series", "series.csv"],
    "diagrams": ["--windows", "windows.csv", "--params", "params.json"],
    "distmat": ["--diagrams", "diagrams.csv", "--windows", "windows.csv"],
    "classify": ["--matrix", "distmat.csv", "--windows", "windows.csv"],
    "sweep-k": ["--matrix", "distmat.csv", "--windows", "windows.csv", "--ks", "1,3"],
    "plot-diagram": ["--diagram", "diagrams.csv", "--split", "train", "--index", "0"],
}
# (command, the input it is fed mutated): every input file of every command.
COMMAND_CASES = [(command, name) for command, flags in COMMAND_INPUTS.items() for name in flags[1::2] if "." in name]


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, its stdout dropped."""
    stderr = StringIO()
    with redirect_stderr(stderr), redirect_stdout(StringIO()):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def stage_chain(tmp_path_factory):
    """Per dimension: a config and the directory of the README stage chain
    ``ingest -> windows -> diagrams -> distmat`` run over it."""
    base = tmp_path_factory.mktemp("chain")
    data = base / "series-in.csv"
    io.write_series_csv(synthetic_two_class_series(n_windows=N_WINDOWS), data)
    out = {}
    for dimension in (0, 1):
        payload = synthetic_config_dict("chain", data, n_windows=N_WINDOWS)
        payload.update(dimension=dimension, maxscale=3.0)
        config, chain = base / f"chain-{dimension}.json", base / f"chain-{dimension}"
        io.write_json(config, payload)
        common = ["--config", str(config), "--out", str(chain)]
        assert quiet_main(["ingest", *common]) == (0, "")
        for command in ("windows", "diagrams", "distmat"):
            flags = [str(chain / flag) if "." in flag else flag for flag in COMMAND_INPUTS[command]]
            assert quiet_main([command, *common, *flags]) == (0, "")
        out[dimension] = config, chain
    return out


# A mutated input may give a 0/0 metric.
@pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
@settings(max_examples=300, deadline=None)
@given(dimension=st.sampled_from([0, 1]), case=st.sampled_from(COMMAND_CASES), mutation=MUTATIONS)
@example(dimension=0, case=("distmat", "diagrams.csv"), mutation=("flip", 40, b"\x80"))  # bytes not UTF-8
def test_mutated_input_to_a_stage_command(stage_chain, tmp_path_factory, dimension, case, mutation):
    """A stage command fed one mutated input file succeeds or exits 1, 2 or
    3 with one stderr line and no traceback.  The config and flags are
    valid, so only ``plot-diagram``, whose selection the file may no longer
    hold, may answer with a usage error."""
    config, chain = stage_chain[dimension]
    command, name = case
    original = (chain / name).read_bytes()
    mutated = mutate(original, *mutation)
    if mutated == original:
        reject()
    base = tmp_path_factory.mktemp("mutated-input")
    (base / name).write_bytes(mutated)
    flags = [str((base if flag == name else chain) / flag) if "." in flag else flag for flag in COMMAND_INPUTS[command]]
    common = [] if command == "plot-diagram" else ["--config", str(config)]
    code, stderr = quiet_main([command, *common, "--out", str(base / "out"), *flags])
    if code != 0:
        assert code in ((1, 2) if command == "plot-diagram" else (2, 3)), stderr
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert "Traceback" not in stderr
