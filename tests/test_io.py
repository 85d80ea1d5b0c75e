"""Byte contract of the CSV artifact writers.

The writers format lines themselves; these tests pin their output to what
``csv.writer(lineterminator="\\n")`` writes for the same cells (floats as
``repr``), including cells that need quoting, and check that every artifact
reads back to the values written.
"""

import csv
import dataclasses
import io as stdio
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import PipelineConfig, describe_run, io, run
from topowin.classify import EvaluationReport, KSweepEntry
from topowin.distance import DistanceMatrix
from topowin.errors import DataError
from topowin.ingest import StandardizationParams, TimeSeries
from topowin.persistence import Diagrams, PersistenceDiagram, rips_persistence_dim0
from topowin.pipeline import cut_windows
from topowin.windowing import LabeledWindow, WindowConfig, Windows, make_windows
from conftest import synthetic_config_dict, windows_of

# Values whose shortest round-trip form is easy to get wrong: a signed zero,
# the smallest subnormal, the switch to exponent notation at 1e16 and 1e-5,
# a sum that is not 0.3, and the largest finite double.
SPECIAL = (-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16, 1.7976931348623157e308)
QUOTED_SPLIT = ' odd, "split"'
SPLITS = (QUOTED_SPLIT, "test")


def csv_bytes(rows) -> bytes:
    buf = stdio.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def float_cells(path, first):
    """The cells from column ``first`` on of every data row, as written."""
    with path.open(encoding="utf-8", newline="") as fh:
        return [cell for row in list(csv.reader(fh))[1:] for cell in row[first:]]


def series():
    values = np.array([SPECIAL, SPECIAL[::-1]]).T  # (6, 2)
    return TimeSeries(
        timestamps=np.array(SPECIAL),
        values=values,
        labels=np.array([0, 1, 0, 1, 1, 0]),
        channel_names=("a,1", "b"),
    )


def windows():
    points = np.array(SPECIAL).reshape(3, 2)
    return {
        split: windows_of(
            [
                LabeledWindow(points=points * (-1) ** i, label=i % 2, time_range=(SPECIAL[i], SPECIAL[-1]))
                for i in range(2)
            ]
        )
        for split in SPLITS
    }


def series_rows(s):
    """``csv.writer`` rows of ``write_series_csv``."""
    return [["timestamp", *s.channel_names, "label"]] + [
        [repr(float(s.timestamps[i]))] + [repr(float(v)) for v in s.values[i]] + [int(s.labels[i])]
        for i in range(s.length)
    ]


def windows_rows(wins, channel_names):
    """``csv.writer`` rows of ``write_windows_csv``."""
    rows = [["split", "window", "point", "label", "t_first", "t_last", *channel_names]]
    for split, ws in wins.items():
        for index, win in enumerate(ws):
            t0, t1 = win.time_range
            for p, point in enumerate(win.points):
                rows.append([split, index, p, win.label, repr(float(t0)), repr(float(t1))] + [repr(float(v)) for v in point])
    return rows


def clouds():
    points = np.array(SPECIAL).reshape(2, 3)
    return {split: np.array([points, -points]) for split in SPLITS}


# Special points of a dimension-1 file, births other than 0 among them.
DIM1_PAIRS = ((-0.0, 5e-324), (1e-05, 0.1 + 0.2), (0.0, 1e16), (0.0, 1.7976931348623157e308))


def diagrams():
    """Dimension 1, with a window without points, which a dimension-0 file
    may not have."""
    return {split: Diagrams.from_pairs(1, [DIM1_PAIRS, (), DIM1_PAIRS[1:3]]) for split in SPLITS}


# Special deaths of a dimension-0 file, one row per window, each in order.
DIM0_DEATHS = (
    [0.0, 5e-324, 0.1 + 0.2, 1e16, 1.7976931348623157e308],
    [5e-324],
    [0.1 + 0.2, 1e16],
)


def dim0_diagrams():
    return {split: Diagrams.from_pairs(0, [[(0.0, d) for d in row] for row in DIM0_DEATHS]) for split in SPLITS}


def distmat():
    return DistanceMatrix(np.array(SPECIAL).reshape(2, 3))


class TestBytesMatchCsvWriter:
    def test_series(self, tmp_path):
        s = series()
        io.write_series_csv(s, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == csv_bytes(series_rows(s))
        assert b'"a,1"' in (tmp_path / "s.csv").read_bytes()

    def test_windows(self, tmp_path):
        wins = windows()
        io.write_windows_csv(wins, ("a,1", "b"), tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_bytes() == csv_bytes(windows_rows(wins, ("a,1", "b")))

    def test_series_then_windows_with_one_memo(self, tmp_path):
        s = series()  # row 0 is (-0.0, 1.7976931348623157e+308)
        flipped = s.values[:1] * [-1.0, 1.0]  # equal to row 0 as floats, not as bytes
        wins = {
            "test": windows_of(
                [
                    LabeledWindow(np.vstack([flipped, s.values[:2]]), 0, (0.0, 1.0)),
                    LabeledWindow(s.values[2:5], 1, (2.0, 3.0)),
                ]
            )
        }
        memo = {}
        io.write_series_csv(s, tmp_path / "s.csv", memo)
        io.write_windows_csv(wins, s.channel_names, tmp_path / "w.csv", memo)
        assert (tmp_path / "s.csv").read_bytes() == csv_bytes(series_rows(s))
        assert (tmp_path / "w.csv").read_bytes() == csv_bytes(windows_rows(wins, s.channel_names))
        assert b",0.0,1.7976931348623157e+308\n" in (tmp_path / "w.csv").read_bytes()

    @pytest.mark.parametrize("shared", [False, True], ids=["no-memo", "series-memo"])
    def test_overlapping_windows(self, tmp_path, shared):
        s = series()
        wins = {"all": make_windows(s, WindowConfig(w=4, s=1))}  # each middle row in up to 4 windows
        memo = {}
        if shared:
            io.write_series_csv(s, tmp_path / "s.csv", memo)
        io.write_windows_csv(wins, s.channel_names, tmp_path / "w.csv", *([memo] if shared else []))
        assert (tmp_path / "w.csv").read_bytes() == csv_bytes(windows_rows(wins, s.channel_names))

    def test_run_with_kept_series_and_recomputed_windows(self, synth_csv, tmp_path, monkeypatch):
        # The series is loaded again from the data; its artifact passes its
        # digest, so it is not written, and the windows are written without a memo.
        cfg = PipelineConfig.from_dict(synthetic_config_dict("memo", synth_csv, n_windows=30))
        run(cfg, synth_csv, runs_root=tmp_path)
        cfg = dataclasses.replace(cfg, window=dataclasses.replace(cfg.window, s=3))  # overlapping
        writes, memos, write_series_csv, write_windows_csv = [], [], io.write_series_csv, io.write_windows_csv
        monkeypatch.setattr(io, "write_series_csv", lambda *args: (writes.append(args), write_series_csv(*args))[1])
        monkeypatch.setattr(
            io, "write_windows_csv", lambda w, c, p, memo=None: (memos.append(memo), write_windows_csv(w, c, p, memo))[1]
        )
        run(cfg, synth_csv, runs_root=tmp_path)
        stages = {s["stage"]: s for s in describe_run(cfg.run_id, tmp_path)["stages"]}
        assert (stages["ingest"]["status"], stages["windows"]["status"]) == ("computed", "computed")
        assert "reason" not in stages["ingest"]
        assert (writes, memos) == ([], [None])
        ingest, windows = Path(stages["ingest"]["path"]), Path(stages["windows"]["path"])
        s = io.read_series_csv(ingest)
        assert ingest.read_bytes() == csv_bytes(series_rows(s))
        assert windows.read_bytes() == csv_bytes(windows_rows(cut_windows(s, cfg), cfg.schema.features))

    def test_run_with_kept_windows_and_rewritten_series(self, synth_csv, tmp_path, monkeypatch):
        # No windows writer follows, so the series is written without a memo.
        cfg = PipelineConfig.from_dict(synthetic_config_dict("memo", synth_csv, n_windows=30))
        run(cfg, synth_csv, runs_root=tmp_path)
        stages = {s["stage"]: s for s in describe_run(cfg.run_id, tmp_path)["stages"]}
        windows = Path(stages["windows"]["path"])
        before = windows.read_bytes()
        Path(stages["ingest"]["path"]).unlink()
        memos, write_series_csv, write_windows_csv = [], io.write_series_csv, io.write_windows_csv
        monkeypatch.setattr(io, "write_series_csv", lambda s, p, memo=None: (memos.append(memo), write_series_csv(s, p, memo))[1])
        monkeypatch.setattr(io, "write_windows_csv", lambda *args: pytest.fail("windows that pass their digest were written"))
        run(dataclasses.replace(cfg, standardize_mode="fit_on_train"), synth_csv, runs_root=tmp_path)
        stages = {s["stage"]: s for s in describe_run(cfg.run_id, tmp_path)["stages"]}
        assert (stages["ingest"]["status"], stages["windows"]["status"]) == ("computed", "computed")
        assert memos == [None]
        assert windows.read_bytes() == before
        ingest = Path(stages["ingest"]["path"])
        assert ingest.read_bytes() == csv_bytes(series_rows(io.read_series_csv(ingest)))

    def test_clouds(self, tmp_path):
        cl = clouds()
        io.write_clouds_csv(cl, tmp_path / "c.csv")
        expected = [["split", "window", "point", "x0", "x1", "x2"]]
        for split, cs in cl.items():
            for index, cloud in enumerate(cs):
                for p, point in enumerate(cloud):
                    expected.append([split, index, p] + [repr(float(v)) for v in point])
        assert (tmp_path / "c.csv").read_bytes() == csv_bytes(expected)

    def test_diagrams(self, tmp_path):
        diags = diagrams()
        io.write_diagrams_csv(diags, tmp_path / "d.csv")
        expected = [["split", "window", "dim", "birth", "death"]]
        for split, ds in diags.items():
            for index, diag in enumerate(ds):
                expected += [[split, index, diag.dim, repr(b), repr(d)] for b, d in diag.pairs]
        assert (tmp_path / "d.csv").read_bytes() == csv_bytes(expected)

    @pytest.mark.parametrize("policy", [("dropped", None), ("capped", 0.7)], ids=["dropped", "capped"])
    def test_dim0_diagrams_write_as_their_lists(self, tmp_path, policy):
        # More windows than one chunk, of mixed point counts (one-point
        # clouds have no row when dropped), and an empty split.
        rng = np.random.default_rng(41)
        clouds = [rng.normal(size=(int(rng.integers(1, 7)), 2)) for _ in range(3 * io._CHUNK_ROWS + 5)]
        views = {
            split: Diagrams.from_pairs(0, [rips_persistence_dim0(c, *policy).pairs for c in part])
            for split, part in zip(SPLITS + ("empty",), (clouds[:7], clouds[7:], []))
        }
        io.write_diagrams_csv(views, tmp_path / "views.csv")
        expected = [["split", "window", "dim", "birth", "death"]]
        for split, view in views.items():
            for index, diag in enumerate(list(view)):
                expected += [[split, index, diag.dim, repr(b), repr(d)] for b, d in diag.pairs]
        assert (tmp_path / "views.csv").read_bytes() == csv_bytes(expected)

    def test_distmat(self, tmp_path):
        m = distmat()
        io.write_distmat_csv(m, tmp_path / "m.csv")
        expected = [["window", "0", "1", "2"]] + [
            [str(i)] + [repr(float(v)) for v in row] for i, row in enumerate(m.values)
        ]
        assert (tmp_path / "m.csv").read_bytes() == csv_bytes(expected)

    def test_sweep(self, tmp_path):
        entries = [KSweepEntry(1, Fraction(1, 3), None, Fraction(2, 3)), KSweepEntry(5, Fraction(1), Fraction(0), None)]
        io.write_sweep_csv(entries, tmp_path / "k.csv")
        expected = [["k", "accuracy", "sensitivity", "specificity"]] + [
            [e.k] + ["" if v is None else repr(float(v)) for v in (e.accuracy, e.sensitivity, e.specificity)]
            for e in entries
        ]
        assert (tmp_path / "k.csv").read_bytes() == csv_bytes(expected)

    def test_empty_split_name(self, tmp_path):
        # A lone empty cell is quoted by csv; inside a row it is not.
        wins = {"": windows()["test"]}
        io.write_windows_csv(wins, ("a", "b"), tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()[1].startswith(",0,0,")


class TestBytesMatchCsvWriterInSmallChunks(TestBytesMatchCsvWriter):
    """Every case again, with rows formatted and lines joined two at a time."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(io, "_CHUNK_ROWS", 2)


# Floats for the series round trip: any finite double, with the values whose
# text is easy to get wrong drawn often (a subnormal above 5e-324 too).
ROUND_TRIP_FLOATS = st.one_of(
    st.sampled_from([*SPECIAL, 2.2250738585072014e-308 / 3, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Channel names ingest can write: distinct, not a fixed column, no spaces at
# either end.  Plain ones keep the file in ``load_csv``'s C pass; each
# quoted one holds a comma or a quote, which sends it to the row loop.
PLAIN_NAME = st.text("abxyz_019 é", min_size=1, max_size=6).filter(lambda n: n == n.strip())
QUOTED_NAME = st.tuples(PLAIN_NAME, st.sampled_from([",", '"', ', "'])).map("".join)
ROUND_TRIP_NAMES = {
    "c-pass": st.lists(PLAIN_NAME, min_size=1, max_size=3, unique=True),
    "row-loop": st.tuples(QUOTED_NAME, st.lists(PLAIN_NAME, max_size=2)).map(lambda t: [t[0], *t[1]]),
}


def refuse_row_loop(path, schema):
    raise AssertionError(f"{path} went to the row loop")


class TestReadBack:
    @pytest.mark.parametrize("route", ROUND_TRIP_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_series_round_trip_keeps_every_bit(self, tmp_path_factory, route, data):
        names = tuple(dict.fromkeys(data.draw(ROUND_TRIP_NAMES[route])))  # distinct, first kept
        n = data.draw(st.integers(1, 12))
        timestamps = sorted(data.draw(st.lists(ROUND_TRIP_FLOATS, min_size=n, max_size=n, unique=True)))
        row = st.lists(ROUND_TRIP_FLOATS, min_size=len(names), max_size=len(names))
        values = data.draw(st.lists(row, min_size=n, max_size=n))
        low, high = (1 - 2**53, 2**53 - 1) if route == "c-pass" else (-(2**63), 2**63 - 1)  # C pass: below 2**53
        labels = data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
        s = TimeSeries(np.array(timestamps), np.array(values), np.array(labels), names)
        first, second = tmp_path_factory.mktemp("series") / "s.csv", tmp_path_factory.mktemp("series") / "s.csv"
        io.write_series_csv(s, first)
        assert (b'"' in first.read_bytes()) == (route == "row-loop")
        with pytest.MonkeyPatch.context() as mp:
            if route == "c-pass":
                mp.setattr("topowin.ingest._load_rows", refuse_row_loop)
            again = io.read_series_csv(first)
        assert again.channel_names == names
        for got, want in [(again.timestamps, s.timestamps), (again.values, s.values), (again.labels, s.labels)]:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        io.write_series_csv(again, second)
        assert second.read_bytes() == first.read_bytes()

    def test_series(self, tmp_path):
        s = series()
        io.write_series_csv(s, tmp_path / "s.csv")
        again = io.read_series_csv(tmp_path / "s.csv")
        assert again.channel_names == s.channel_names
        assert again.timestamps.tolist() == s.timestamps.tolist()
        assert again.values.tolist() == s.values.tolist()
        assert again.labels.tolist() == s.labels.tolist()
        assert math.copysign(1.0, again.timestamps[0]) == -1.0

    def test_windows(self, tmp_path):
        wins = windows()
        io.write_windows_csv(wins, ("a,1", "b"), tmp_path / "w.csv")
        again = io.read_windows_csv(tmp_path / "w.csv")
        assert list(again) == list(wins)
        for split in wins:
            assert isinstance(again[split], Windows)
            for name in ("points", "labels", "time_ranges"):
                got, want = getattr(again[split], name), getattr(wins[split], name)
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
                assert not got.flags.writeable
            for got, want in zip(again[split], wins[split], strict=True):
                assert (got.label, got.time_range) == (want.label, want.time_range)
                assert got.points.tolist() == want.points.tolist()

    def test_clouds(self, tmp_path):
        cl = clouds()
        io.write_clouds_csv(cl, tmp_path / "c.csv")
        again = io.read_clouds_csv(tmp_path / "c.csv")
        assert list(again) == list(cl)
        for split in cl:
            assert (again[split].dtype, again[split].shape) == (np.float64, (2, 2, 3))
            assert again[split].tobytes() == cl[split].tobytes()

    def test_diagrams(self, tmp_path):
        diags = diagrams()
        io.write_diagrams_csv(diags, tmp_path / "d.csv")
        again = io.read_diagrams_csv(tmp_path / "d.csv", {s: len(d) for s, d in diags.items()}, 1)
        assert again == diags
        for split, view in again.items():
            assert view.dim == 1 and view.counts.tolist() == [4, 0, 2]
            for name in ("births", "deaths", "counts"):
                assert getattr(view, name).tobytes() == getattr(diags[split], name).tobytes()

    def test_dim0_diagrams(self, tmp_path):
        diags = dim0_diagrams()
        io.write_diagrams_csv(diags, tmp_path / "d.csv")
        again = io.read_diagrams_csv(tmp_path / "d.csv", {s: len(DIM0_DEATHS) for s in SPLITS}, 0)
        assert list(again) == list(SPLITS)
        for split, view in again.items():
            assert isinstance(view, Diagrams) and view.dim == 0
            for name in ("births", "deaths", "counts"):
                assert getattr(view, name).tobytes() == getattr(diags[split], name).tobytes()
            assert view.counts.tolist() == [5, 1, 2]
            assert [[d for _, d in row] for row in view.rows()] == list(DIM0_DEATHS)
        io.write_diagrams_csv(again, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()

    @pytest.mark.parametrize(
        "policy", [{}, {"essential_policy": "capped", "maxscale": 1.0}], ids=["dropped", "capped"]
    )
    def test_dim0_reads_back_as_the_batch_wrote_it(self, tmp_path, policy):
        # Clouds of 2 to 7 points, so each split's rows have mixed widths.
        rng = np.random.default_rng(43)
        clouds = [rng.normal(size=(int(rng.integers(2, 8)), 2)) for _ in range(2 * io._CHUNK_ROWS + 9)]
        parts = zip(SPLITS, (clouds[:9], clouds[9:]))
        batches = {
            split: Diagrams.from_pairs(0, [rips_persistence_dim0(c, **policy).pairs for c in part])
            for split, part in parts
        }
        if policy:
            # The cap lies inside the deaths' range, so it is not the largest death of every row.
            deaths = np.concatenate([view.deaths[view.deaths > 0] for view in batches.values()])
            assert deaths.min() < 1.0 < deaths.max()
        assert len({int(n) for view in batches.values() for n in view.counts}) > 1
        io.write_diagrams_csv(batches, tmp_path / "d.csv")
        again = io.read_diagrams_csv(tmp_path / "d.csv", {s: len(v) for s, v in batches.items()}, 0)
        for split, view in batches.items():
            assert isinstance(again[split], Diagrams) and again[split].dim == 0
            for name in ("births", "deaths", "counts"):
                assert getattr(again[split], name).tobytes() == getattr(view, name).tobytes()

    def test_dim0_point_born_off_zero_names_its_line(self, tmp_path):
        path = tmp_path / "d.csv"
        io.write_diagrams_csv(dim0_diagrams(), path)
        replace_line(path, 10, "test,0,0,0.25,1.0")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 10: dimension-0 point born at 0.25, not 0")):
            io.read_diagrams_csv(path, {s: 3 for s in SPLITS}, 0)

    def test_dim0_window_without_rows_is_named(self, tmp_path):
        path = tmp_path / "d.csv"
        io.write_diagrams_csv(dim0_diagrams(), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("test,1,")), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: no rows for split 'test' window 1")):
            io.read_diagrams_csv(path, {s: 3 for s in SPLITS}, 0)

    # diagrams() per split: window 0 on four lines, window 2 on two (window 1
    # is empty), so the file reads: header, split 0 on lines 2-7, split 1 on 8-13.
    @pytest.mark.parametrize(
        "counts, dim, message",
        [
            ({SPLITS[0]: 3}, 1, "line 8: split 'test' is not among the windows' splits"),
            ({s: 2 for s in SPLITS}, 1, "line 6: window 2 is outside split ' odd, \"split\"' (2 windows)"),
            ({s: 3 for s in SPLITS}, 0, "line 2: dimension 1, not 0"),
        ],
        ids=["split", "window", "dim"],
    )
    def test_diagram_row_the_read_cannot_place(self, tmp_path, counts, dim, message):
        io.write_diagrams_csv(diagrams(), tmp_path / "d.csv")
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'd.csv'}: {message}")):
            io.read_diagrams_csv(tmp_path / "d.csv", counts, dim)

    def test_bad_diagram_row_names_its_line_past_blank_ones(self, tmp_path):
        path = tmp_path / "d.csv"
        io.write_diagrams_csv(diagrams(), path)
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(f"{header}\n\n\n{rest}", encoding="utf-8")
        with pytest.raises(DataError, match="line 4: dimension 1, not 0"):
            io.read_diagrams_csv(path, {s: 3 for s in SPLITS}, 0)

    def test_distmat(self, tmp_path):
        m = distmat()
        io.write_distmat_csv(m, tmp_path / "m.csv")
        again = io.read_distmat_csv(tmp_path / "m.csv")
        assert again.values.tolist() == m.values.tolist()


class TestDiagramSetHash:
    @pytest.mark.parametrize("dim", [0, 1])
    def test_hashes_each_point_without_building_a_diagram(self, monkeypatch, dim):
        sets = dim0_diagrams() if dim == 0 else diagrams()
        lines = [
            f"{split}|{index}|{diag.dim}|{b!r}|{d!r}"
            for split in sorted(sets)
            for index, diag in enumerate(sets[split])
            for b, d in diag.pairs
        ]
        want = io.sha256_bytes("\n".join(lines).encode("utf-8"))

        def built(diag):
            raise AssertionError("a PersistenceDiagram was built")

        monkeypatch.setattr(PersistenceDiagram, "__post_init__", built)
        assert io.diagram_set_hash(sets) == want
        assert io.diagram_set_hash({SPLITS[1]: sets[SPLITS[1]]}) != want


class TestSpecialFloats:
    """Every writer puts each special value down exactly as ``repr`` writes it."""

    WANT = [repr(v) for v in SPECIAL]

    def test_series(self, tmp_path):
        io.write_series_csv(series(), tmp_path / "s.csv")
        with (tmp_path / "s.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == self.WANT
        assert [r[1] for r in rows] == self.WANT
        assert [r[2] for r in rows] == self.WANT[::-1]

    def test_windows(self, tmp_path):
        io.write_windows_csv({"test": windows()["test"][:1]}, ("a", "b"), tmp_path / "w.csv")
        with (tmp_path / "w.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [c for r in rows for c in r[6:]] == self.WANT
        assert {(r[4], r[5]) for r in rows} == {(self.WANT[0], self.WANT[-1])}

    def test_clouds(self, tmp_path):
        io.write_clouds_csv({"test": clouds()["test"][:1]}, tmp_path / "c.csv")
        assert float_cells(tmp_path / "c.csv", 3) == self.WANT

    def test_diagrams(self, tmp_path):
        io.write_diagrams_csv({"test": Diagrams.from_pairs(1, [DIM1_PAIRS])}, tmp_path / "d.csv")
        assert float_cells(tmp_path / "d.csv", 3) == [
            "-0.0", "5e-324", "1e-05", "0.30000000000000004", "0.0", "1e+16", "0.0", "1.7976931348623157e+308"
        ]

    def test_distmat(self, tmp_path):
        io.write_distmat_csv(distmat(), tmp_path / "m.csv")
        assert float_cells(tmp_path / "m.csv", 1) == self.WANT

    def test_sweep(self, tmp_path):
        entries = [KSweepEntry(1, SPECIAL[0], SPECIAL[1], SPECIAL[2]), KSweepEntry(2, *SPECIAL[3:])]
        io.write_sweep_csv(entries, tmp_path / "k.csv")
        assert float_cells(tmp_path / "k.csv", 1) == self.WANT



class TestWriteTextSkipsSameBytes:
    """``write_text`` leaves a target that already holds the bytes alone;
    every other write replaces the target atomically.  Either way it returns
    the SHA-256 of the bytes at the target."""

    @pytest.mark.parametrize(
        "text", ["héllo\n", ["h", "éllo", "\n"], ["", "héllo\n", ""]], ids=["whole", "three-chunks", "empty-ends"]
    )
    def test_same_bytes_not_replaced(self, tmp_path, replaced, text):
        path = tmp_path / "a.txt"
        path.write_bytes("héllo\n".encode("utf-8"))
        assert io.write_text(path, iter(text) if isinstance(text, list) else text) == io.sha256_bytes(path.read_bytes())
        assert replaced == []
        assert path.read_bytes() == "héllo\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]  # the temp file is gone

    def test_empty_text_over_empty_file_not_replaced(self, tmp_path, replaced):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        io.write_text(path, "")
        assert replaced == []

    @pytest.mark.parametrize(
        "old, new",
        [("abc\n", "abd\n"), ("abc\n", "abcd\n"), ("abcd\n", "abc\n"), ("é\n", "ab\n"), ("ab\n", "é\n")],
        ids=["same-size", "longer", "shorter", "same-size-non-ascii-old", "same-size-non-ascii-new"],
    )
    def test_different_bytes_replaced(self, tmp_path, replaced, old, new):
        path = tmp_path / "a.txt"
        path.write_bytes(old.encode("utf-8"))
        io.write_text(path, new)
        assert replaced == [path]
        assert path.read_bytes() == new.encode("utf-8")

    def test_missing_target_written(self, tmp_path, replaced):
        path = tmp_path / "new" / "a.txt"
        io.write_text(path, "x\n")
        assert replaced == [path]
        assert path.read_bytes() == b"x\n"

    def test_symlink_with_same_bytes_replaced_by_a_file(self, tmp_path, replaced):
        target = tmp_path / "target.txt"
        target.write_bytes(b"x\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        io.write_text(link, "x\n")
        assert replaced == [link]
        assert not link.is_symlink()
        assert link.read_bytes() == b"x\n"

    def test_compare_error_falls_through_to_the_write(self, tmp_path, monkeypatch, replaced):
        path = tmp_path / "a.txt"
        path.write_bytes(b"x\n")

        def unreadable(path):
            raise PermissionError(path)

        monkeypatch.setattr(io, "sha256_file", unreadable)
        assert io.write_text(path, "x\n") == io.sha256_bytes(b"x\n")
        assert replaced == [path]

    def test_missing_target_is_not_read_and_text_encoded_once(self, tmp_path, monkeypatch):
        # A cold write reads nothing back and makes one encoded copy of each chunk.
        encoded = []

        class Text(str):
            def encode(self, *args, **kwargs):
                encoded.append(str(self))
                return super().encode(*args, **kwargs)

        def unexpected(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(io, "sha256_file", unexpected)
        assert io.write_text(tmp_path / "a.txt", Text("x\n")) == io.sha256_bytes(b"x\n")
        chunks = iter([Text("é,"), Text(""), Text("y\n")])
        assert io.write_text(tmp_path / "b.txt", chunks) == io.sha256_bytes("é,y\n".encode())
        assert encoded == ["x\n", "é,", "", "y\n"]
        assert [(tmp_path / n).read_bytes() for n in ("a.txt", "b.txt")] == [b"x\n", "é,y\n".encode()]

    def test_no_chunks_write_an_empty_file(self, tmp_path):
        assert io.write_text(tmp_path / "a.txt", iter([])) == io.sha256_bytes(b"")
        assert (tmp_path / "a.txt").read_bytes() == b""


# Each writer on small values: path -> the digest it returns.
WRITERS = {
    "series": lambda path: io.write_series_csv(series(), path),
    "params": lambda path: io.write_params_json(StandardizationParams([-0.0, 1e16], [0.1 + 0.2, 5e-324]), path),
    "windows": lambda path: io.write_windows_csv(windows(), ("a,1", "b"), path),
    "clouds": lambda path: io.write_clouds_csv(clouds(), path),
    "diagrams": lambda path: io.write_diagrams_csv(diagrams(), path),
    "distmat": lambda path: io.write_distmat_csv(distmat(), path),
    "sweep": lambda path: io.write_sweep_csv([KSweepEntry(1, Fraction(1, 3), None, Fraction(2, 3))], path),
    "report": lambda path: io.write_report_json(EvaluationReport.from_confusion([0, 1], [[2, 1], [0, 3]]), path),
    "json": lambda path: io.write_json(path, {"é": [1, None]}),
    "text": lambda path: io.write_text(path, "é\n"),
}


def chunk_lines(monkeypatch):
    """Wrap ``io.write_text``; the returned list gets, per call, the line
    count of each chunk it was handed."""
    calls, write_text = [], io.write_text

    def recording(path, text):
        chunks = [text] if isinstance(text, str) else list(text)
        calls.append([chunk.count("\n") for chunk in chunks])
        return write_text(path, iter(chunks))

    monkeypatch.setattr(io, "write_text", recording)
    return calls


class TestWritersStreamAndReturnTheirDigest:
    @pytest.mark.parametrize("kind", WRITERS)
    def test_returns_the_digest_of_the_file(self, tmp_path, kind):
        path = tmp_path / "artifact"
        digest = WRITERS[kind](path)
        assert digest == io.sha256_file(path)
        path.write_bytes(b"other\n")
        assert WRITERS[kind](path) == digest  # rewritten
        assert WRITERS[kind](path) == digest  # already held the bytes
        assert io.sha256_file(path) == digest

    @pytest.mark.parametrize("kind", ["series", "windows", "clouds", "diagrams", "distmat", "sweep"])
    def test_header_then_chunks_of_chunk_rows_lines(self, tmp_path, monkeypatch, kind):
        monkeypatch.setattr(io, "_CHUNK_ROWS", 2)
        calls = chunk_lines(monkeypatch)
        WRITERS[kind](tmp_path / "artifact")
        (counts,) = calls
        assert counts[0] == 1 and counts[1:] and all(n == 2 for n in counts[1:-1]) and counts[-1] in (1, 2)
        assert sum(counts) == len((tmp_path / "artifact").read_bytes().splitlines())

    def test_wide_matrix_chunks_are_bounded_by_cells(self, tmp_path, monkeypatch):
        width = io._CHUNK_CELLS // 2 - 1  # two rows per chunk
        m = DistanceMatrix(np.linspace(0, 1, 5 * width).reshape(5, width))
        calls = chunk_lines(monkeypatch)
        io.write_distmat_csv(m, tmp_path / "m.csv")
        assert calls == [[1, 2, 2, 1]]
        assert io.read_distmat_csv(tmp_path / "m.csv").values.tolist() == m.values.tolist()


def replace_line(path, line, text):
    """Put ``text`` on line ``line`` (1-based) of a file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line - 1] = text
    path.write_text("\n".join(lines), encoding="utf-8")


def simple_windows():
    """Split 'a': window 0 on lines 2-4, window 1 on lines 5-7."""
    points = np.arange(6.0).reshape(3, 2)
    return {"a": windows_of([LabeledWindow(points=points + i, label=i, time_range=(float(i), i + 0.5)) for i in range(2)])}


class TestMalformedReads:
    """A malformed artifact is a DataError naming its file, and its line
    wherever one row is at fault."""

    @pytest.mark.parametrize(
        "kind, line, cell, message",
        [
            ("series", 3, "1.0,x2,1.0,1", "could not convert string to float: 'x2'"),
            ("series", 4, "1.0,2.0,1.0,x", "could not convert string to float: 'x'"),
            ("windows", 3, "a,0,x,0,0.0,0.5,2.0,3.0", "invalid literal for int()"),
            ("windows", 2, "a,0,0,0,zz,0.5,0.0,1.0", "could not convert string to float: 'zz'"),
            ("windows", 5, "a,1,0,99999999999999999999,1.0,1.5,6.0,7.0", "Python int too large to convert to C long"),
            ("windows", 6, "a,1,1,1,1.0,1.5,nan,9.0", "point 1 of split 'a' window 1 has a coordinate that is not finite"),
            ("clouds", 7, "test,0,1,1.0,abc,2.0", "could not convert string to float: 'abc'"),
            ("clouds", 7, "test,0,1,1.0,-inf,2.0", "point 1 of split 'test' window 0 has a coordinate that is not finite"),
            ("distmat", 3, "1,1.0,abc1.5,2.0", "could not convert string to float: 'abc1.5'"),
            ("distmat", 2, "0,1.0,-1.0,2.0", "distance entries must be finite and nonnegative"),
            ("distmat", 2, "0,1.0,nan,2.0", "distance entries must be finite and nonnegative"),
            ("distmat", 3, "x,1.0,1.0,2.0", "invalid literal for int()"),
            ("distmat", 3, "1,1.0,2.0", "3 fields, the header 4"),
        ],
        ids=[
            "series-value", "series-label", "windows-point", "windows-time",
            "windows-label-beyond-int64", "windows-nan-coordinate", "clouds-coordinate", "clouds-infinite-coordinate",
            "distmat-cell", "distmat-negative", "distmat-nan", "distmat-row-id", "distmat-short-row",
        ],
    )
    def test_bad_row_names_the_file_and_its_line(self, tmp_path, kind, line, cell, message):
        path = tmp_path / "artifact.csv"
        write, read = {
            "series": (lambda: io.write_series_csv(series(), path), io.read_series_csv),
            "windows": (lambda: io.write_windows_csv(simple_windows(), ("c0", "c1"), path), io.read_windows_csv),
            "clouds": (lambda: io.write_clouds_csv(clouds(), path), io.read_clouds_csv),
            "distmat": (lambda: io.write_distmat_csv(distmat(), path), io.read_distmat_csv),
        }[kind]
        write()
        replace_line(path, line, cell)
        count = "1 malformed row(s): " if kind == "series" else ""  # ``load_csv`` counts the bad rows
        with pytest.raises(DataError, match=re.escape(f"{path}: {count}line {line}: {message}")):
            read(path)

    @pytest.mark.parametrize(
        "line, cell, message",
        [
            (3, "a,0,1,7,0.0,0.5,2.0,3.0", "point 1 of split 'a' window 0 has label,t_first,t_last cells 7,0.0,0.5"),
            (4, "a,0,2,0,0.0,0.75,4.0,5.0", "point 2 of split 'a' window 0 has label,t_first,t_last cells 0,0.0,0.75"),
            (7, "a,1,2,1,2.0,1.5,5.0,6.0", "point 2 of split 'a' window 1 has label,t_first,t_last cells 1,2.0,1.5"),
            (6, "a,1,1,1,1.0,zz,3.0,4.0", "point 1 of split 'a' window 1 has label,t_first,t_last cells 1,1.0,zz"),
            (3, "a,0,1,00,0.0,0.5,2.0,3.0", "point 1 of split 'a' window 0 has label,t_first,t_last cells 00,0.0,0.5"),
        ],
        ids=["label", "t_last", "t_first", "unreadable-time", "other-spelling"],
    )
    def test_rows_of_one_window_disagreeing_name_a_line(self, tmp_path, line, cell, message):
        path = tmp_path / "windows.csv"
        io.write_windows_csv(simple_windows(), ("c0", "c1"), path)
        replace_line(path, line, cell)
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {message}")):
            io.read_windows_csv(path)

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("test,0,1,zz,1.0", "could not convert string to float: 'zz'"),
            ("test,0,1,0.0,-1.0", "invalid diagram point (0.0, -1.0): need finite 0 <= birth <= death"),
            ("test,0,1,0.5,inf", "invalid diagram point (0.5, inf)"),
            ("test,0,1,nan,1.0", "invalid diagram point (nan, 1.0)"),
            ("test,x,1,0.0,1.0", "invalid literal for int()"),
        ],
        ids=["death", "negative-death", "infinite-death", "nan-birth", "window"],
    )
    def test_bad_diagram_row_names_its_line(self, tmp_path, cell, message):
        path = tmp_path / "d.csv"
        io.write_diagrams_csv(diagrams(), path)
        replace_line(path, 8, cell)
        with pytest.raises(DataError, match=re.escape(f"{path}: line 8: {message}")):
            io.read_diagrams_csv(path, {s: 3 for s in SPLITS}, 1)

    @pytest.mark.parametrize(
        "read, header",
        [
            (io.read_series_csv, "time,c0,label"),
            (io.read_windows_csv, "split,window,label,point,t_first,t_last,c0"),
            (io.read_clouds_csv, "split,point,window,x0"),
            (lambda p: io.read_diagrams_csv(p, {}, 0), "split,window,dim,birth,death,extra"),
            (io.read_distmat_csv, "row,0,1"),
            (io.read_distmat_csv, ""),
            (io.read_diagram_points, "birth,death,dim"),
        ],
        ids=["series", "windows", "clouds", "diagrams", "distmat", "distmat-blank", "diagram-points"],
    )
    def test_wrong_header_names_line_1(self, tmp_path, read, header):
        path = tmp_path / "artifact.csv"
        path.write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 1: expected columns ")):
            read(path)

    def test_distmat_column_id_names_line_1(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("window,0,x\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 1: invalid literal for int()")):
            io.read_distmat_csv(path)

    def test_header_only_distmat_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("window,0,1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: values shaped (0,), expected a (test, train) matrix")):
            io.read_distmat_csv(path)

    def test_series_check_on_the_whole_value_names_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        io.write_series_csv(series(), path)
        replace_line(path, 3, "-0.0,1.0,1.0,1")  # the timestamp of line 2 again
        with pytest.raises(DataError, match=re.escape(f"{path}: 1 malformed row(s): line 3: timestamps not strictly increasing")):
            io.read_series_csv(path)

    @pytest.mark.parametrize(
        "line, cell, message",
        [
            (4, "5e-324,1.0,1.0,1", "timestamps not strictly increasing (5e-324 after 5e-324)"),
            (5, "1e-06,1.0,1.0,1", "timestamps not strictly increasing (1e-06 after 1e-05)"),
            (4, "2e-05,nan,1.0,1", "non-finite value"),
            (6, "1e+17,1.0,-inf,1", "non-finite value"),
        ],
        ids=["repeated-timestamp", "earlier-timestamp", "nan-value", "infinite-value"],
    )
    def test_series_row_check_names_its_line(self, tmp_path, line, cell, message):
        path = tmp_path / "s.csv"
        io.write_series_csv(series(), path)
        replace_line(path, line, cell)
        with pytest.raises(DataError, match=re.escape(f"{path}: 1 malformed row(s): line {line}: {message}")):
            io.read_series_csv(path)

    @pytest.mark.parametrize("name", [" a", "a ", " a,1"])
    def test_series_channel_with_outer_spaces(self, tmp_path, name):
        # ``load_csv`` strips the header, so it cannot find such a column;
        # ingest refuses the same schema, so no run writes one.
        path = tmp_path / "s.csv"
        io.write_series_csv(dataclasses.replace(series(), channel_names=(name, "b")), path)
        with pytest.raises(DataError, match=re.escape(f"{path}: missing column '{name}'")):
            io.read_series_csv(path)

    @pytest.mark.parametrize("names", [("a", "b"), ("a,1", "b")], ids=["c-pass", "row-loop"])
    @pytest.mark.parametrize(
        "cell, fields",
        [("1e-05,1.0,1.0,1,9", 5), ("1e-05,2,5,3.0,1", 5), ("1e-05,1.0,1.0,1,", 5), ("1e-05,1.0,1", 3)],
        ids=["extra-cell", "shifted-cells", "trailing-delimiter", "short"],
    )
    def test_series_row_of_another_width_names_its_line(self, tmp_path, names, cell, fields):
        path = tmp_path / "s.csv"
        io.write_series_csv(dataclasses.replace(series(), channel_names=names), path)
        replace_line(path, 4, cell)
        message = f"{path}: 1 malformed row(s): line 4: {fields} fields, the header 4"
        with pytest.raises(DataError, match=re.escape(message)):
            io.read_series_csv(path)

    @pytest.mark.parametrize("names", [("a", "b"), ("a,1", "b")], ids=["c-pass", "row-loop"])
    @pytest.mark.parametrize("blank", [",,,", ",,", ""])
    def test_series_row_of_blank_cells_is_skipped(self, tmp_path, names, blank):
        # As in the input: such a row holds no value, so the series read is
        # the one written.
        path = tmp_path / "s.csv"
        written = dataclasses.replace(series(), channel_names=names)
        io.write_series_csv(written, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines.insert(3, blank)
        path.write_text("\n".join(lines), encoding="utf-8")
        read = io.read_series_csv(path)
        for name in ("timestamps", "values", "labels"):
            assert getattr(read, name).tobytes() == getattr(written, name).tobytes()

    def test_empty_series_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: empty file")):
            io.read_series_csv(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "m.csv"
        io.write_distmat_csv(distmat(), path)
        path.write_bytes(path.read_bytes() + b"9,\xff,1.0,2.0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            io.read_distmat_csv(path)

    @pytest.mark.parametrize(
        "read",
        [
            io.read_series_csv,
            io.read_windows_csv,
            io.read_clouds_csv,
            lambda p: io.read_diagrams_csv(p, {}, 0),
            io.read_distmat_csv,
            io.read_diagram_points,
            io.read_json,
        ],
        ids=[
            "read_series_csv", "read_windows_csv", "read_clouds_csv", "read_diagrams_csv",
            "read_distmat_csv", "read_diagram_points", "read_json",
        ],
    )
    def test_empty_or_missing_file(self, tmp_path, read):
        (tmp_path / "empty").write_text("", encoding="utf-8")
        for as_path in (Path, str):
            with pytest.raises(DataError, match="no such file"):
                read(as_path(tmp_path / "missing"))
            with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'empty'}: ")):
                read(as_path(tmp_path / "empty"))


class TestWindowedRowOrder:
    """Windows and clouds rows must come as written: each window's rows
    together, points 0, 1, 2, ..."""

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda lines: lines.insert(1, lines.pop(2)), 2, "point 1 of split 'a' window 0 is out of order"),
            (lambda lines: lines.pop(2), 3, "point 2 of split 'a' window 0 is out of order"),
            (lambda lines: lines.insert(2, lines.pop(4)), 4, "point 1 of split 'a' window 0 is out of order"),
            (lambda lines: lines.insert(7, lines[1]), 8, "split 'a' window 0 where window 2 is due"),
            (lambda lines: lines.pop(1), 2, "point 1 of split 'a' window 0 is out of order"),
        ],
        ids=["points-swapped", "point-missing", "window-interleaved", "window-starts-again", "no-point-0"],
    )
    def test_windows_out_of_order(self, tmp_path, edit, line, message):
        path = tmp_path / "w.csv"
        io.write_windows_csv(simple_windows(), ("c0", "c1"), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        edit(lines)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {message}")):
            io.read_windows_csv(path)

    def test_clouds_out_of_order(self, tmp_path):
        path = tmp_path / "c.csv"
        io.write_clouds_csv({"a": clouds()["test"]}, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2], lines[3] = lines[3], lines[2]  # window 1's first row inside window 0
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 4: point 1 of split 'a' window 0 is out of order")):
            io.read_clouds_csv(path)

    # simple_windows(): window 0 on lines 2-4, window 1 on lines 5-7;
    # {"a": clouds()["test"]}: cloud 0 on lines 2-3, cloud 1 on lines 4-5.
    @pytest.mark.parametrize(
        "kind, edit, line, message",
        [
            ("windows", lambda lines: lines.pop(3), 6, "split 'a' window 1 has 3 points, not as many as window 0"),
            ("windows", lambda lines: lines.pop(6), 6, "split 'a' window 1 has 2 points, not as many as window 0"),
            ("clouds", lambda lines: lines.insert(5, "a,1,2,0.0,0.0,0.0"), 6, "split 'a' window 1 has 3 points, not as many as window 0"),
            ("clouds", lambda lines: lines.insert(5, "a,2,0,0.0,0.0,0.0"), 6, "split 'a' window 2 has 1 points, not as many as window 0"),
        ],
        ids=["windows-short-first", "windows-short-last", "clouds-long", "clouds-short-last"],
    )
    def test_ragged_point_counts_name_a_line(self, tmp_path, kind, edit, line, message):
        path = tmp_path / "artifact.csv"
        if kind == "windows":
            write, read = (lambda: io.write_windows_csv(simple_windows(), ("c0", "c1"), path)), io.read_windows_csv
        else:
            write, read = (lambda: io.write_clouds_csv({"a": clouds()["test"]}, path)), io.read_clouds_csv
        write()
        lines = path.read_text(encoding="utf-8").split("\n")
        edit(lines)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {message}")):
            read(path)

    def test_written_order_reads_back_past_blank_lines(self, tmp_path):
        path = tmp_path / "w.csv"
        io.write_windows_csv(simple_windows(), ("c0", "c1"), path)
        path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n"), encoding="utf-8")
        again = io.read_windows_csv(path)
        assert [w.points.tolist() for w in again["a"]] == [w.points.tolist() for w in simple_windows()["a"]]


def renumber(path, lines, number):
    """Write ``number`` into the window cell of the given 1-based ``lines``."""
    text = path.read_text(encoding="utf-8").split("\n")
    for line in lines:
        cells = text[line - 1].split(",")
        cells[1] = str(number)
        text[line - 1] = ",".join(cells)
    path.write_text("\n".join(text), encoding="utf-8")


class TestPositionsAreTheOnlyNumbers:
    """Each split's windows and clouds, and the matrix rows and columns, are
    numbered 0, 1, 2, ... by position; a reader rejects any other number,
    naming the file and the line."""

    # simple_windows(): window 0 on lines 2-4, window 1 on lines 5-7.
    @pytest.mark.parametrize(
        "lines, number, line, message",
        [
            ((5, 6, 7), 2, 5, "split 'a' window 2 where window 1 is due"),
            ((5, 6, 7), 0, 5, "split 'a' window 0 where window 1 is due"),
            ((2, 3, 4, 5, 6, 7), 1, 2, "split 'a' window 1 where window 0 is due"),
        ],
        ids=["gap", "repeated", "first-not-0"],
    )
    def test_windows(self, tmp_path, lines, number, line, message):
        path = tmp_path / "w.csv"
        io.write_windows_csv(simple_windows(), ("c0", "c1"), path)
        renumber(path, lines, number)
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {message}")):
            io.read_windows_csv(path)

    # {"a": clouds()["test"]}: cloud 0 on lines 2-3, cloud 1 on lines 4-5.
    @pytest.mark.parametrize(
        "lines, number, line, message",
        [
            ((4, 5), 2, 4, "split 'a' window 2 where window 1 is due"),
            ((4, 5), 0, 4, "split 'a' window 0 where window 1 is due"),
            ((2, 3), 1, 2, "split 'a' window 1 where window 0 is due"),
        ],
        ids=["gap", "repeated", "first-not-0"],
    )
    def test_clouds(self, tmp_path, lines, number, line, message):
        path = tmp_path / "c.csv"
        io.write_clouds_csv({"a": clouds()["test"]}, path)
        renumber(path, lines, number)
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {message}")):
            io.read_clouds_csv(path)

    def test_each_split_counts_from_0(self, tmp_path):
        path = tmp_path / "w.csv"
        wins = {"x": simple_windows()["a"], "y": simple_windows()["a"][:1]}
        io.write_windows_csv(wins, ("c0", "c1"), path)
        assert [row.split(",")[:2] for row in path.read_text(encoding="utf-8").splitlines()[1::3]] == [
            ["x", "0"], ["x", "1"], ["y", "0"]
        ]
        assert {split: len(ws) for split, ws in io.read_windows_csv(path).items()} == {"x": 2, "y": 1}

    # distmat(): header "window,0,1,2", then rows 0 and 1.
    @pytest.mark.parametrize(
        "line, text, message",
        [
            (1, "window,0,2,3", "column of train window 2 where window 1 is due"),
            (1, "window,0,0,1", "column of train window 0 where window 1 is due"),
            (1, "window,1,2,3", "column of train window 1 where window 0 is due"),
            (3, "2,1.0,2.0,3.0", "row of test window 2 where window 1 is due"),
            (3, "0,1.0,2.0,3.0", "row of test window 0 where window 1 is due"),
            (2, "1,1.0,2.0,3.0", "row of test window 1 where window 0 is due"),
        ],
        ids=["column-gap", "column-repeated", "column-first-not-0", "row-gap", "row-repeated", "row-first-not-0"],
    )
    def test_distmat(self, tmp_path, line, text, message):
        path = tmp_path / "m.csv"
        io.write_distmat_csv(distmat(), path)
        replace_line(path, line, text)
        with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {message}")):
            io.read_distmat_csv(path)


class TestMalformedJson:
    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{means: [1]}", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: Expecting property name enclosed in double quotes")):
            io.read_json(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"means": ["abc"]}, "could not convert string to float: 'abc'"),
            ({"means": None}, "means and standard deviations must be 1-D and the same length"),
            ({"mode": "sideways"}, "mode must be one of"),
            ({"standard_deviations": ["0.0"]}, "non-positive standard deviation for channel 0"),
        ],
        ids=["mean", "null-means", "mode", "zero-sd"],
    )
    def test_bad_params_name_the_file(self, tmp_path, change, message):
        path = tmp_path / "p.json"
        io.write_json(path, {"means": ["1.0"], "standard_deviations": ["2.0"], "mode": "fit_on_combined", **change})
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            io.read_params_json(path)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "r.json"
        io.write_json(path, {"classes": [0, 1]})
        with pytest.raises(DataError, match=re.escape(f"{path}: missing field 'confusion'")):
            io.read_report_json(path)

    def test_bad_confusion_names_the_file(self, tmp_path):
        path = tmp_path / "r.json"
        io.write_json(path, {"classes": [0, 1], "confusion": [[1, 0]]})
        with pytest.raises(DataError, match=re.escape(f"{path}: confusion matrix must be 2 x 2")):
            io.read_report_json(path)
