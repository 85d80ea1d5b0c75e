import math
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topowin import (
    CsvSchema,
    DataError,
    NumericalError,
    SplitSpec,
    StandardizationParams,
    TimeSeries,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    split_series,
)
from topowin import ingest
from conftest import make_series

SCHEMA2 = CsvSchema(timestamp="t", features=("a", "b"), label="y")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_two_feature_csv(self, tmp_path):
        path = write(tmp_path, "t,a,b,y\n0,1.0,2.0,0\n1,3.0,4.0,1\n2,5.0,6.0,0\n")
        series = load_csv(path, SCHEMA2)
        assert series.length == 3
        assert series.dimension == 2
        assert series.channel_names == ("a", "b")
        assert series.labels.tolist() == [0, 1, 0]
        np.testing.assert_array_equal(series.values, [[1, 2], [3, 4], [5, 6]])

    def test_occupancy_shaped_csv_gives_five_channels(self, tmp_path):
        schema = CsvSchema(
            timestamp="date",
            features=("Temperature", "Humidity", "Light", "CO2", "HumidityRatio"),
            label="Occupancy",
        )
        text = (
            "date,Temperature,Humidity,Light,CO2,HumidityRatio,Occupancy\n"
            "2015-02-04 17:51:00,23.18,27.272,426.0,721.25,0.00479,1\n"
            "2015-02-04 17:52:00,23.15,27.2675,429.5,714.0,0.00478,1\n"
        )
        series = load_csv(write(tmp_path, text), schema)
        assert series.dimension == 5
        assert series.length == 2
        assert series.timestamps[1] > series.timestamps[0]

    def test_non_numeric_cell_names_the_row(self, tmp_path):
        path = write(tmp_path, "t,a,b,y\n0,1.0,2.0,0\n1,oops,4.0,1\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, SCHEMA2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", SCHEMA2)

    def test_missing_value_rejected(self, tmp_path):
        path = write(tmp_path, "t,a,b,y\n0,1.0,,0\n")
        with pytest.raises(DataError, match="malformed"):
            load_csv(path, SCHEMA2)

    def test_non_monotone_timestamps(self, tmp_path):
        path = write(tmp_path, "t,a,b,y\n0,1,2,0\n2,1,2,0\n1,1,2,0\n")
        with pytest.raises(DataError, match="strictly increasing"):
            load_csv(path, SCHEMA2)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""), SCHEMA2)

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "t,a,b,y\n"), SCHEMA2)

    def test_missing_column(self, tmp_path):
        with pytest.raises(DataError, match="missing column 'b'"):
            load_csv(write(tmp_path, "t,a,y\n0,1,0\n"), SCHEMA2)

    def test_zero_feature_schema_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            CsvSchema(timestamp="t", features=(), label="y")

    def test_custom_delimiter(self, tmp_path):
        schema = CsvSchema(timestamp="t", features=("a", "b"), label="y", delimiter=";")
        series = load_csv(write(tmp_path, "t;a;b;y\n0;1;2;0\n1;3;4;1\n"), schema)
        assert series.length == 2

    def test_non_finite_cells_listed_in_file_order(self, tmp_path):
        text = (
            "t,a,b,y\n"
            "0,1.0,2.0,0\n"
            "1,inf,2.0,0\n"
            "2,1.0,-inf,1\n"
            "3,nan,2.0,0\n"
            "nan,1.0,2.0,0\n"
            "5,abc,2.0,0\n"
            "6,1.0,2.0,1\n"
        )
        path = write(tmp_path, text)
        with pytest.raises(DataError) as info:
            load_csv(path, SCHEMA2)
        assert str(info.value) == (
            f"{path}: 5 malformed row(s): line 3: non-finite value; line 4: non-finite value; "
            "line 5: non-finite value; line 6: non-finite value; "
            "line 7: could not convert string to float: 'abc'"
        )

    def test_repeated_timestamp_after_blank_lines_names_its_line(self, tmp_path):
        path = write(tmp_path, "t,a,b,y\n0,1,2,0\n\n\n1,3,4,1\n1,5,6,0\n")
        with pytest.raises(DataError) as info:
            load_csv(path, SCHEMA2)
        assert str(info.value) == (
            f"{path}: 1 malformed row(s): line 6: timestamps not strictly increasing (1.0 after 1.0)"
        )

    @pytest.mark.parametrize(
        "row, fields",
        [("1,3,4,1,9", 5), ("1.0,2,5,3.0,1", 5), ("1,3,4,1,", 5), ("1,3,4", 3)],
        ids=["extra-cell", "shifted-cells", "trailing-delimiter", "short"],
    )
    def test_row_not_of_the_header_width_names_its_line(self, tmp_path, row, fields):
        # The C pass takes only the columns it needs, so it must hand such
        # a file to the row loop rather than read shifted cells.
        path = write(tmp_path, f"t,a,b,y\n0,1,2,0\n{row}\n2,5,6,0\n")
        message = f"{path}: 1 malformed row(s): line 3: {fields} fields, the header 4"
        assert load_both(path, SCHEMA2) == [message, message]

    @pytest.mark.parametrize("blank", [",,,", ",,", " , ,\t,"])
    def test_row_of_blank_cells_is_skipped(self, tmp_path, blank):
        path = write(tmp_path, f"t,a,b,y\n0,1,2,0\n{blank}\n1,3,4,1\n")
        for series in load_both(path, SCHEMA2):
            assert series.timestamps.tolist() == [0.0, 1.0]
            assert series.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_row_after_a_cell_spanning_lines_names_its_line(self, tmp_path):
        path = write(tmp_path, 't,a,b,y\n0,"1\n",2,0\n1,x,4,1\n')
        with pytest.raises(DataError) as info:
            load_csv(path, SCHEMA2)
        assert str(info.value) == f"{path}: 1 malformed row(s): line 4: could not convert string to float: 'x'"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OCC_SCHEMA = CsvSchema(
    timestamp="timestamp",
    features=("temperature", "humidity", "light", "co2", "humidity_ratio"),
    label="label",
)


def benchmark_series(tmp_path, iso=False):
    """The benchmark's seed-1 occupancy-shaped series; ``iso`` writes ISO dates."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    path = tmp_path / ("occ_iso.csv" if iso else "occ.csv")
    workloads.write_csv(path, 1, workloads.WORKLOADS["occ-cold"].rows)
    if iso:
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        dated = []
        for row in rows:
            seconds, rest = row.split(",", 1)
            minute = int(seconds) // 60
            dated.append(f"2015-02-{4 + minute // 1440:02d} {minute // 60 % 24:02d}:{minute % 60:02d}:00,{rest}")
        path.write_text("\n".join([header, *dated]) + "\n", encoding="utf-8")
    return path


def load_both(path, schema):
    """``load_csv`` on ``path`` as it is and with the C pass switched off.

    Each result is the series or the ``DataError`` message.
    """
    results = []
    for table in (ingest._load_table, lambda *args: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_load_table", table)
            try:
                results.append(load_csv(path, schema))
            except DataError as exc:
                results.append(str(exc))
    return results


def refuse_row_loop(*args):
    raise AssertionError("row loop called")


def assert_same_load(fast, rows):
    if isinstance(rows, str):
        assert fast == rows
        return
    assert isinstance(fast, TimeSeries), fast
    for name in ("timestamps", "values", "labels"):
        a, b = getattr(fast, name), getattr(rows, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes(), name


H = b"t,a,b,y\n"
ROWS = b"0,1.5,2,0\n1,3,4.25,1\n2,5,6,0\n"
CORPUS = {
    "plain": H + ROWS,
    "semicolon": (b"t;a;b;y\n0;1.5;2;0\n1;3;4.25;1\n", ";"),
    "tab": (b"t\ta\tb\ty\n0\t1.5\t2\t0\n1\t3\t4.25\t1\n", "\t"),
    "tab-leading": (b"t\ta\tb\ty\n\t0\t1.5\t2\t0\n", "\t"),
    "space": (b"t a b y\n0 1.5 2 0 \n1  3 4 1\n", " "),
    "space-leading": (b"t a b y\n 0 1.5 2 0\n", " "),
    "crlf": (H + ROWS).replace(b"\n", b"\r\n"),
    "lone-cr": (H + ROWS).replace(b"\n", b"\r"),
    "quoted-cells": H + b'0,"1.5",2,0\n"1",3,"4.25",1\n',
    "quoted-header": b'"t","a","b","y"\n' + ROWS,
    "quoted-delimiter": b't,a,b,y\n0,"1,5",2,0\n',
    "quoted-newline": H + b'0,1,2,0,"x\n1,3,4,1,"\n',
    "cr-in-header": b"t,a,b,y\r0,1,2,0\n1,3,4,1\n",
    "cr-in-row": H + b"0,1\r,2,0\n",
    "blank-line": H + b"0,1,2,0\n\n1,3,4,1\n",
    "whitespace-line": H + b"0,1,2,0\n  \t \n1,3,4,1\n",
    "commas-line": H + b"0,1,2,0\n,,,\n1,3,4,1\n",
    "only-blank-rows": H + b"\n \n,,,\n",
    "extra-columns": b"t,a,b,y,z\n0,1,2,0,9\n1,3,4,1,9,9\n",
    "unused-last-column": b"t,a,b,y,z\n0,1,2,0,9\n1,3,4,1,x\n",
    "unused-last-column-short-and-long": b"t,a,b,y,z\n0,1,2,0\n1,3,4,1,9,9\n",
    "long-row": H + b"0,1,2,0\n1,3,4,1,9\n",
    "trailing-delimiters": H + b"0,1,2,0,\n1,3,4,1,\n",
    "short-row": H + b"0,1,2,0\n1,3,4\n2,5,6,0\n",
    "hash-line": H + b"# comment\n0,1,2,0\n",
    "hash-cell": H + b"0,1,2,0 # note\n",
    "header-only": H,
    "header-without-newline": b"t,a,b,y",
    "empty": b"",
    "blank-header": b"\n" + ROWS,
    "missing-column": b"t,a,y\n0,1,0\n",
    "reordered-columns": b"y,b,x,a,t\n0,2,9,1.5,0\n1,4,9,3,1\n",
    "padded-header": b" t , a ,b,y \n" + ROWS,
    "bom": b"\xef\xbb\xbf" + H + ROWS,
    "bom-quoted-header": b'\xef\xbb\xbf"t","a","b","y"\n' + ROWS,
    "utf8-cells": "t,a,b,y\n0,1,2,0\n1,3é,4,1\n".encode(),
    "nan": H + b"0,nan,2,0\n",
    "inf": H + b"0,1,inf,0\n",
    "minus-infinity": H + b"0,-Infinity,2,0\n",
    "nan-timestamp": H + b"nan,1,2,0\n",
    "overflow": H + b"0,1e400,2,0\n",
    "underscore": H + b"0,1_000,2,0\n1,3,4,1\n",
    "non-ascii-digits": "t,a,b,y\n0,١٢,2,0\n١,3,4,1\n".encode(),
    "non-ascii-digit-timestamps": "t,a,b,y\n٠,1,2,0\n١,3,4,1\n".encode(),
    "underscore-timestamps": H + b"1_000,1,2,0\n2_000,3,4,1\n",
    "label-1.0": H + b"0,1,2,1.0\n",
    "label-1.5": H + b"0,1,2,1.5\n",
    "label-1e20": H + b"0,1,2,1e20\n",
    "label-minus-1e20": H + b"0,1,2,-1e20\n",
    "label-minus-zero": H + b"0,1,2,-0.0\n",
    "label-int64-min": H + b"0,1,2,-9223372036854775808\n",
    "label-2**63": H + b"0,1,2,9223372036854775808\n",
    "label-nan": H + b"0,1,2,nan\n",
    "label-2**53+1": H + b"0,1,2,9007199254740993\n",
    "label-minus-2**53-1": H + b"0,1,2,-9007199254740993\n",
    "17-digits": H + b"0.10000000000000001,0.30000000000000004,1.7976931348623157e308,0\n"
    b"1,2.2250738585072014e-308,4.9406564584124654e-324,1\n",
    "exponents": H + b"1e-3,1E+3,-2.5e-7,0\n2E0,.5e1,5.,1\n",
    "padded-cells": H + b" 0 , 1.5 ,\t2\t, 0 \n1,3 ,4,1\n",
    "nbsp-cell": "t,a,b,y\n0,1.5\u00a0,2,0\n".encode(),
    "hex": H + b"0,0x10,2,0\n",
    "empty-cell": H + b"0,,2,0\n",
    "text-cell": H + b"0,1,2,0\n1,oops,4,1\n",
    "no-trailing-newline": H + b"0,1,2,0\n1,3,4,1",
    "not-increasing": H + b"0,1,2,0\n2,1,2,0\n1,1,2,0\n",
    "not-increasing-after-blank-lines": H + b"0,1,2,0\n\n\n1,3,4,1\n1,5,6,0\n",
    "not-increasing-after-multiline-cell": H + b'0,"1\n",2,0\n1,3,4,1\n1,5,6,0\n',
    "iso-dates": H + b"2015-02-04 17:51:00,1,2,0\n2015-02-04T17:52:00+01:00,3,4,1\n2015-02-04 17:53:00,5,6,0\n",
    "iso-and-numbers": H + b"1423072260,1,2,0\n2015-02-04 17:52:00,3,4,1\n",
    "iso-padded": H + b" 2015-02-04 17:51:00 ,1,2,0\n",
    "iso-date-only": H + b"2015-02-04,1,2,0\n2015-02-05,3,4,1\n",
    "iso-bad-date": H + b"2015-02-04 17:51:00,1,2,0\n2015-02-30 17:52:00,3,4,1\n",
    "iso-bad-feature": H + b"2015-02-04 17:51:00,1,x,0\n",
    "iso-not-increasing": H + b"2015-02-04 17:52:00,1,2,0\n2015-02-04 17:51:00,3,4,1\n",
    "iso-not-increasing-after-blank-lines": H
    + b"2015-02-04 17:51:00,1,2,0\n\n\n2015-02-04 17:52:00,3,4,1\n2015-02-04 17:52:00,5,6,0\n",
    "iso-not-increasing-after-multiline-cell": H
    + b'2015-02-04 17:51:00,"1\n",2,0\n2015-02-04 17:52:00,3,4,1\n2015-02-04 17:52:00,5,6,0\n',
    "nul": H + b"0,1,2,0\n1,3\x00,4,1\n",
    "nul-in-label": H + b"0,1,2,0\x00\n",
    "many-bad-rows": H + b"".join(b"%d,x,2,0\n" % i for i in range(12)),
}


class TestLoadCsvFastPath:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_matches_row_loop(self, name, tmp_path):
        content, delimiter = CORPUS[name] if isinstance(CORPUS[name], tuple) else (CORPUS[name], ",")
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        schema = CsvSchema(timestamp="t", features=("a", "b"), label="y", delimiter=delimiter)
        assert_same_load(*load_both(path, schema))

    @pytest.mark.parametrize("iso", [False, True], ids=["numeric", "iso"])
    def test_benchmark_series_matches_row_loop(self, iso, tmp_path):
        fast, rows = load_both(benchmark_series(tmp_path, iso), OCC_SCHEMA)
        assert_same_load(fast, rows)
        assert fast.length == 8030

    @pytest.mark.parametrize("iso", [False, True], ids=["numeric", "iso"])
    def test_row_loop_not_called(self, iso, tmp_path, monkeypatch):
        path = benchmark_series(tmp_path, iso)
        monkeypatch.setattr(ingest, "_load_rows", refuse_row_loop)
        assert load_csv(path, OCC_SCHEMA).length == 8030
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_csv(path, OCC_SCHEMA).length == 8030

    @pytest.mark.parametrize("iso", [False, True], ids=["numeric", "iso"])
    def test_loadtxt_passes(self, iso, tmp_path, monkeypatch):
        """A numeric file is read in one pass; an ISO one in a float pass that
        raises at the first date, then one pass that converts the dates."""
        loadtxt, outcomes = np.loadtxt, []

        def counted(*args, **kwargs):
            outcomes.append("raised")
            table = loadtxt(*args, **kwargs)
            outcomes[-1] = "returned"
            return table

        path = benchmark_series(tmp_path, iso)
        monkeypatch.setattr(np, "loadtxt", counted)
        assert load_csv(path, OCC_SCHEMA).length == 8030
        assert outcomes == (["raised", "returned"] if iso else ["returned"])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from([repr, "%.7g".__mod__, "%.17g".__mod__]),
        st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=2, max_size=2),
        st.randoms(use_true_random=False),
    )
    def test_random_tables_match_row_loop(self, tmp_path_factory, table, fmt, pads, rnd):
        lines = ["t,a,b,y"]
        for i, (ts, a, b) in enumerate(table):
            cells = [repr(i * 1e6 + ts % 1e5), fmt(a), fmt(b), str(rnd.randint(-3, 3))]
            lines.append(",".join(rnd.choice(pads) + c + rnd.choice(pads) for c in cells))
        path = tmp_path_factory.mktemp("table") / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_load_rows", refuse_row_loop)  # the C pass takes every such table
            fast = load_csv(path, SCHEMA2)
        assert_same_load(fast, load_both(path, SCHEMA2)[1])


class TestLoadCsvEncodingAndLabels:
    def test_non_utf8_file_names_file_and_offset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,a,b,y\n0,1,2,0\n1,3\xe9,4,1\n")
        with pytest.raises(DataError) as info:
            load_csv(path, SCHEMA2)
        assert str(info.value) == f"{path}: not UTF-8 text at byte 19 (invalid continuation byte)"

    def test_bom_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft,a,b,y\n0,1,2,0\n")
        assert load_csv(path, SCHEMA2).values.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize(
        "text", ["9007199254740993", "-9007199254740993", "9223372036854775807", "-9223372036854775808"]
    )
    def test_large_integer_labels_are_exact(self, text, tmp_path):
        path = write(tmp_path, f"t,a,b,y\n0,1,2,{text}\n")
        assert load_csv(path, SCHEMA2).labels.tolist() == [int(text)]

    def test_label_outside_int64_is_a_malformed_row(self, tmp_path):
        path = write(tmp_path, "t,a,b,y\n0,1,2,0\n1,1,2,1e20\n")
        with pytest.raises(DataError) as info:
            load_csv(path, SCHEMA2)
        assert str(info.value) == (
            f"{path}: 1 malformed row(s): line 3: label '1e20' is outside the int64 range"
        )


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitSpec((("a", 0, 5), ("b", 4, 8)))

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec((("a", 5, 8), ("b", 0, 5)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SplitSpec((("a", 0, 2), ("a", 2, 4)))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec((("a", 3, 3),))

    def test_validate_against_short_series(self):
        series = make_series(np.arange(6.0))
        with pytest.raises(DataError, match="ends at 8"):
            SplitSpec((("train", 0, 8),)).validate_against(series)

    def test_split_series_slices(self):
        series = make_series(np.arange(10.0), labels=[0] * 5 + [1] * 5)
        parts = split_series(series, SplitSpec((("train", 0, 5), ("test", 5, 10))))
        assert parts["train"].length == 5
        assert parts["test"].labels.tolist() == [1] * 5
        # Views of the series' arrays, not copies.
        for part in parts.values():
            for name in ("timestamps", "values", "labels"):
                assert np.shares_memory(getattr(part, name), getattr(series, name))


@st.composite
def fit_cases(draw):
    """A series of 1-6 channels at a scale from 1e-3 to 1e9, in C or Fortran
    order, and a split spec of 1-4 ranges of at least 2 rows, with gaps
    before, between and after them; one range is named train."""
    spec, at = [], draw(st.integers(0, 5))
    count = draw(st.integers(1, 4))
    train = draw(st.integers(0, count - 1))
    for i in range(count):
        stop = at + draw(st.integers(2, 40))
        spec.append(("train" if i == train else f"s{i}", at, stop))
        at = stop + draw(st.integers(0, 5))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 10.0 ** draw(st.floats(-3, 9)) * (rng.normal(size=(at, d)) + rng.uniform(-5, 5, size=d))
    return np.asfortranarray(values) if draw(st.booleans()) else values, spec


def spec_case(*spec):
    """A fit case over the given split spec, of random rows in three channels."""
    return np.random.default_rng(len(spec)).normal(size=(spec[-1][2] + 2, 3)), list(spec)


class TestStandardizerParity:
    """The fit over the slices of the split ranges equals, bit for bit, the
    fit over the rows an index array selects: the formula it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    @example(spec_case(("test2", 0, 4), ("train", 4, 10), ("test1", 10, 12)))
    @example(spec_case(("train", 0, 8), ("test", 10, 14)))
    @example(spec_case(("a", 2, 5), ("train", 5, 9), ("c", 9, 11)))
    def test_matches_the_index_array_fit(self, case):
        values, spec = case
        series = make_series(values)
        for mode in ("fit_on_combined", "fit_on_train"):
            fitted = [r for r in spec if mode == "fit_on_combined" or r[0] == "train"]
            idx = np.concatenate([np.arange(start, stop) for _, start, stop in fitted])
            params = fit_standardizer(series, SplitSpec(tuple(spec)), mode=mode)
            assert params.means.tobytes() == values[idx].mean(axis=0).tobytes()
            assert params.standard_deviations.tobytes() == values[idx].std(axis=0).tobytes()

    def test_unknown_train_split(self):
        series = make_series(np.arange(6.0))
        spec = SplitSpec((("train", 0, 3), ("test", 3, 6)))
        with pytest.raises(ValueError) as info:
            fit_standardizer(series, spec, mode="fit_on_train", train_name="nope")
        assert str(info.value) == "no split named 'nope' (have ['train', 'test'])"


class TestStandardizer:
    def test_fit_1_2_3(self):
        series = make_series([1.0, 2.0, 3.0])
        params = fit_standardizer(series, SplitSpec((("train", 0, 3),)))
        assert params.means[0] == pytest.approx(2.0, abs=1e-12)
        assert params.standard_deviations[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_apply_1_2_3_to_four_decimals(self):
        series = make_series([1.0, 2.0, 3.0])
        params = fit_standardizer(series, SplitSpec((("train", 0, 3),)))
        out = apply_standardizer(series, params)
        np.testing.assert_allclose(out.values[:, 0], [-1.2247, 0.0, 1.2247], atol=5e-5)

    def test_already_standardized_is_fixed_point(self):
        rng = np.random.default_rng(7)
        series = make_series(rng.normal(size=(50, 3)))
        params = fit_standardizer(series, SplitSpec((("train", 0, 50),)))
        once = apply_standardizer(series, params)
        params2 = fit_standardizer(once, SplitSpec((("train", 0, 50),)))
        np.testing.assert_allclose(params2.means, 0.0, atol=1e-9)
        np.testing.assert_allclose(params2.standard_deviations, 1.0, atol=1e-9)

    def test_constant_channel_zero_variance_error(self):
        series = make_series([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.raises(NumericalError, match="zero-variance.*c0"):
            fit_standardizer(series, SplitSpec((("train", 0, 3),)))

    def test_series_equal_to_mean_gives_zeros(self):
        series = make_series([[2.0], [2.0], [2.0]])
        params = StandardizationParams(means=np.array([2.0]), standard_deviations=np.array([1.0]))
        out = apply_standardizer(series, params)
        assert np.all(out.values == 0.0)

    def test_fit_on_train_only_uses_train_rows(self):
        series = make_series([0.0, 1.0, 2.0, 100.0, 200.0, 300.0])
        spec = SplitSpec((("train", 0, 3), ("test", 3, 6)))
        params = fit_standardizer(series, spec, mode="fit_on_train")
        assert params.means[0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        series = make_series(np.arange(6.0).reshape(3, 2))
        params = StandardizationParams(means=np.zeros(3), standard_deviations=np.ones(3))
        with pytest.raises(DataError, match="channels"):
            apply_standardizer(series, params)

    def test_bad_mode_rejected(self):
        series = make_series([1.0, 2.0])
        with pytest.raises(ValueError, match="mode"):
            fit_standardizer(series, SplitSpec((("train", 0, 2),)), mode="bogus")

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=3,
            max_size=40,
        )
    )
    def test_fit_apply_property(self, column):
        values = np.asarray(column)
        if values.std() <= 1e-9:
            return
        series = make_series(values)
        spec = SplitSpec((("train", 0, len(column)),))
        out = apply_standardizer(series, fit_standardizer(series, spec))
        assert abs(out.values[:, 0].mean()) <= 1e-9
        assert abs(out.values[:, 0].std() - 1.0) <= 1e-9
        # affine per channel: ordering preserved (ties may appear via rounding)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(out.values[order, 0]) >= 0)


class TestTimeSeriesInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            TimeSeries(
                timestamps=np.arange(3.0),
                values=np.zeros((2, 1)),
                labels=np.zeros(2, dtype=np.int64),
                channel_names=("a",),
            )

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            make_series([1.0, float("nan"), 2.0])

    def test_timestamps_of_any_finite_span(self, tmp_path):
        # Their difference overflows; the order check must not subtract them.
        big = 1.7976931348623157e308

        def series(timestamps):
            n = len(timestamps)
            return TimeSeries(np.array(timestamps), np.zeros((n, 1)), np.zeros(n, dtype=np.int64), ("a",))

        assert series([-big, big]).length == 2
        with pytest.raises(DataError, match="not strictly increasing at row 2"):
            series([-big, big, big])
        path = write(tmp_path, f"t,a,b,y\n{-big!r},1,2,0\n{big!r},3,4,1\n")
        assert load_csv(path, SCHEMA2).timestamps.tolist() == [-big, big]

    def test_slice_bounds(self):
        series = make_series(np.arange(4.0))
        with pytest.raises(DataError):
            series.slice(2, 9)


def parse_timestamp_by_float_first(text):
    """``parse_timestamp`` as it was: ``float`` first, then the ISO parser."""
    try:
        return float(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text.strip())
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)).total_seconds()


def outcome(parse, text):
    """The value's exact bits, or the exception's type and message."""
    try:
        return parse(text).hex()
    except Exception as exc:
        return type(exc), str(exc)


NUMERIC_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:e}".format),
    st.floats(allow_nan=False).map("{:E}".format),
    st.integers(-(10**12), 10**12).map(str),
)
ISO_TEXT = st.one_of(
    st.builds(
        datetime.isoformat,
        st.datetimes(
            timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-5, minutes=-30))])
        ),
        st.sampled_from(["T", " "]),
    ),
    st.dates().map(lambda d: d.isoformat()),
)
MIXED_TEXT = st.text(alphabet="0123456789-+:.eETZ_ naif\u0661", max_size=24)
PADDING = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003", "\x1c"])


class TestParseTimestamp:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(NUMERIC_TEXT, ISO_TEXT, MIXED_TEXT), PADDING, PADDING)
    def test_same_result_as_float_first(self, text, lead, trail):
        text = lead + text + trail
        assert outcome(ingest.parse_timestamp, text) == outcome(parse_timestamp_by_float_first, text)

    @pytest.mark.parametrize(
        "text",
        ["2015-02-04", "2015-02-04 17:51:00", " 2015-02-04T17:51:00-05:00 ", "1e-5", "2E-3", " -1.5", "-inf", "1-2", "x"],
    )
    def test_examples_match_float_first(self, text):
        assert outcome(ingest.parse_timestamp, text) == outcome(parse_timestamp_by_float_first, text)

    def test_iso_text_skips_float(self, monkeypatch):
        def no_float(text):
            raise AssertionError(f"float({text!r}) called")

        monkeypatch.setattr(ingest, "float", no_float, raising=False)
        assert ingest.parse_timestamp("1970-01-02") == 86400.0
        assert ingest.parse_timestamp("1970-01-01 00:01:00+00:00") == 60.0
