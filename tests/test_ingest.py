import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import (
    CsvSchema,
    DataError,
    NumericalError,
    SplitRange,
    SplitSpec,
    StandardizationParams,
    TimeSeries,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    split_series,
)
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


class TestSplitSpec:
    def test_named_lookup_and_partition(self):
        spec = SplitSpec((("test2", 0, 4), ("train", 4, 10), ("test1", 10, 12)))
        assert spec.range_named("train") == SplitRange("train", 4, 10)
        used = spec.used_indices()
        assert used.tolist() == list(range(12))

    def test_gap_between_ranges_allowed(self):
        spec = SplitSpec((("train", 0, 8), ("test", 10, 14)))
        assert set(spec.used_indices().tolist()) == set(range(8)) | set(range(10, 14))

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

    def test_partition_property(self):
        spec = SplitSpec((("a", 2, 5), ("b", 5, 9), ("c", 9, 11)))
        counts = {}
        for idx in spec.used_indices().tolist():
            counts[idx] = counts.get(idx, 0) + 1
        assert all(v == 1 for v in counts.values())
        assert sorted(counts) == list(range(2, 11))

    def test_validate_against_short_series(self):
        series = make_series(np.arange(6.0))
        with pytest.raises(DataError, match="ends at 8"):
            SplitSpec((("train", 0, 8),)).validate_against(series)

    def test_split_series_slices(self):
        series = make_series(np.arange(10.0), labels=[0] * 5 + [1] * 5)
        parts = split_series(series, SplitSpec((("train", 0, 5), ("test", 5, 10))))
        assert parts["train"].length == 5
        assert parts["test"].labels.tolist() == [1] * 5


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

    def test_slice_bounds(self):
        series = make_series(np.arange(4.0))
        with pytest.raises(DataError):
            series.slice(2, 9)
