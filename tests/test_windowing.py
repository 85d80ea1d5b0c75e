import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import DataError, WindowConfig, make_windows, window_count, window_label
from conftest import make_series
from oracles import majority_by_counting, window_count_naive


class TestWindowConfig:
    def test_w_of_one_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            WindowConfig(w=1, s=1)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            WindowConfig(w=2, s=0)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError, match="label rule"):
            WindowConfig(w=2, s=1, label_rule="plurality")


class TestMakeWindows:
    def test_len25_w10_s10_two_windows_remainder_dropped(self):
        series = make_series(np.arange(25.0))
        wins = make_windows(series, WindowConfig(w=10, s=10))
        assert len(wins) == 2
        np.testing.assert_array_equal(wins[0].points[:, 0], np.arange(0.0, 10.0))
        np.testing.assert_array_equal(wins[1].points[:, 0], np.arange(10.0, 20.0))

    def test_len12_w10_s1_three_windows(self):
        series = make_series(np.arange(12.0))
        assert len(make_windows(series, WindowConfig(w=10, s=1))) == 3

    def test_nonoverlapping_w_equals_s(self):
        # w = s partitions the covered prefix: each covered row in exactly one window
        series = make_series(np.arange(40.0))
        for w in (5, 10):
            wins = make_windows(series, WindowConfig(w=w, s=w))
            seen = np.concatenate([win.points[:, 0] for win in wins])
            assert sorted(seen.tolist()) == list(range(len(wins) * w))
            assert len(set(seen.tolist())) == len(seen)

    @pytest.mark.parametrize("s", [13, 2**63, 10**30])
    def test_stride_past_the_end_gives_one_window(self, s):
        wins = make_windows(make_series(np.arange(12.0)), WindowConfig(w=10, s=s))
        np.testing.assert_array_equal(wins.points[:, :, 0], [np.arange(10.0)])

    def test_short_series_error(self):
        series = make_series(np.arange(5.0))
        with pytest.raises(DataError, match="shorter than window"):
            make_windows(series, WindowConfig(w=10, s=10))

    def test_window_metadata(self):
        series = make_series(np.arange(8.0), labels=[0, 0, 1, 0, 0, 0, 0, 0])
        wins = make_windows(series, WindowConfig(w=4, s=4, label_rule="any_positive"))
        assert len(wins) == 2
        assert wins[0].label == 1 and wins[1].label == 0
        assert wins[0].time_range == (0.0, 3.0)
        assert wins[1].time_range == (4.0, 7.0)

    def test_windows_have_no_instance_dict(self):
        # Slotted: a run builds one window per w rows of the series.
        wins = make_windows(make_series(np.arange(8.0)), WindowConfig(w=4, s=4))
        assert not any(hasattr(win, "__dict__") for win in wins)

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(min_value=2, max_value=80),
        w=st.integers(min_value=2, max_value=20),
        s=st.integers(min_value=1, max_value=20),
    )
    def test_count_formula_matches_enumeration(self, length, w, s):
        if length < w:
            return
        series = make_series(np.arange(float(length)))
        wins = make_windows(series, WindowConfig(w=w, s=s))
        assert len(wins) == window_count_naive(length, w, s)
        assert window_count(length, w, s) == len(wins)


    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=60),
        w=st.integers(min_value=2, max_value=12),
        s=st.integers(min_value=1, max_value=12),
        rule=st.sampled_from(["any_positive", "majority"]),
    )
    def test_gather_matches_slicing_each_window(self, labels, w, s, rule):
        n = len(labels)
        if n < w:
            return
        rng = np.random.default_rng(n * 1000 + w * 10 + s)
        series = make_series(rng.normal(size=(n, 3)), labels=labels)
        wins = make_windows(series, WindowConfig(w=w, s=s, label_rule=rule))
        for i, win in enumerate(wins):
            rows = slice(i * s, i * s + w)
            assert win.points.tolist() == series.values[rows].tolist()
            assert win.label == window_label(labels[rows], rule)
            assert type(win.label) is int
            assert win.time_range == (float(i * s), float(i * s + w - 1))


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), w=st.integers(2, 12), windows=st.integers(1, 6), overlap=st.booleans())
    def test_majority_matches_counting(self, data, w, windows, overlap):
        # s < w (overlapping windows) and s = w (a partition)
        s = data.draw(st.integers(1, w - 1)) if overlap else w
        classes = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=7, unique=True))
        n = (windows - 1) * s + w
        labels = data.draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
        series = make_series(np.zeros(n), labels=labels)
        wins = make_windows(series, WindowConfig(w=w, s=s, label_rule="majority"))
        assert [win.label for win in wins] == [
            majority_by_counting(labels[i * s : i * s + w]) for i in range(windows)
        ]


class TestWindowLabel:
    def test_any_positive_hits(self):
        assert window_label([0, 0, 1, 0, 0], "any_positive") == 1

    def test_any_positive_all_zero(self):
        assert window_label([0, 0, 0], "any_positive") == 0

    def test_majority_strict(self):
        assert window_label([1, 1, 0], "majority") == 1

    def test_majority_tie_earliest_occurrence_wins(self):
        assert window_label([0, 0, 1, 1], "majority") == 0
        assert window_label([1, 1, 0, 0], "majority") == 1
        # earliest occurrence among the tied labels, not the first row outright
        assert window_label([2, 0, 0, 1, 1], "majority") == 0

    @pytest.mark.parametrize("rule", ["any_positive", "majority"])
    def test_returns_python_int(self, rule):
        for labels in ([1, 1, 0], np.array([1, 1, 0]), np.array([0, 2, 2], dtype=np.int32)):
            assert type(window_label(labels, rule)) is int

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            window_label([], "majority")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30))
    def test_any_positive_is_max_on_binary(self, labels):
        assert window_label(labels, "any_positive") == max(labels)

    def test_deterministic(self):
        labels = [2, 2, 1, 1, 0]
        assert all(window_label(labels, "majority") == 2 for _ in range(5))
