from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import (
    DataError,
    DistanceMatrix,
    EvaluationReport,
    KnnConfig,
    evaluate,
    knn_predict,
    predict_all,
    round_half_up,
    sweep_k,
)
from topowin.classify import (
    TIE_BREAKS,
    KSweepEntry,
    UndefinedMetricWarning,
    plurality,
    render_report_table,
    render_sweep_table,
)
from oracles import knn_vote_by_counting


class TestKnnPredict:
    def test_identical_diagram_k1(self):
        row = [0.4, 0.0, 0.9]
        assert knn_predict(row, [0, 1, 0], KnnConfig(k=1)) == 1

    def test_hand_vote_count(self):
        # distances 0.1 -> A(0), 0.2 -> A(0), 0.3 -> B(1)
        assert knn_predict([0.1, 0.2, 0.3], [0, 0, 1], KnnConfig(k=3)) == 0

    def test_vote_tie_goes_to_nearest(self):
        assert knn_predict([0.1, 0.2], [0, 1], KnnConfig(k=2)) == 0
        assert knn_predict([0.2, 0.1], [0, 1], KnnConfig(k=2)) == 1

    def test_vote_tie_lowest_class_id(self):
        cfg = KnnConfig(k=2, tie_break="lowest_class_id")
        assert knn_predict([0.2, 0.1], [0, 1], cfg) == 0

    def test_tie_among_modal_classes_ignores_nonmodal_nearest(self):
        # nearest neighbor has a non-modal label; the tie is between 1 and 2
        row = [0.1, 0.2, 0.3, 0.4, 0.5]
        labels = [9, 1, 1, 2, 2]
        assert knn_predict(row, labels, KnnConfig(k=5)) == 1

    def test_distance_ties_broken_by_lower_index(self):
        assert knn_predict([0.5, 0.5], [1, 0], KnnConfig(k=1)) == 1

    def test_k_exceeds_training_size(self):
        with pytest.raises(DataError, match="exceeds training size"):
            knn_predict([0.1], [0], KnnConfig(k=2))

    def test_k_equals_training_size_returns_global_mode(self):
        rng = np.random.default_rng(0)
        labels = [0] * 7 + [1] * 3
        for _ in range(10):
            row = rng.uniform(0, 1, size=10)
            assert knn_predict(row, labels, KnnConfig(k=10)) == 0

    def test_deterministic(self):
        row = [0.3, 0.1, 0.2, 0.4]
        labels = [1, 0, 1, 0]
        results = {knn_predict(row, labels, KnnConfig(k=3)) for _ in range(10)}
        assert len(results) == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)


@st.composite
def voters(draw, rows, width):
    """(rows, width) labels over 2 to 7 arbitrary int64 classes."""
    classes = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=7, unique=True))
    picks = draw(st.lists(st.integers(0, len(classes) - 1), min_size=rows * width, max_size=rows * width))
    return np.array([classes[i] for i in picks], dtype=np.int64).reshape(rows, width)


class TestPlurality:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), width=st.integers(1, 12), tie_break=st.sampled_from(TIE_BREAKS))
    def test_every_prefix_matches_counting(self, data, rows, width, tie_break):
        labels = data.draw(voters(rows, width))
        lengths = list(range(1, width + 1))
        got = plurality(labels, lengths, tie_break)
        # Distances 0, 1, 2, ... keep each row in its given vote order.
        expected = [
            [knn_vote_by_counting(range(width), row, n, tie_break) for row in labels.tolist()]
            for n in lengths
        ]
        assert got == expected
        assert all(type(v) is int for winners in got for v in winners)

    def test_lengths_in_any_order(self):
        labels = np.array([[3, -1, -1, 3, 3]])
        assert plurality(labels, [5, 1, 3], "nearest_neighbor_label") == [[3], [3], [-1]]
        assert plurality(labels, [4], "lowest_class_id") == [[-1]]
        assert plurality(labels, [4], "nearest_neighbor_label") == [[3]]

    def test_no_rows(self):
        assert plurality(np.empty((0, 3), dtype=np.int64), [1, 3], "lowest_class_id") == [[], []]

    def test_blocks_of_rows_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=(9, 20))
        whole = plurality(labels, [1, 7, 20], "nearest_neighbor_label")
        monkeypatch.setattr("topowin.classify._CHUNK_CELLS", 1)
        assert plurality(labels, [1, 7, 20], "nearest_neighbor_label") == whole


class TestKnnAgainstCounting:
    """Integer-valued distances make distance ties and vote ties common."""

    @pytest.mark.filterwarnings("ignore::topowin.classify.UndefinedMetricWarning")
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        test=st.integers(1, 4),
        train=st.integers(1, 10),
        tie_break=st.sampled_from(TIE_BREAKS),
    )
    def test_every_k(self, data, test, train, tie_break):
        train_labels = data.draw(voters(1, train))[0].tolist()
        test_labels = data.draw(st.lists(st.sampled_from(train_labels), min_size=test, max_size=test))
        values = data.draw(st.lists(st.integers(0, 3), min_size=test * train, max_size=test * train))
        matrix = DistanceMatrix(np.array(values, dtype=float).reshape(test, train))
        ks = list(range(1, train + 1))
        expected = {
            k: [knn_vote_by_counting(row, train_labels, k, tie_break) for row in matrix.values]
            for k in ks
        }
        for k in ks:
            cfg = KnnConfig(k=k, tie_break=tie_break)
            got = predict_all(matrix, np.array(train_labels), cfg)
            assert got == expected[k] and all(type(p) is int for p in got)
            assert [knn_predict(row, train_labels, cfg) for row in matrix.values] == expected[k]
        reports = {k: evaluate(expected[k], test_labels) for k in ks}
        assert sweep_k(matrix, train_labels, test_labels, ks, tie_break) == [
            KSweepEntry(k, r.accuracy, r.sensitivity, r.specificity) for k, r in reports.items()
        ]


class TestEvaluate:
    def test_reference_binary_matrix(self):
        report = EvaluationReport.from_confusion([0, 1], [[109, 5], [14, 72]])
        assert report.accuracy == Fraction(181, 200)
        assert round_half_up(report.accuracy, 2) == 0.91
        assert report.precision[1] == Fraction(72, 77)
        assert round_half_up(report.precision[1], 2) == 0.94
        assert report.sensitivity == Fraction(72, 86)
        assert report.specificity == Fraction(109, 114)

    def test_second_reference_matrix(self):
        report = EvaluationReport.from_confusion([0, 1], [[266, 1], [0, 309]])
        assert report.accuracy == Fraction(575, 576)
        assert round_half_up(report.accuracy, 4) == 0.9983
        assert report.specificity == Fraction(266, 267)
        assert round_half_up(report.specificity, 4) == 0.9963

    def test_all_correct(self):
        report = evaluate([0, 1, 0, 1], [0, 1, 0, 1])
        assert report.accuracy == 1
        assert all(f == 1 for f in report.f1.values())
        assert report.confusion == ((2, 0), (0, 2))

    def test_counts_sum_to_total(self):
        preds = [0, 1, 1, 0, 1]
        truths = [0, 0, 1, 1, 1]
        report = evaluate(preds, truths)
        assert report.total == 5
        assert report.accuracy * report.total == sum(
            report.confusion[i][i] for i in range(len(report.classes))
        )

    def test_f1_identity(self):
        report = evaluate([0, 1, 1, 0, 1, 0], [0, 0, 1, 1, 1, 0])
        for c in report.classes:
            p, r = report.precision[c], report.recall[c]
            expected = Fraction(0) if p + r == 0 else 2 * p * r / (p + r)
            assert report.f1[c] == expected

    def test_zero_denominator_warns_and_defines_zero(self):
        with pytest.warns(UndefinedMetricWarning):
            report = evaluate([0, 0, 0], [0, 0, 1])
        assert report.precision[1] == 0
        assert report.f1[1] == 0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="predictions"):
            evaluate([0], [0, 1])

    def test_empty(self):
        with pytest.raises(DataError, match="empty"):
            evaluate([], [])

    def test_multiclass_has_no_binary_metrics(self):
        report = evaluate([0, 1, 2], [0, 1, 2])
        assert report.sensitivity is None
        assert report.specificity is None
        assert report.accuracy == 1

    def test_metrics_recomputable_from_confusion(self):
        report = evaluate([0, 1, 1, 0], [0, 1, 0, 1])
        again = EvaluationReport.from_confusion(report.classes, report.confusion)
        assert again == report


class TestRounding:
    def test_half_up_not_bankers(self):
        assert round_half_up(Fraction(181, 200), 2) == 0.91
        assert round_half_up(Fraction(1, 8), 2) == 0.13
        assert round_half_up(0.5, 0) == 1.0

    def test_plain_cases(self):
        assert round_half_up(Fraction(72, 77), 2) == 0.94
        assert round_half_up(Fraction(266, 267), 4) == 0.9963


def small_matrix():
    values = np.array(
        [
            [0.1, 0.9, 0.8, 0.7],
            [0.9, 0.1, 0.8, 0.7],
        ]
    )
    return DistanceMatrix(values)


class TestSweepK:
    def test_single_identical_pair(self):
        matrix = DistanceMatrix(np.zeros((1, 1)))
        entries = sweep_k(matrix, [1], [1], ks=[1])
        assert entries[0].accuracy == 1

    def test_duplicate_ks_identical_rows(self):
        entries = sweep_k(small_matrix(), [0, 1, 0, 1], [0, 1], ks=[3, 3])
        assert entries[0] == entries[1]

    def test_table_shape(self):
        entries = sweep_k(small_matrix(), [0, 1, 0, 1], [0, 1], ks=[1, 2, 3, 4])
        assert [e.k for e in entries] == [1, 2, 3, 4]
        text = render_sweep_table(entries)
        assert text.splitlines()[0].split()[0] == "k"
        assert len(text.splitlines()) == 4

    def test_invalid_k_rejected_before_compute(self):
        with pytest.raises(DataError, match="exceeds training size"):
            sweep_k(small_matrix(), [0, 1, 0, 1], [0, 1], ks=[1, 99])

    def test_label_count_mismatch(self):
        with pytest.raises(DataError, match="2 train labels for 4 matrix columns"):
            sweep_k(small_matrix(), [0, 1], [0, 1], ks=[1])

    def test_invalid_k_and_tie_break_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            sweep_k(small_matrix(), [0, 1, 0, 1], [0, 1], ks=[1, 0])
        with pytest.raises(ValueError, match="tie break"):
            sweep_k(small_matrix(), [0, 1, 0, 1], [0, 1], ks=[1], tie_break="random")


class TestRenderReport:
    def test_table_contains_all_columns(self):
        report = evaluate([0, 1, 1, 0], [0, 1, 0, 1])
        text = render_report_table(report)
        for token in ("Accuracy", "Sensitivity", "Specificity", "Precision(0)", "F1(1)"):
            assert token in text
        assert len(text.splitlines()) == 2
