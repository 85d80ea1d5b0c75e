from fractions import Fraction

import numpy as np
import pytest

from topowin import (
    DataError,
    DistanceMatrix,
    EvaluationReport,
    KnnConfig,
    evaluate,
    knn_predict,
    round_half_up,
    sweep_k,
)
from topowin.classify import UndefinedMetricWarning, render_report_table, render_sweep_table


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
        with pytest.raises(DataError):
            sweep_k(small_matrix(), [0, 1], [0, 1], ks=[1])


class TestRenderReport:
    def test_table_contains_all_columns(self):
        report = evaluate([0, 1, 1, 0], [0, 1, 0, 1])
        text = render_report_table(report)
        for token in ("Accuracy", "Sensitivity", "Specificity", "Precision(0)", "F1(1)"):
            assert token in text
        assert len(text.splitlines()) == 2
