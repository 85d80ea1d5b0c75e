import math

import numpy as np
import pytest

from topowin import (
    AugmentConfig,
    DataError,
    LabeledWindow,
    SplitSpec,
    StandardizationParams,
    WindowConfig,
    apply_standardizer,
    augment,
    augment_batch,
    default_offset,
    fit_standardizer,
    make_windows,
    resolve_anchors,
    resolve_offset,
)
from conftest import make_series


def window_from(points):
    return LabeledWindow(points=np.asarray(points, dtype=float), label=0, time_range=(0.0, 1.0))


CFG5 = AugmentConfig(offset=np.array([0.0, 1.0, 2.0, 3.0, 4.0]), anchors=np.zeros((1, 5)))


class TestDefaultOffset:
    def test_d5(self):
        np.testing.assert_array_equal(default_offset(5), [0, 1, 2, 3, 4])

    def test_d6(self):
        np.testing.assert_array_equal(default_offset(6), [0, 1, 2, 3, 4, 5])

    def test_d1(self):
        np.testing.assert_array_equal(default_offset(1), [0])

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            default_offset(0)


class TestAugment:
    def test_first_reference_cloud(self):
        win = window_from([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
        cloud = augment(win, CFG5)
        expected = {(0, 1, 2, 3, 4), (1, 1, 2, 3, 4), (0, 0, 0, 0, 0)}
        assert {tuple(p) for p in cloud} == expected
        assert cloud.shape == (3, 5)

    def test_second_reference_cloud(self):
        win = window_from([[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        cloud = augment(win, CFG5)
        expected = {(0, 1, 2, 3, 4), (0, 2, 2, 3, 4), (0, 0, 0, 0, 0)}
        assert {tuple(p) for p in cloud} == expected

    def test_anchor_distances_sqrt31_sqrt33(self):
        c1 = augment(window_from([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]), CFG5)
        c2 = augment(window_from([[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]), CFG5)
        d1 = np.linalg.norm(np.array([1, 1, 2, 3, 4], dtype=float))
        d2 = np.linalg.norm(np.array([0, 2, 2, 3, 4], dtype=float))
        assert abs(d1 - math.sqrt(31)) < 1e-12
        assert abs(d2 - math.sqrt(33)) < 1e-12
        # the same distances are realized inside the augmented clouds
        assert any(abs(np.linalg.norm(p) - math.sqrt(31)) < 1e-12 for p in c1)
        assert any(abs(np.linalg.norm(p) - math.sqrt(33)) < 1e-12 for p in c2)

    def test_identity_config_is_noop(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        cfg = AugmentConfig(offset=np.zeros(2), anchors=np.zeros((0, 2)))
        cloud = augment(window_from(pts), cfg)
        np.testing.assert_array_equal(cloud, pts)

    @pytest.mark.parametrize(
        "points, params",
        [
            (np.array([[1.0, 1.0]]), None),
            # Integer points, standardized as the clouds stage does.
            (np.array([[1, 3], [2, 5]]), StandardizationParams(means=[1.5, 4.0], standard_deviations=[0.5, 2.0])),
        ],
        ids=["float", "integer-standardized"],
    )
    def test_input_not_modified(self, points, params):
        win = LabeledWindow(points=points.copy(), label=0, time_range=(0.0, 1.0))
        cfg = AugmentConfig(offset=np.ones(2), anchors=np.zeros((1, 2)))
        (cloud,) = augment_batch([win], cfg, params)
        np.testing.assert_array_equal(win.points, points)
        assert win.points.dtype == points.dtype
        embedded = points if params is None else (points - params.means) / params.standard_deviations
        assert cloud.tolist() == np.vstack([embedded + 1.0, [[0.0, 0.0]]]).tolist()

    def test_anchors_appended_after_translated_points(self):
        win = window_from([[1.0, 1.0], [2.0, 2.0]])
        cfg = AugmentConfig(offset=np.zeros(2), anchors=np.array([[9.0, 9.0]]))
        cloud = augment(win, cfg)
        np.testing.assert_array_equal(cloud[-1], [9.0, 9.0])

    def test_dimension_mismatch(self):
        win = window_from([[1.0, 2.0, 3.0]])
        with pytest.raises(DataError, match="dimension"):
            augment(win, CFG5)

    def test_pairwise_distances_preserved_under_translation(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(8, 4))
        win = window_from(pts)
        cfg = AugmentConfig(offset=rng.normal(size=4), anchors=np.zeros((1, 4)))
        cloud = augment(win, cfg)
        before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        moved = cloud[:8]
        after = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_translated_clouds_differ_in_anchor_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = rng.normal(size=(6, 3))
            t = rng.normal(size=3)
            if np.linalg.norm(t) < 1e-9:
                continue
            cfg = AugmentConfig.defaults(3)
            c1 = augment(window_from(pts), cfg)
            c2 = augment(window_from(pts + t), cfg)
            d1 = np.linalg.norm(c1[:6] - cfg.anchors[0], axis=1)
            d2 = np.linalg.norm(c2[:6] - cfg.anchors[0], axis=1)
            assert np.max(np.abs(d1 - d2)) > 0.0

    def test_standardized_channels_shift_to_offset_means(self):
        # after standardizing and translating by (0, 1, ..., d-1), channel i
        # of the translated (non-anchor) points has mean i and SD 1
        rng = np.random.default_rng(5)
        series = make_series(rng.normal(3.0, 2.5, size=(200, 5)))
        spec = SplitSpec((("train", 0, 200),))
        std = apply_standardizer(series, fit_standardizer(series, spec))
        windows = make_windows(std, WindowConfig(w=10, s=10))
        cfg = AugmentConfig.defaults(5)
        translated = np.vstack([augment(w, cfg)[:10] for w in windows])
        np.testing.assert_allclose(translated.mean(axis=0), [0, 1, 2, 3, 4], atol=1e-9)
        np.testing.assert_allclose(translated.std(axis=0), 1.0, atol=1e-9)


class TestAugmentBatch:
    @staticmethod
    def windows(rng):
        """Windows of 1, 3 and 10 points in shuffled order, on scales far apart."""
        sizes = [10, 3, 10, 1, 3, 10, 10, 1]
        return [
            window_from(rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=(n, 4)))
            for n in sizes
        ]

    @pytest.mark.parametrize("anchors", [np.zeros((0, 4)), np.zeros((1, 4)), np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 0.0, 7.0, 1e-3]])])
    def test_equals_standardizing_then_augmenting_one_window(self, anchors):
        rng = np.random.default_rng(29)
        windows = self.windows(rng)
        params = StandardizationParams(means=rng.normal(size=4), standard_deviations=rng.uniform(1e-3, 50.0, size=4))
        cfg = AugmentConfig(offset=rng.normal(size=4), anchors=anchors)
        clouds = augment_batch(windows, cfg, params)
        assert len(clouds) == len(windows)
        for window, cloud in zip(windows, clouds):
            standardized = (window.points - params.means) / params.standard_deviations
            expected = np.vstack([standardized + cfg.offset, anchors])
            assert cloud.tolist() == expected.tolist()
            assert cloud.tolist() == augment(window_from(standardized), cfg).tolist()

    def test_without_params_equals_augment(self):
        windows = self.windows(np.random.default_rng(31))
        cfg = AugmentConfig(offset=np.arange(4.0), anchors=np.ones((2, 4)))
        batch = augment_batch(windows, cfg)
        assert [c.tolist() for c in batch] == [augment(w, cfg).tolist() for w in windows]

    def test_empty(self):
        assert augment_batch([], CFG5) == []

    def test_non_finite_coordinate_names_the_window(self):
        params = StandardizationParams(means=np.zeros(2), standard_deviations=np.array([1.0, 1e-300]))
        windows = [window_from([[0.0, 1.0], [1.0, 0.0]]) for _ in range(3)]
        windows.append(window_from([[0.0, 1e10], [0.0, 0.0]]))
        with pytest.raises(DataError, match="^window 3: a coordinate is not finite"):
            augment_batch(windows, AugmentConfig(offset=np.zeros(2), anchors=np.zeros((0, 2))), params)

    def test_nan_window_point_rejected(self):
        with pytest.raises(DataError, match="^window 0: "):
            augment(window_from([[0.0, np.nan, 0.0, 0.0, 0.0]]), CFG5)

    def test_params_dimension_mismatch(self):
        params = StandardizationParams(means=np.zeros(1), standard_deviations=np.ones(1))
        with pytest.raises(DataError, match="standardizer has 1 channels, config has 5"):
            augment_batch([window_from(np.zeros((2, 5)))], CFG5, params)

    def test_dimension_mismatch_in_any_window(self):
        windows = [window_from(np.zeros((2, 5))), window_from(np.zeros((2, 4)))]
        with pytest.raises(DataError, match="window dimension 4 does not match config dimension 5"):
            augment_batch(windows, CFG5)


class TestResolveSpecs:
    def test_offset_auto(self):
        np.testing.assert_array_equal(resolve_offset("auto", 3), [0, 1, 2])
        np.testing.assert_array_equal(resolve_offset(None, 3), [0, 1, 2])

    def test_offset_comma_list(self):
        np.testing.assert_array_equal(resolve_offset("0,1,2.5", 3), [0, 1, 2.5])

    def test_offset_wrong_arity(self):
        with pytest.raises(ValueError, match="components"):
            resolve_offset("0,1", 3)

    def test_anchors_origin_none_lists(self):
        np.testing.assert_array_equal(resolve_anchors("origin", 2), [[0, 0]])
        assert resolve_anchors("none", 2).shape == (0, 2)
        assert resolve_anchors(None, 2).shape == (0, 2)
        np.testing.assert_array_equal(
            resolve_anchors(["1,2", "3,4"], 2), [[1, 2], [3, 4]]
        )
        np.testing.assert_array_equal(resolve_anchors([[1, 2]], 2), [[1, 2]])

    def test_anchor_wrong_arity(self):
        with pytest.raises(ValueError, match="components"):
            resolve_anchors(["1,2,3"], 2)

    @pytest.mark.parametrize("spec", ["0,nan,2", "inf,1,2", [0.0, 1.0, -math.inf]])
    def test_offset_non_finite_component(self, spec):
        with pytest.raises(ValueError, match="offset components must be finite"):
            resolve_offset(spec, 3)

    @pytest.mark.parametrize("spec", ["nan,0,0", ["0,0,0", "0,inf,0"], [[0.0, 0.0, math.nan]]])
    def test_anchor_non_finite_component(self, spec):
        with pytest.raises(ValueError, match="anchor components must be finite"):
            resolve_anchors(spec, 3)
