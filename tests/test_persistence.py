import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topowin import (
    DataError,
    Diagrams,
    NumericalError,
    PersistenceDiagram,
    rips_persistence_dim0,
    rips_persistence_dim0_batch,
    rips_persistence_dim1,
)
from topowin.persistence import _CHUNK_FLOATS, _chunk_clouds
from conftest import by_shape, deaths, dim0_per_shape
from oracles import (
    dim0_deaths_by_component_counting,
    dim0_deaths_by_prim_loop,
    dim1_pairs_by_persistent_betti,
)


def col(*values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestDiagramType:
    def test_birth_after_death_rejected(self):
        with pytest.raises(ValueError, match="birth <= death"):
            PersistenceDiagram(dim=0, pairs=((0.0, -1.0),))

    def test_negative_birth_rejected(self):
        with pytest.raises(ValueError):
            PersistenceDiagram(dim=0, pairs=((-0.5, 1.0),))

    def test_has_no_instance_dict(self):
        # Slotted: a run builds one diagram per window.
        assert not hasattr(PersistenceDiagram(dim=0, pairs=((0.0, 1.0),)), "__dict__")


class TestDim0:
    def test_three_points_on_a_line(self):
        diag = rips_persistence_dim0(col(0.0, 1.0, 3.0))
        assert diag.pairs == ((0.0, 1.0), (0.0, 2.0))

    def test_single_point_empty_diagram(self):
        diag = rips_persistence_dim0(col(7.0))
        assert diag.pairs == ()

    def test_identical_points(self):
        diag = rips_persistence_dim0(np.zeros((4, 3)))
        assert diag.pairs == ((0.0, 0.0),) * 3

    def test_pair_count_is_n_minus_1(self):
        rng = np.random.default_rng(3)
        for n in range(1, 12):
            pts = rng.normal(size=(n, 3))
            assert len(rips_persistence_dim0(pts).pairs) == n - 1

    def test_births_all_zero_and_sorted_by_death(self):
        rng = np.random.default_rng(4)
        diag = rips_persistence_dim0(rng.normal(size=(9, 2)))
        assert all(b == 0.0 for b, _ in diag.pairs)
        got = deaths(diag)
        assert got == sorted(got)

    def test_matches_component_counting_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 6))
            pts = rng.uniform(-1, 1, size=(n, d))
            got = deaths(rips_persistence_dim0(pts))
            want = dim0_deaths_by_component_counting(pts)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, atol=1e-9)
        # Integer grids have exact ties and duplicate points, and every
        # squared distance is an exact integer, so the deaths match exactly.
        for _ in range(60):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 6))
            pts = rng.integers(-2, 3, size=(n, d)).astype(float)
            assert deaths(rips_persistence_dim0(pts)) == dim0_deaths_by_component_counting(pts)

    def test_capped_essential_policy_appends_cap(self):
        diag = rips_persistence_dim0(col(0.0, 1.0), essential_policy="capped", maxscale=5.0)
        assert diag.pairs == ((0.0, 1.0), (0.0, 5.0))

    def test_capped_needs_positive_maxscale(self):
        with pytest.raises(NumericalError):
            rips_persistence_dim0(col(0.0, 1.0), essential_policy="capped")

    def test_empty_cloud_rejected(self):
        with pytest.raises(DataError):
            rips_persistence_dim0(np.zeros((0, 2)))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            pts = rng.normal(size=(7, 3))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            moved = pts @ q.T + rng.normal(size=3)
            a = deaths(rips_persistence_dim0(pts))
            b = deaths(rips_persistence_dim0(moved))
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_perturbation_stability(self):
        rng = np.random.default_rng(17)
        delta = 0.01
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(8, 3))
            direction = rng.normal(size=pts.shape)
            direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
            moved = pts + direction * rng.uniform(0, delta, size=(8, 1))
            a = np.array(deaths(rips_persistence_dim0(pts)))
            b = np.array(deaths(rips_persistence_dim0(moved)))
            assert np.max(np.abs(a - b)) <= 2 * delta + 1e-12


def random_cloud(rng, n, d):
    """Integer grids (exact ties, duplicate points) one time in three,
    else floats over a few orders of magnitude."""
    if rng.integers(3) == 0:
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    return rng.normal(size=(n, d)) * 10 ** rng.uniform(-3, 3)


def batch_deaths(clouds, **policy):
    return [deaths(diag) for diag in dim0_per_shape(clouds, **policy)]


class TestDim0Batch:
    def test_integer_grids_match_component_counting_oracle(self):
        rng = np.random.default_rng(2024)
        clouds = [
            rng.integers(-2, 3, size=(int(rng.integers(1, 15)), int(rng.integers(1, 7)))).astype(float)
            for _ in range(300)
        ]
        assert batch_deaths(clouds) == [dim0_deaths_by_component_counting(c) for c in clouds]

    @pytest.mark.parametrize(
        "policy", [{}, {"essential_policy": "capped", "maxscale": 3.0}], ids=["dropped", "capped"]
    )
    def test_mixed_shapes_match_per_cloud_calls(self, policy):
        # d beyond 8 takes numpy's pairwise summation path for the squared
        # differences; the batch axis must not change any entry.  One
        # batched call per shape.
        rng = np.random.default_rng(8)
        clouds = [random_cloud(rng, n, d) for n in (1, 2, 11, 15) for d in range(1, 13) for _ in range(3)]
        clouds = [clouds[i] for i in rng.permutation(len(clouds))]
        batched = dim0_per_shape(clouds, **policy)
        assert list(batched) == [rips_persistence_dim0(c, **policy) for c in clouds]
        cap = [policy["maxscale"]] if policy else []
        assert [deaths(diag) for diag in batched] == [dim0_deaths_by_prim_loop(c) + cap for c in clouds]

    def test_chunk_boundaries(self):
        n, d = 15, 12
        chunk = _chunk_clouds(n, d)
        assert 1 < chunk < 100
        rng = np.random.default_rng(31)
        for count in (chunk, chunk + 1, 2 * chunk + 1):
            clouds = [random_cloud(rng, n, d) for _ in range(count)]
            assert batch_deaths(clouds) == [dim0_deaths_by_prim_loop(c) for c in clouds]

    def test_chunk_temporaries_stay_small_for_any_window(self):
        # Each chunk's (clouds, n, n, d) difference tensor holds at most
        # _CHUNK_FLOATS floats, unless a single cloud is already larger.
        assert _CHUNK_FLOATS * 8 <= 1 << 19
        for n in range(1, 200, 7):
            for d in range(1, 13):
                chunk = _chunk_clouds(n, d)
                assert chunk >= 1
                assert chunk == 1 or chunk * n * n * d <= _CHUNK_FLOATS

    def test_empty_list(self):
        assert list(rips_persistence_dim0_batch([])) == []

    def test_accepts_augmented_clouds_in_input_order(self):
        from topowin import AugmentConfig, WindowConfig, augment, make_windows
        from conftest import synthetic_two_class_series

        wins = make_windows(synthetic_two_class_series(), WindowConfig(10, 10))
        clouds = [augment(wins[i], AugmentConfig.defaults(3)) for i in range(20)]
        assert list(rips_persistence_dim0_batch(clouds)) == [rips_persistence_dim0(c) for c in clouds]

    @pytest.mark.parametrize("bad_at", [0, 2])
    def test_empty_cloud_rejected_anywhere(self, bad_at):
        clouds = [col(0.0, 1.0), col(2.0, 3.0), col(4.0, 5.0)]
        clouds.insert(bad_at, np.zeros((0, 1)))
        with pytest.raises(DataError, match=re.escape("clouds of mixed shapes [(0, 1), (2, 1)]")):
            rips_persistence_dim0_batch(clouds)
        with pytest.raises(DataError, match="at least one point"):
            rips_persistence_dim0_batch([np.zeros((0, 1))] * (bad_at + 1))

    @pytest.mark.parametrize("bad_at", [0, 2])
    def test_non_2d_cloud_rejected_anywhere(self, bad_at):
        clouds = [col(0.0, 1.0, 2.0), col(3.0, 4.0, 5.0)]
        clouds.insert(bad_at, np.zeros(3))
        with pytest.raises(DataError, match="mixed shapes"):
            rips_persistence_dim0_batch(clouds)
        with pytest.raises(DataError, match=re.escape("point array per cloud, got shape (3,)")):
            rips_persistence_dim0_batch([np.zeros(3)] * (bad_at + 1))

    def test_one_stack_of_a_list_or_the_array_as_it_is(self):
        clouds = [col(0.0, 1.0, 3.0), col(5.0, 5.0, 5.5), col(0.0, 2.0, 2.5)]
        batched = rips_persistence_dim0_batch(clouds)
        from_array = rips_persistence_dim0_batch(np.array(clouds))
        assert list(batched) == list(from_array) == [rips_persistence_dim0(c) for c in clouds]
        assert batched.counts.tolist() == [2, 2, 2] and batched.deaths.shape == (3, 2)

    @pytest.mark.parametrize(
        "policy, error",
        [
            ({"essential_policy": "ignored"}, ValueError),
            ({"essential_policy": "capped"}, NumericalError),
            ({"essential_policy": "capped", "maxscale": 0.0}, NumericalError),
            ({"essential_policy": "capped", "maxscale": -1.0}, NumericalError),
            ({"essential_policy": "capped", "maxscale": math.inf}, NumericalError),
            ({"essential_policy": "capped", "maxscale": math.nan}, NumericalError),
        ],
    )
    def test_policy_errors_match_per_cloud_calls(self, policy, error):
        clouds = [col(0.0, 1.0), np.zeros((3, 2)), col(5.0)]
        for group in by_shape(clouds):
            with pytest.raises(error):
                rips_persistence_dim0_batch([clouds[i] for i in group], **policy)
        for cloud in clouds:
            with pytest.raises(error):
                rips_persistence_dim0(cloud, **policy)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1)),
            max_size=12,
        )
    )
    def test_batch_equals_per_cloud_calls(self, specs):
        clouds = []
        for n, d, grid, seed in specs:
            rng = np.random.default_rng(seed)
            pts = rng.integers(-2, 3, size=(n, d)) if grid else rng.normal(size=(n, d))
            clouds.append(pts.astype(float))
        batched = dim0_per_shape(clouds)
        assert list(batched) == [rips_persistence_dim0(c) for c in clouds]
        assert [deaths(diag) for diag in batched] == [dim0_deaths_by_prim_loop(c) for c in clouds]


class TestDiagrams:
    """Arrays of births and deaths, seen as a sequence of diagrams: clouds of
    mixed point counts, one batched call per shape, packed by ``from_pairs``."""

    CLOUDS = [col(0.0, 1.0, 3.0), col(5.0), col(0.0, 0.0, 2.0, 2.5, 4.5), col(1.0, 1.5)]

    @pytest.mark.parametrize(
        "policy, cap", [({}, []), ({"essential_policy": "capped", "maxscale": 1.2}, [1.2])], ids=["dropped", "capped"]
    )
    def test_rows_are_deaths_zero_padded_at_the_front(self, policy, cap):
        view = dim0_per_shape(self.CLOUDS, **policy)
        assert isinstance(view, Diagrams) and view.dim == 0
        assert view.births.shape == view.deaths.shape and not view.births.any()
        assert view.counts.tolist() == [2 + len(cap), len(cap), 4 + len(cap), 1 + len(cap)]
        width = 4 + len(cap)
        want = [[1.0, 2.0], [], [0.0, 0.5, 2.0, 2.0], [0.5]]
        assert view.deaths.tolist() == [[0.0] * (width - len(d) - len(cap)) + d + cap for d in want]

    def test_len_indexing_and_iteration(self):
        view = dim0_per_shape(self.CLOUDS)
        diagrams = [rips_persistence_dim0(c) for c in self.CLOUDS]
        assert len(view) == 4
        assert [view[i] for i in range(4)] == diagrams
        assert view[-1] == diagrams[-1] and view[1] == PersistenceDiagram(0, ())
        assert list(view) == diagrams
        assert list(dim0_per_shape(self.CLOUDS, "capped", 9.0)) == [
            PersistenceDiagram(0, (*diag.pairs, (0.0, 9.0))) for diag in diagrams
        ]
        with pytest.raises(IndexError):
            view[4]

    def test_is_read_only(self):
        view = rips_persistence_dim0_batch(self.CLOUDS[:1] * 2)
        with pytest.raises(ValueError):
            view.deaths[0, -1] = 7.0
        with pytest.raises(ValueError):
            view.counts[0] = 1
        with pytest.raises(ValueError):
            view.births[0, -1] = 1.0
        with pytest.raises(TypeError):
            view[0] = PersistenceDiagram(0, ())

    def test_empty_batch_is_an_empty_sequence(self):
        view = rips_persistence_dim0_batch([], "capped", 1.0)
        assert len(view) == 0 and not view and view.deaths.shape == (0, 0)

    @pytest.mark.parametrize(
        "policy", [{}, {"essential_policy": "capped", "maxscale": 1.2}], ids=["dropped", "capped"]
    )
    def test_from_pairs_rebuilds_the_batch(self, policy):
        view = rips_persistence_dim0_batch([col(0.0, 1.0, 3.0), col(5.0, 4.0, 4.5), col(1.0, 1.5, 1.5)], **policy)
        assert list(view.rows()) == [list(diag.pairs) for diag in view]
        again = Diagrams.from_pairs(0, list(view.rows()))
        for name in ("births", "deaths", "counts"):
            assert getattr(again, name).tobytes() == getattr(view, name).tobytes()
            assert not getattr(again, name).flags.writeable
        empty = Diagrams.from_pairs(1, [])
        assert empty.deaths.shape == empty.births.shape == (0, 0) and empty.counts.shape == (0,)

    @pytest.mark.parametrize("point", [(0.5, math.inf), (math.nan, 1.0), (-1.0, 2.0), (2.0, 1.0)])
    def test_a_point_that_is_not_finite_0_to_death_is_refused(self, point):
        # An infinite cost would never let the assignment of a distance end.
        with pytest.raises(ValueError, match="finite 0 <= birth <= death"):
            Diagrams.from_pairs(1, [[(0.25, 0.5)], [point]])

    def test_dimension_1_rows_keep_each_diagrams_pairs(self):
        pairs = [((0.5, 1.0), (0.25, 2.0)), (), ((1.5, 1.75),)]
        view = Diagrams.from_pairs(1, pairs)
        assert view.births.tolist() == [[0.5, 0.25], [0.0, 0.0], [0.0, 1.5]]
        assert view.deaths.tolist() == [[1.0, 2.0], [0.0, 0.0], [0.0, 1.75]]
        assert [tuple(row) for row in view.rows()] == pairs
        assert list(view) == [PersistenceDiagram(1, p) for p in pairs] and view[-1].dim == 1


class TestDim0Overflow:
    @pytest.mark.parametrize("policy", [{}, {"essential_policy": "capped", "maxscale": 1.0}], ids=["dropped", "capped"])
    def test_overflowing_distance_is_a_numerical_error_naming_the_window(self, policy):
        clouds = [col(0.0, 1.0, 2.0), col(2.0, 3.0, 4.0), col(0.0, 1e160, 1.0), col(1e200, -1e200, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as raised:
                rips_persistence_dim0_batch(clouds, **policy)
        assert str(raised.value) == "window 2: a distance between its points is inf, not a finite float"

    def test_largest_finite_distance_is_kept(self):
        view = rips_persistence_dim0_batch([col(0.0, 1e154)])
        assert view.deaths.tolist() == [[1e154]]

    def test_dim1_overflowing_distance_is_a_numerical_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as raised:
                rips_persistence_dim1(col(0.0, 1e160, 1.0), maxscale=3.0)
        assert str(raised.value) == "a distance between its points is inf, not a finite float"


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestDim1:
    def test_unit_square_single_loop(self):
        diag = rips_persistence_dim1(SQUARE, maxscale=2.0)
        assert len(diag.pairs) == 1
        birth, death = diag.pairs[0]
        assert birth == pytest.approx(1.0, abs=1e-12)
        assert death == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_collinear_points_no_loops(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert rips_persistence_dim1(pts, maxscale=5.0).pairs == ()

    def test_equilateral_triangle_no_loops(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert rips_persistence_dim1(pts, maxscale=2.0).pairs == ()

    def test_loop_alive_at_cap_is_capped(self):
        # cap below sqrt(2): the square's loop is born at 1 and never filled
        diag = rips_persistence_dim1(SQUARE, maxscale=1.2)
        assert diag.pairs == ((1.0, 1.2),)

    def test_bad_maxscale(self):
        with pytest.raises(NumericalError):
            rips_persistence_dim1(SQUARE, maxscale=0.0)

    def test_too_few_points(self):
        with pytest.raises(DataError, match="3 points"):
            rips_persistence_dim1(np.zeros((2, 2)), maxscale=1.0)

    def test_non_finite_point_rejected(self):
        pts = SQUARE.copy()
        pts[2, 1] = np.nan
        with pytest.raises(DataError, match="finite coordinates"):
            rips_persistence_dim1(pts, maxscale=2.0)

    def test_matches_persistent_betti_oracle(self):
        rng = np.random.default_rng(777)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 4))
            pts = rng.uniform(-1, 1, size=(n, d))
            maxscale = 3.0
            got = rips_persistence_dim1(pts, maxscale).pairs
            want = dim1_pairs_by_persistent_betti(pts, maxscale)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[0] == pytest.approx(w[0], abs=1e-9)
                assert g[1] == pytest.approx(w[1], abs=1e-9)
        # Integer grids have tied lengths and duplicate points, and every
        # length is the root of an exact integer, so the pairs match exactly.
        # A cap below the diameter can leave the threshold graph disconnected.
        for _ in range(200):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 4))
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
            for maxscale in (1.0, 1.2, 1.5, 2.5):
                want = dim1_pairs_by_persistent_betti(pts, maxscale)
                assert list(rips_persistence_dim1(pts, maxscale).pairs) == want
        # Offset-translated floats with an origin anchor, as the pipeline
        # builds them, under caps below and above the diameter.
        for _ in range(60):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 4))
            pts = np.vstack([rng.normal(size=(n - 1, d)) + np.arange(d), np.zeros((1, d))])
            diameter = float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=-1)))
            for maxscale in (0.5 * diameter, 0.8 * diameter, 1.5 * diameter):
                got = rips_persistence_dim1(pts, maxscale).pairs
                want = dim1_pairs_by_persistent_betti(pts, maxscale)
                assert len(got) == len(want)
                np.testing.assert_allclose(np.reshape(got, (-1, 2)), np.reshape(want, (-1, 2)), rtol=0, atol=1e-9)

