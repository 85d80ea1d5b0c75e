import math

import numpy as np
import pytest

from topowin import (
    DataError,
    NumericalError,
    PersistenceDiagram,
    diagram_to_rows,
    rips_persistence_dim0,
    rips_persistence_dim1,
)
from oracles import dim0_deaths_by_component_counting, dim1_pairs_by_persistent_betti


def col(*values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestDiagramType:
    def test_birth_after_death_rejected(self):
        with pytest.raises(ValueError, match="birth <= death"):
            PersistenceDiagram(dim=0, pairs=((0.0, -1.0),))

    def test_negative_birth_rejected(self):
        with pytest.raises(ValueError):
            PersistenceDiagram(dim=0, pairs=((-0.5, 1.0),))

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="essential policy"):
            PersistenceDiagram(dim=0, pairs=(), essential_policy="ignored")

    def test_deaths_accessor(self):
        diag = PersistenceDiagram(dim=0, pairs=((0.0, 1.0), (0.0, 2.0)))
        assert diag.deaths() == (1.0, 2.0)


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
            assert len(rips_persistence_dim0(pts)) == n - 1

    def test_births_all_zero_and_sorted_by_death(self):
        rng = np.random.default_rng(4)
        diag = rips_persistence_dim0(rng.normal(size=(9, 2)))
        assert all(b == 0.0 for b, _ in diag.pairs)
        deaths = diag.deaths()
        assert list(deaths) == sorted(deaths)

    def test_matches_component_counting_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 6))
            pts = rng.uniform(-1, 1, size=(n, d))
            got = rips_persistence_dim0(pts).deaths()
            want = dim0_deaths_by_component_counting(pts)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, atol=1e-9)
        # Integer grids have exact ties and duplicate points, and every
        # squared distance is an exact integer, so the deaths match exactly.
        for _ in range(60):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 6))
            pts = rng.integers(-2, 3, size=(n, d)).astype(float)
            assert list(rips_persistence_dim0(pts).deaths()) == dim0_deaths_by_component_counting(pts)

    def test_capped_essential_policy_appends_cap(self):
        diag = rips_persistence_dim0(col(0.0, 1.0), essential_policy="capped", maxscale=5.0)
        assert diag.pairs == ((0.0, 1.0), (0.0, 5.0))
        assert diag.essential_policy == "capped"

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
            a = rips_persistence_dim0(pts).deaths()
            b = rips_persistence_dim0(moved).deaths()
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_perturbation_stability(self):
        rng = np.random.default_rng(17)
        delta = 0.01
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(8, 3))
            direction = rng.normal(size=pts.shape)
            direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
            moved = pts + direction * rng.uniform(0, delta, size=(8, 1))
            a = np.array(rips_persistence_dim0(pts).deaths())
            b = np.array(rips_persistence_dim0(moved).deaths())
            assert np.max(np.abs(a - b)) <= 2 * delta + 1e-12


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


class TestHelpers:
    def test_diagram_to_rows_sorted_and_lossless(self):
        diag = PersistenceDiagram(dim=0, pairs=((0.0, 2.0), (0.0, 1.0)))
        assert diagram_to_rows(diag) == [(0, 0.0, 1.0), (0, 0.0, 2.0)]

    def test_diagram_to_rows_empty(self):
        assert diagram_to_rows(PersistenceDiagram(dim=1, pairs=())) == []

    def test_diagram_rows_group_by_dim(self):
        d0 = PersistenceDiagram(dim=0, pairs=((0.0, 1.0),))
        d1 = PersistenceDiagram(dim=1, pairs=((0.5, 0.9),))
        rows = diagram_to_rows(d0) + diagram_to_rows(d1)
        assert rows == [(0, 0.0, 1.0), (1, 0.5, 0.9)]
