import math
import re
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topowin.distance
from topowin.assignment import min_cost_assignment
from topowin import (
    DataError,
    DistanceMatrix,
    PersistenceDiagram,
    WassersteinConfig,
    Dim0Diagrams,
    distance_matrix,
    rips_persistence_dim0_batch,
    rips_persistence_dim1,
    wasserstein,
)
from oracles import diagonal_augmented_cost_matrix, wasserstein_by_enumeration


def diag0(*pairs):
    return PersistenceDiagram(dim=0, pairs=tuple(pairs))


def random_diagram(rng, max_points=4, dim=0):
    n = int(rng.integers(0, max_points + 1))
    pairs = []
    for _ in range(n):
        b = float(rng.uniform(0, 2))
        d = b + float(rng.uniform(0, 2))
        pairs.append((b, d))
    return PersistenceDiagram(dim=dim, pairs=tuple(sorted(pairs, key=lambda p: (p[1], p[0]))))


class TestWasserstein:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = random_diagram(rng)
            assert wasserstein(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_vs_empty(self):
        assert wasserstein(diag0((0.0, 2.0)), diag0()) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_routing_beats_direct_match(self):
        # direct match costs 4; sending both points to the diagonal costs 3
        got = wasserstein(diag0((0.0, 1.0)), diag0((0.0, 5.0)))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_both_empty(self):
        assert wasserstein(diag0(), diag0()) == 0.0

    def test_dimension_mismatch(self):
        d1 = PersistenceDiagram(dim=0, pairs=())
        d2 = PersistenceDiagram(dim=1, pairs=())
        with pytest.raises(DataError, match="dimension mismatch"):
            wasserstein(d1, d2)

    def test_monotone_in_persistence(self):
        for a in (0.0, 0.5, 1.0, 3.0, 10.0):
            got = wasserstein(diag0((0.0, a)), diag0())
            assert got == pytest.approx(a / 2.0, abs=1e-12)

    def test_adding_diagonal_point_changes_nothing(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d1 = random_diagram(rng)
            d2 = random_diagram(rng)
            base = wasserstein(d1, d2)
            padded = PersistenceDiagram(dim=0, pairs=d1.pairs + ((1.25, 1.25),))
            assert wasserstein(padded, d2) == pytest.approx(base, abs=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(120):
            d1 = random_diagram(rng)
            d2 = random_diagram(rng)
            got = wasserstein(d1, d2)
            want = wasserstein_by_enumeration(d1.pairs, d2.pairs)
            assert got == pytest.approx(want, abs=1e-9)

    def test_p2_matches_enumeration(self):
        rng = np.random.default_rng(15)
        cfg = WassersteinConfig(p=2.0)
        for _ in range(40):
            d1 = random_diagram(rng, max_points=3)
            d2 = random_diagram(rng, max_points=3)
            got = wasserstein(d1, d2, cfg)
            want = wasserstein_by_enumeration(d1.pairs, d2.pairs, p=2.0)
            assert got == pytest.approx(want, abs=1e-9)

    def test_metric_axioms(self):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            d1, d2, d3 = (random_diagram(rng, max_points=5) for _ in range(3))
            w12 = wasserstein(d1, d2)
            w21 = wasserstein(d2, d1)
            w13 = wasserstein(d1, d3)
            w23 = wasserstein(d2, d3)
            assert w12 >= 0.0
            assert w12 == pytest.approx(w21, abs=1e-9)
            assert w13 <= w12 + w23 + 1e-9

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            WassersteinConfig(p=0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_not_finite_rejected(self, p):
        with pytest.raises(ValueError, match="p must be >= 1 and finite"):
            WassersteinConfig(p=p)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=3, allow_nan=False),
                st.floats(min_value=0, max_value=3, allow_nan=False),
            ),
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=3, allow_nan=False),
                st.floats(min_value=0, max_value=3, allow_nan=False),
            ),
            max_size=3,
        ),
    )
    def test_symmetry_property(self, raw1, raw2):
        d1 = diag0(*[(min(b, d), max(b, d)) for b, d in raw1])
        d2 = diag0(*[(min(b, d), max(b, d)) for b, d in raw2])
        assert wasserstein(d1, d2) == pytest.approx(wasserstein(d2, d1), abs=1e-9)


class TestDistanceMatrix:
    def test_identical_singletons(self):
        d = diag0((0.0, 1.0))
        matrix = distance_matrix([d], [d])
        assert matrix.values.shape == (1, 1)
        assert matrix.values[0, 0] == 0.0

    def test_shape_and_entries(self):
        rng = np.random.default_rng(5)
        test = [random_diagram(rng) for _ in range(3)]
        train = [random_diagram(rng) for _ in range(5)]
        matrix = distance_matrix(test, train)
        assert matrix.values.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert matrix.values[i, j] == pytest.approx(wasserstein(test[i], train[j]), abs=0)

    def test_identical_diagram_row_entry_zero(self):
        rng = np.random.default_rng(6)
        train = [random_diagram(rng) for _ in range(4)]
        test = [train[2]]
        matrix = distance_matrix(test, train)
        assert matrix.values[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_empty_sets_rejected(self):
        with pytest.raises(DataError, match="nonempty"):
            distance_matrix([], [diag0()])

    def test_dim_mismatch_with_config(self):
        bad = PersistenceDiagram(dim=1, pairs=())
        with pytest.raises(DataError, match="dimension"):
            distance_matrix([bad], [bad], WassersteinConfig(dimension=0))

    def test_matrix_invariants_enforced(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(np.array([[np.inf]]))
        with pytest.raises(ValueError, match=re.escape("values shaped (2,), expected a (test, train) matrix")):
            DistanceMatrix(np.zeros(2))


def zero_birth(*deaths):
    return PersistenceDiagram(dim=0, pairs=tuple((0.0, d) for d in deaths))


def random_zero_birth(rng, low, high, grid=False):
    n = int(rng.integers(low, high + 1))
    deaths = rng.integers(0, 9, size=n) / 2.0 if grid else rng.uniform(0.0, 3.0, size=n)
    return zero_birth(*sorted(float(d) for d in deaths))


def hungarian_distance(d1, d2, p):
    """The referee: the square diagonal-augmented matrix, solved exactly."""
    _, total = min_cost_assignment(diagonal_augmented_cost_matrix(d1.pairs, d2.pairs, p))
    return max(total, 0.0) ** (1.0 / p)


class TestZeroBirthDP:
    """Diagrams born at 0 take the 1-D dynamic program, not the Hungarian method."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_matches_enumeration_oracle(self, p):
        rng = np.random.default_rng(int(p * 10))
        cfg = WassersteinConfig(p=p)
        pairs = [
            (zero_birth(), zero_birth(1.5)),
            (zero_birth(0.5, 0.5, 2.0), zero_birth()),
            (zero_birth(1.0, 1.0, 1.5), zero_birth(1.0, 1.5, 1.5, 4.0)),
            (zero_birth(0.5, 2.0), zero_birth(1.0, 3.0)),
        ]
        for _ in range(60):
            grid = bool(rng.integers(0, 2))
            pairs.append((random_zero_birth(rng, 0, 5, grid), random_zero_birth(rng, 0, 4, grid)))
        for d1, d2 in pairs:
            want = wasserstein_by_enumeration(d1.pairs, d2.pairs, p=p)
            assert wasserstein(d1, d2, cfg) == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert wasserstein(d2, d1, cfg) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_matches_hungarian_on_larger_diagrams(self):
        rng = np.random.default_rng(2017)
        for n in range(1200):
            p = (1.0, 1.5, 2.0)[n % 3]
            d1 = random_zero_birth(rng, 8, 12, grid=n % 2 == 0)
            d2 = random_zero_birth(rng, 8, 12, grid=n % 2 == 0)
            want = hungarian_distance(d1, d2, p)
            assert wasserstein(d1, d2, WassersteinConfig(p=p)) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_rows_own_their_data(self, p):
        # A row that is a view of the dynamic program's table would keep the
        # whole table alive until the matrix stacks the rows.
        table = topowin.distance._deaths_table([zero_birth(1.0, 2.0), zero_birth(0.5), zero_birth()])
        row = topowin.distance._zero_birth_distances([1.0, 3.0], table, p)
        assert row.shape == (3,) and row.base is None

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_matrix_equals_pairwise(self, p):
        rng = np.random.default_rng(int(p * 100))
        cfg = WassersteinConfig(p=p)
        test = [random_zero_birth(rng, 0, 9) for _ in range(4)] + [zero_birth()]
        train = [random_zero_birth(rng, 0, 12, grid=j % 2 == 0) for j in range(40)] + [zero_birth()]
        matrix = distance_matrix(test, train, cfg)
        want = [[wasserstein(t, tr, cfg) for tr in train] for t in test]
        assert np.array_equal(matrix.values, np.array(want))


def random_clouds(rng, count, sizes):
    """``count`` clouds in R^3, each of a point count drawn from ``sizes``."""
    return [rng.normal(size=(int(rng.choice(sizes)), 3)) for _ in range(count)]


class TestDim0DiagramsInput:
    """Two ``Dim0Diagrams`` take the dynamic program from their deaths
    arrays; the matrix is the one their lists of diagrams give, bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize(
        "policy", [{}, {"essential_policy": "capped", "maxscale": 1.5}], ids=["dropped", "capped"]
    )
    @pytest.mark.parametrize(
        "n_test, sizes", [(5, (11,)), (1, (11,)), (6, (1, 2, 5, 11))], ids=["one-size", "one-window", "mixed-sizes"]
    )
    def test_equals_the_lists_bit_for_bit(self, p, policy, n_test, sizes):
        rng = np.random.default_rng(int(p) * 100 + n_test)
        test = rips_persistence_dim0_batch(random_clouds(rng, n_test, sizes), **policy)
        train = rips_persistence_dim0_batch(random_clouds(rng, 40, sizes), **policy)
        if policy:
            # The cap lies inside the deaths' range, so sorting moves it off the end of most rows.
            deaths = train.deaths[train.deaths > 0]
            assert deaths.min() < 1.5 < np.sort(deaths)[-2]
        cfg = WassersteinConfig(p=p)
        got = distance_matrix(test, train, cfg).values
        assert got.tobytes() == distance_matrix(list(test), list(train), cfg).values.tobytes()
        assert got.tobytes() == distance_matrix(list(test), train, cfg).values.tobytes()

    def test_empty_split_is_rejected_as_an_empty_list_is(self):
        rng = np.random.default_rng(3)
        empty, train = rips_persistence_dim0_batch([]), rips_persistence_dim0_batch(random_clouds(rng, 4, (5,)))
        for test, other in ((empty, train), (train, empty)):
            for args in ((test, other), (list(test), list(other))):
                with pytest.raises(DataError, match="nonempty test and train"):
                    distance_matrix(*args)

    def test_other_dimension_is_rejected(self):
        view = rips_persistence_dim0_batch([np.zeros((3, 2))])
        assert isinstance(view, Dim0Diagrams)
        with pytest.raises(DataError, match="diagram of dimension 0 in a dimension-1 matrix"):
            distance_matrix(view, view, WassersteinConfig(dimension=1))


def dim1(*pairs):
    return PersistenceDiagram(dim=1, pairs=tuple(pairs))


def rips_dim1_diagrams(seed, count):
    """Dimension-1 diagrams of Rips filtrations of 12 to 24 normal points in R^4."""
    rng = np.random.default_rng(seed)
    return [rips_persistence_dim1(rng.normal(size=(int(rng.integers(12, 25)), 4)), 3.0) for _ in range(count)]


def grid_dim1(rng, max_points=6):
    """Half-integer points born at 0 to 2: ties, duplicates and zero-persistence points."""
    n = int(rng.integers(0, max_points + 1))
    births = rng.integers(0, 5, size=n)
    deaths = births + rng.integers(0, 4, size=n)
    return dim1(*sorted(zip((births / 2.0).tolist(), (deaths / 2.0).tolist()), key=lambda q: (q[1], q[0])))


class TestDim1Matching:
    """Diagrams not all born at 0 take the m x (k + m) assignment."""

    def test_matches_square_referee(self):
        rips = rips_dim1_diagrams(1, 60)
        rng = np.random.default_rng(41)
        grid = [(grid_dim1(rng), grid_dim1(rng)) for _ in range(6400)]
        pairs = list(product(rips, rips)) + grid
        assert len(pairs) >= 10_000
        assert {len(d) for d in rips} >= {0, 1, 5} and max(len(d) for d in rips) >= 8
        assert any(len(a) != len(b) and min(len(a), len(b)) == 0 for a, b in grid)
        for p in (1.0, 2.0):
            cfg = WassersteinConfig(p=p, dimension=1)
            bad = []
            for a, b in pairs:
                got, want = wasserstein(a, b, cfg), hungarian_distance(a, b, p)
                if abs(got - want) > 1e-12 * want:
                    bad.append((a.pairs, b.pairs, got, want))
            assert bad == [], f"p={p}: {len(bad)} of {len(pairs)} pairs disagree, first {bad[0]}"

    def test_identical_diagrams_are_exactly_zero(self):
        rng = np.random.default_rng(7)
        diagrams = rips_dim1_diagrams(2, 20) + [grid_dim1(rng, 12) for _ in range(200)]
        for p in (1.0, 2.0):
            cfg = WassersteinConfig(p=p, dimension=1)
            for d in diagrams:
                assert wasserstein(d, dim1(*d.pairs), cfg) == 0.0
                assert wasserstein(d, dim1(*reversed(d.pairs)), cfg) == 0.0


class TestOnePath:
    """``wasserstein`` is the one-pair ``distance_matrix``; the matrix matches
    each pair itself."""

    CASES = {
        "empty/empty": (diag0(), diag0()),
        "empty/zero-birth": (diag0(), zero_birth(0.5, 2.0, 2.0)),
        "zero-birth/zero-birth": (zero_birth(1.0, 1.5, 3.25), zero_birth(0.75, 1.5)),
        "dim1": (dim1((0.25, 1.5), (0.5, 0.625)), dim1((0.3, 1.7))),
        "dim1-empty": (dim1(), dim1((0.3, 1.7), (1.0, 1.125))),
    }

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("case", CASES)
    def test_pair_is_the_one_pair_matrix(self, case, p):
        a, b = self.CASES[case]
        got = wasserstein(a, b, WassersteinConfig(p=p))
        want = distance_matrix([a], [b], WassersteinConfig(p=p, dimension=a.dim)).values[0, 0]
        assert type(got) is float
        assert got.hex() == float(want).hex()

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_dim1_matrix_matches_each_pair_itself(self, p, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("distance_matrix went through wasserstein")

        diagrams = rips_dim1_diagrams(3, 16)
        assert any(not d.pairs for d in diagrams) and any(d.pairs for d in diagrams)
        test, train, cfg = diagrams[:5], diagrams[5:], WassersteinConfig(p=p, dimension=1)
        monkeypatch.setattr(topowin.distance, "wasserstein", unexpected)
        matrix = distance_matrix(test, train, cfg)
        monkeypatch.undo()
        assert np.array_equal(matrix.values, np.array([[wasserstein(t, tr, cfg) for tr in train] for t in test]))

    @pytest.mark.parametrize("case", CASES)
    def test_config_dimension_is_ignored(self, case):
        a, b = self.CASES[case]
        want = wasserstein(a, b, WassersteinConfig(p=2.0, dimension=a.dim))
        for dimension in (0, 1, 3):
            assert wasserstein(a, b, WassersteinConfig(p=2.0, dimension=dimension)) == want


def test_import_leaves_multiprocessing_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, topowin; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
