import math

import numpy as np
import pytest

from topowin.assignment import min_cost_assignment
from oracles import assignment_cost_by_enumeration


class TestMinCostAssignment:
    def test_identity_matrix(self):
        cost = [[0.0, 1.0], [1.0, 0.0]]
        assignment, total = min_cost_assignment(cost)
        assert assignment == [0, 1]
        assert total == 0.0

    def test_forced_swap(self):
        cost = [[10.0, 1.0], [1.0, 10.0]]
        assignment, total = min_cost_assignment(cost)
        assert assignment == [1, 0]
        assert total == 2.0

    def test_empty(self):
        assert min_cost_assignment([]) == ([], 0.0)

    def test_rectangular_rows_leq_cols(self):
        cost = [[5.0, 1.0, 9.0]]
        assignment, total = min_cost_assignment(cost)
        assert assignment == [1]
        assert total == 1.0

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(ValueError, match="n_rows <= n_cols"):
            min_cost_assignment([[1.0], [2.0]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            min_cost_assignment([[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize(
        "cost", [[[math.inf, math.inf], [1.0, 2.0]], [[1.0, -math.inf]], [[0.0, 1.0], [math.nan, 2.0]]],
        ids=["infinite-row", "minus-infinity", "nan"],
    )
    def test_non_finite_cost_rejected_before_the_loop(self, cost):
        # An infinite row never lets the augmenting path end.
        with pytest.raises(ValueError, match="cost entries must be finite"):
            min_cost_assignment(cost)

    def test_assignment_is_a_valid_injection(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(n, 8))
            cost = rng.uniform(0, 10, size=(n, m)).tolist()
            assignment, total = min_cost_assignment(cost)
            assert len(set(assignment)) == n
            assert all(0 <= j < m for j in assignment)
            assert total == pytest.approx(sum(cost[i][j] for i, j in enumerate(assignment)))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(n, 8))
            cost = rng.uniform(0, 5, size=(n, m)).tolist()
            _, total = min_cost_assignment(cost)
            assert total == pytest.approx(assignment_cost_by_enumeration(cost), abs=1e-9)

    def test_negative_costs_supported(self):
        cost = [[-2.0, 5.0], [5.0, -3.0]]
        _, total = min_cost_assignment(cost)
        assert total == pytest.approx(-5.0)

    def test_ties_resolve_to_optimal_value(self):
        cost = [[1.0, 1.0], [1.0, 1.0]]
        _, total = min_cost_assignment(cost)
        assert total == 2.0
