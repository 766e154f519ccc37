"""Tests for the bounded integer program container."""

import numpy as np
import pytest

from repro.opt.problem import BoundedIntegerProgram, IntegerSolution


def simple_problem():
    return BoundedIntegerProgram(
        objective=[3.0, 2.0],
        constraint_matrix=[[1.0, 1.0], [2.0, 0.5]],
        constraint_bounds=[4.0, 5.0],
        upper_bounds=[3, 3],
    )


class TestConstruction:
    def test_shapes(self):
        problem = simple_problem()
        assert problem.num_variables == 2
        assert problem.num_constraints == 2

    def test_rejects_negative_matrix(self):
        with pytest.raises(ValueError):
            BoundedIntegerProgram([1.0], [[-1.0]], [1.0], [1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BoundedIntegerProgram([1.0, 2.0], [[1.0]], [1.0], [1])
        with pytest.raises(ValueError):
            BoundedIntegerProgram([1.0], [[1.0]], [1.0, 2.0], [1])
        with pytest.raises(ValueError):
            BoundedIntegerProgram([1.0], [[1.0]], [1.0], [1, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundedIntegerProgram([np.inf], [[1.0]], [1.0], [1])

    def test_negative_bounds_clamped(self):
        problem = BoundedIntegerProgram([1.0], [[1.0]], [-0.5], [4])
        assert problem.constraint_bounds[0] == 0.0

    def test_fractional_upper_bounds_floored(self):
        problem = BoundedIntegerProgram([1.0], [[1.0]], [10.0], [2.7])
        assert problem.upper_bounds[0] == 2

    def test_rejects_negative_upper_bounds(self):
        with pytest.raises(ValueError):
            BoundedIntegerProgram([1.0], [[1.0]], [1.0], [-1])


class TestEvaluation:
    def test_objective_value(self):
        problem = simple_problem()
        assert problem.objective_value([1, 2]) == pytest.approx(7.0)

    def test_feasibility(self):
        problem = simple_problem()
        assert problem.is_feasible([1, 1])
        assert not problem.is_feasible([3, 3])  # violates both constraints
        assert not problem.is_feasible([-1, 0])
        assert not problem.is_feasible([4, 0])  # above upper bound

    def test_slack(self):
        problem = simple_problem()
        slack = problem.slack([1, 1])
        assert np.allclose(slack, [2.0, 2.5])

    def test_max_increment(self):
        problem = simple_problem()
        values = np.zeros(2)
        # Variable 0 is limited by constraint 1 (2x <= 5 -> 2) and its bound 3.
        assert problem.max_increment(values, 0) == 2
        # Variable 1 is limited by its own bound.
        assert problem.max_increment(values, 1) == 3

    def test_max_increment_from_partial(self):
        problem = simple_problem()
        assert problem.max_increment(np.array([1.0, 0.0]), 0) == 1

    def test_search_space_size(self):
        assert simple_problem().search_space_size() == 16.0

    def test_wrong_length_rejected(self):
        problem = simple_problem()
        with pytest.raises(ValueError):
            problem.objective_value([1])
        with pytest.raises(ValueError):
            problem.is_feasible([1, 2, 3])


class TestMaxIncrements:
    def test_matches_scalar_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            num_vars = int(rng.integers(1, 9))
            num_constraints = int(rng.integers(1, 5))
            matrix = rng.uniform(0.0, 1.0, size=(num_constraints, num_vars))
            matrix[rng.random(matrix.shape) < 0.4] = 0.0
            problem = BoundedIntegerProgram(
                objective=rng.uniform(0.1, 2.0, size=num_vars),
                constraint_matrix=matrix,
                constraint_bounds=rng.uniform(0.5, 5.0, size=num_constraints),
                upper_bounds=rng.integers(0, 6, size=num_vars),
            )
            values = rng.integers(0, 3, size=num_vars).astype(float)
            batched = problem.max_increments(values)
            for index in range(num_vars):
                assert batched[index] == problem.max_increment(values, index)

    def test_unconstrained_problem_limited_by_box_only(self):
        problem = BoundedIntegerProgram(
            objective=[1.0, 2.0],
            constraint_matrix=np.zeros((0, 2)),
            constraint_bounds=np.zeros(0),
            upper_bounds=[3, 5],
        )
        assert np.array_equal(problem.max_increments(np.zeros(2)), [3, 5])
        assert [problem.max_increment(np.zeros(2), j) for j in range(2)] == [3, 5]

    def test_zero_column_variable_limited_by_box(self):
        problem = BoundedIntegerProgram(
            objective=[1.0, 1.0],
            constraint_matrix=[[1.0, 0.0]],
            constraint_bounds=[2.0],
            upper_bounds=[5, 4],
        )
        assert np.array_equal(problem.max_increments(np.zeros(2)), [2, 4])

    def test_rooms_never_recover_as_values_grow(self):
        """The monotonicity the batched greedy prune relies on."""
        rng = np.random.default_rng(12)
        matrix = rng.uniform(0.0, 1.0, size=(3, 5))
        problem = BoundedIntegerProgram(
            objective=np.ones(5),
            constraint_matrix=matrix,
            constraint_bounds=rng.uniform(1.0, 4.0, size=3),
            upper_bounds=np.full(5, 6),
        )
        values = np.zeros(5)
        rooms = problem.max_increments(values)
        values[0] += rooms[0]
        shrunk = problem.max_increments(values)
        assert np.all(shrunk[1:] <= rooms[1:])


class TestIntegerSolution:
    def test_values_are_int_copies(self):
        values = np.array([1.0, 2.0])
        solution = IntegerSolution(values=values, objective=3.0, optimal=True)
        assert solution.values.dtype.kind == "i"
        values[0] = 9
        assert solution.values[0] == 1
