"""Tests for the integer-program solvers (exhaustive, B&B, greedy, LP).

The parity tests compare every solver with its scalar reference in
:mod:`tests.oracles.opt`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.opt
from repro.opt import (
    BoundedIntegerProgram,
    round_lp_solution,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
    solve_lp_relaxation,
    solve_near_optimal,
)
from repro.opt import SimplexIterationLimitError, SimplexScratch, solve_children_lp
from repro.opt.exhaustive import MAX_ENUMERATION_POINTS
from repro.opt.lp import simplex_lp
from tests.oracles import opt as oracle

#: The solvers of each path, by the ``batched`` test parameter: the
#: production kernels (``True``) and their scalar oracles (``False``).
SOLVERS = {True: repro.opt, False: oracle}


def random_problem(rng, num_vars, num_constraints=3, max_bound=5):
    matrix = rng.uniform(0.0, 1.0, size=(num_constraints, num_vars))
    # Sparsify so some variables are unconstrained in some rows.
    matrix[rng.random(matrix.shape) < 0.3] = 0.0
    bounds = rng.uniform(1.0, 6.0, size=num_constraints)
    objective = rng.uniform(0.1, 3.0, size=num_vars)
    upper = rng.integers(1, max_bound + 1, size=num_vars)
    return BoundedIntegerProgram(objective, matrix, bounds, upper)


class TestExhaustive:
    def test_simple_knapsack(self):
        problem = BoundedIntegerProgram(
            objective=[5.0, 3.0],
            constraint_matrix=[[2.0, 1.0]],
            constraint_bounds=[4.0],
            upper_bounds=[2, 4],
        )
        solution = solve_exhaustive(problem)
        assert solution.objective == pytest.approx(12.0)
        assert solution.optimal

    def test_refuses_huge_space(self):
        problem = BoundedIntegerProgram(
            objective=np.ones(20),
            constraint_matrix=np.ones((1, 20)),
            constraint_bounds=[10.0],
            upper_bounds=np.full(20, 10),
        )
        assert problem.search_space_size() > MAX_ENUMERATION_POINTS
        with pytest.raises(ValueError):
            solve_exhaustive(problem)


class TestBranchAndBound:
    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            problem = random_problem(rng, num_vars=4, max_bound=4)
            exact = solve_exhaustive(problem)
            bnb = solve_branch_and_bound(problem)
            assert bnb.objective == pytest.approx(exact.objective, rel=1e-9, abs=1e-9)
            assert bnb.optimal
            assert problem.is_feasible(bnb.values)

    def test_empty_problem(self):
        problem = BoundedIntegerProgram(
            objective=np.zeros(0),
            constraint_matrix=np.zeros((1, 0)),
            constraint_bounds=[1.0],
            upper_bounds=np.zeros(0),
        )
        solution = solve_branch_and_bound(problem)
        assert solution.objective == 0.0
        assert solution.optimal
        for solve in (solve_greedy, solve_near_optimal, solve_exhaustive):
            solution = solve(problem)
            assert solution.values.shape == (0,)
            assert solution.objective == 0.0
        # The empty box holds exactly one point, the empty assignment.
        exhaustive = solve_exhaustive(problem)
        assert exhaustive.optimal
        assert exhaustive.nodes_explored == 1

    def test_zero_capacity_gives_zero(self):
        problem = BoundedIntegerProgram(
            objective=[1.0, 1.0],
            constraint_matrix=[[1.0, 1.0]],
            constraint_bounds=[0.0],
            upper_bounds=[5, 5],
        )
        solution = solve_branch_and_bound(problem)
        assert solution.objective == 0.0
        assert np.all(solution.values == 0)

    def test_node_budget_returns_feasible_incumbent(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng, num_vars=12, num_constraints=5, max_bound=8)
        solution = solve_branch_and_bound(problem, max_nodes=3)
        assert problem.is_feasible(solution.values)

    def test_gap_tolerance_not_marked_optimal(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, num_vars=8, max_bound=6)
        solution = solve_branch_and_bound(problem, gap_tolerance=0.05)
        assert not solution.optimal
        assert problem.is_feasible(solution.values)

    def test_scipy_lp_backend_agrees(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, num_vars=5, max_bound=4)
        a = solve_branch_and_bound(problem, use_scipy_lp=True)
        b = solve_branch_and_bound(problem, use_scipy_lp=False)
        assert a.objective == pytest.approx(b.objective, rel=1e-9)

    def test_invalid_gap(self):
        problem = BoundedIntegerProgram([1.0], [[1.0]], [1.0], [1])
        with pytest.raises(ValueError):
            solve_branch_and_bound(problem, gap_tolerance=-0.1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
    def test_property_optimal_at_least_greedy(self, num_vars, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, num_vars=num_vars, max_bound=3)
        greedy = solve_greedy(problem)
        bnb = solve_branch_and_bound(problem)
        assert bnb.objective >= greedy.objective - 1e-9


class TestGreedyAndRounding:
    def test_greedy_always_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            problem = random_problem(rng, num_vars=8, max_bound=6)
            solution = solve_greedy(problem)
            assert problem.is_feasible(solution.values)

    def test_greedy_skips_zero_value_variables(self):
        problem = BoundedIntegerProgram(
            objective=[0.0, 1.0],
            constraint_matrix=[[1.0, 1.0]],
            constraint_bounds=[3.0],
            upper_bounds=[3, 3],
        )
        solution = solve_greedy(problem)
        assert solution.values[0] == 0
        assert solution.values[1] == 3

    def test_round_lp_solution_feasible_and_at_least_floor(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            problem = random_problem(rng, num_vars=6, max_bound=6)
            lp = solve_lp_relaxation(problem)
            rounded = round_lp_solution(problem, lp.values)
            assert problem.is_feasible(rounded.values)
            floor_objective = problem.objective_value(np.floor(lp.values + 1e-9))
            assert rounded.objective >= floor_objective - 1e-9

    def test_round_lp_wrong_length(self):
        problem = BoundedIntegerProgram([1.0], [[1.0]], [1.0], [1])
        with pytest.raises(ValueError):
            round_lp_solution(problem, np.array([1.0, 2.0]))

    def test_near_optimal_quality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            problem = random_problem(rng, num_vars=5, max_bound=4)
            exact = solve_exhaustive(problem)
            near = solve_near_optimal(problem)
            assert problem.is_feasible(near.values)
            # On adversarial random instances the heuristic can lose a few
            # percent; experiment F6 quantifies the gap on realistic
            # scheduling instances (well under 1 %).
            assert near.objective >= 0.85 * exact.objective - 1e-9

    def test_near_optimal_sandwich(self):
        """greedy <= near-optimal <= optimal."""
        rng = np.random.default_rng(7)
        for _ in range(15):
            problem = random_problem(rng, num_vars=6, max_bound=5)
            greedy = solve_greedy(problem)
            near = solve_near_optimal(problem)
            optimal = solve_branch_and_bound(problem)
            assert greedy.objective <= near.objective + 1e-9
            assert near.objective <= optimal.objective + 1e-9


class TestBatchedParity:
    """The vectorized kernels must return the scalar oracles' assignments."""

    def test_all_backends_agree_with_scalar_oracles(self):
        rng = np.random.default_rng(20)
        problems = [
            random_problem(
                rng,
                num_vars=int(rng.integers(1, 10)),
                num_constraints=int(rng.integers(1, 6)),
            )
            for _ in range(30)
        ]
        # No resource rows: only the variable box limits a raise.
        problems.append(BoundedIntegerProgram([1.0, 2.0], np.zeros((0, 2)), [], [3, 1]))
        for problem in problems:
            greedy_s = oracle.solve_greedy(problem)
            greedy_b = solve_greedy(problem)
            assert np.array_equal(greedy_s.values, greedy_b.values)

            lp_s = oracle.solve_lp_relaxation(problem, use_scipy=False)
            lp_b = solve_lp_relaxation(problem, use_scipy=False)
            assert np.array_equal(lp_s.values, lp_b.values)

            round_s = oracle.round_lp_solution(problem, lp_s.values)
            round_b = round_lp_solution(problem, lp_b.values)
            assert np.array_equal(round_s.values, round_b.values)

            near_s = oracle.solve_near_optimal(problem)
            near_b = solve_near_optimal(problem)
            assert np.array_equal(near_s.values, near_b.values)

            bnb_s = oracle.solve_branch_and_bound(problem)
            bnb_b = solve_branch_and_bound(problem)
            assert np.array_equal(bnb_s.values, bnb_b.values)
            assert bnb_s.nodes_explored == bnb_b.nodes_explored

            if problem.search_space_size() <= 50_000:
                exhaustive_s = oracle.solve_exhaustive(problem)
                exhaustive_b = solve_exhaustive(problem)
                assert np.array_equal(exhaustive_s.values, exhaustive_b.values)
                assert exhaustive_s.nodes_explored == exhaustive_b.nodes_explored

    def test_simplex_scratch_reuse_across_boxes(self):
        """One scratch serving many node relaxations must not leak state."""
        rng = np.random.default_rng(21)
        problem = random_problem(rng, num_vars=6, num_constraints=4)
        scratch = SimplexScratch()
        boxes = []
        for _ in range(6):
            lo = rng.integers(0, 2, size=6).astype(float)
            hi = np.maximum(lo, rng.integers(1, 5, size=6).astype(float))
            boxes.append((lo, hi))
        shared = solve_children_lp(problem, boxes, scratch=scratch)
        for (lo, hi), solution in zip(boxes, shared):
            fresh = oracle.simplex_lp(problem, lo, hi)
            assert solution.status == fresh.status
            if solution.status == "optimal":
                assert np.array_equal(solution.values, fresh.values)

    def test_children_sweep_reports_crossed_bounds_infeasible(self):
        problem = BoundedIntegerProgram([1.0, 1.0], [[1.0, 1.0]], [4.0], [3, 3])
        children = solve_children_lp(
            problem,
            [
                (np.array([2.0, 0.0]), np.array([1.0, 3.0])),  # lo > hi
                (np.zeros(2), np.array([3.0, 3.0])),
            ],
        )
        assert children[0].status == "infeasible"
        assert children[1].status == "optimal"

    def test_max_increments_prune_is_safe_under_tight_resources(self):
        # A fully saturated constraint: every greedy step sees zero room.
        problem = BoundedIntegerProgram(
            objective=[2.0, 1.0, 3.0],
            constraint_matrix=[[1.0, 2.0, 1.0]],
            constraint_bounds=[0.0],
            upper_bounds=[4, 4, 4],
        )
        scalar = oracle.solve_greedy(problem)
        batched = solve_greedy(problem)
        assert np.array_equal(scalar.values, batched.values)
        assert np.all(batched.values == 0)


class TestNodeBudgetAndGap:
    """Node-budget exhaustion and gap-tolerance early-stop paths."""

    def _hard_problem(self):
        rng = np.random.default_rng(22)
        return random_problem(rng, num_vars=12, num_constraints=5, max_bound=8)

    @pytest.mark.parametrize("batched", [False, True])
    def test_node_budget_exhaustion_returns_incumbent(self, batched):
        solvers = SOLVERS[batched]
        problem = self._hard_problem()
        unbounded = solvers.solve_branch_and_bound(problem)
        assert unbounded.nodes_explored > 3  # the budget below really binds
        budget = 2
        solution = solvers.solve_branch_and_bound(problem, max_nodes=budget)
        assert not solution.optimal
        # The exhausting pop is counted before the loop breaks.
        assert solution.nodes_explored == budget + 1
        assert problem.is_feasible(solution.values)
        greedy = solvers.solve_greedy(problem)
        assert solution.objective >= greedy.objective - 1e-9

    @pytest.mark.parametrize("batched", [False, True])
    def test_gap_tolerance_early_stop_bounds_the_gap(self, batched):
        solvers = SOLVERS[batched]
        problem = self._hard_problem()
        exact = solvers.solve_branch_and_bound(problem)
        tolerance = 0.25
        relaxed = solvers.solve_branch_and_bound(problem, gap_tolerance=tolerance)
        assert not relaxed.optimal
        assert relaxed.nodes_explored <= exact.nodes_explored
        assert problem.is_feasible(relaxed.values)
        # The returned incumbent is within the accepted relative gap.
        assert relaxed.objective * (1.0 + tolerance) >= exact.objective - 1e-9

    def test_gap_tolerance_paths_agree(self):
        problem = self._hard_problem()
        scalar = oracle.solve_branch_and_bound(problem, gap_tolerance=0.1)
        batched = solve_branch_and_bound(problem, gap_tolerance=0.1)
        assert np.array_equal(scalar.values, batched.values)
        assert scalar.nodes_explored == batched.nodes_explored


class TestSolverAgreementSmallQ:
    """Randomized greedy / B&B / exhaustive agreement at small queue sizes."""

    def test_agreement_suite(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            num_vars = int(rng.integers(2, 7))
            problem = random_problem(rng, num_vars=num_vars, max_bound=3)
            exact = solve_exhaustive(problem)
            for solvers in SOLVERS.values():
                bnb = solvers.solve_branch_and_bound(problem)
                greedy = solvers.solve_greedy(problem)
                near = solvers.solve_near_optimal(problem)
                assert bnb.objective == pytest.approx(exact.objective, rel=1e-9, abs=1e-9)
                assert greedy.objective <= bnb.objective + 1e-9
                assert greedy.objective <= near.objective + 1e-9
                assert near.objective <= bnb.objective + 1e-9
                for solution in (bnb, greedy, near):
                    assert problem.is_feasible(solution.values)


class TestLpRelaxation:
    def test_lp_upper_bounds_integer_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            problem = random_problem(rng, num_vars=5, max_bound=4)
            lp = solve_lp_relaxation(problem)
            exact = solve_exhaustive(problem)
            assert lp.objective >= exact.objective - 1e-6

    def test_simplex_matches_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            problem = random_problem(rng, num_vars=7, num_constraints=4, max_bound=6)
            scipy_solution = solve_lp_relaxation(problem, use_scipy=True)
            own = simplex_lp(
                problem, np.zeros(problem.num_variables), problem.upper_bounds.astype(float)
            )
            assert own.objective == pytest.approx(scipy_solution.objective, rel=1e-7, abs=1e-7)

    def test_infeasible_branch_bounds(self):
        problem = BoundedIntegerProgram([1.0], [[1.0]], [1.0], [3])
        lp = solve_lp_relaxation(problem, lower_bounds=np.array([2.0]),
                                 upper_bounds=np.array([3.0]))
        assert lp.status == "infeasible"

    def test_lower_bounds_respected(self):
        problem = BoundedIntegerProgram(
            objective=[1.0, 10.0],
            constraint_matrix=[[1.0, 1.0]],
            constraint_bounds=[3.0],
            upper_bounds=[3, 3],
        )
        lp = solve_lp_relaxation(problem, lower_bounds=np.array([2.0, 0.0]))
        assert lp.values[0] >= 2.0 - 1e-9
        assert lp.objective == pytest.approx(12.0)

    def test_crossed_bounds_infeasible(self):
        problem = BoundedIntegerProgram([1.0], [[1.0]], [5.0], [3])
        lp = solve_lp_relaxation(problem, lower_bounds=np.array([3.0]),
                                 upper_bounds=np.array([1.0]))
        assert lp.status == "infeasible"


class TestSimplexIterationLimit:
    """The pivot-budget fallthrough raises instead of returning uncertified."""

    @staticmethod
    def _problem():
        # Needs at least one pivot: the origin is feasible but not optimal.
        return BoundedIntegerProgram(
            objective=[2.0, 3.0],
            constraint_matrix=[[1.0, 1.0]],
            constraint_bounds=[4.0],
            upper_bounds=[3, 3],
        )

    @pytest.mark.parametrize("batched", [False, True])
    def test_zero_budget_raises(self, batched):
        problem = self._problem()
        with pytest.raises(SimplexIterationLimitError, match="pivot budget"):
            SOLVERS[batched].simplex_lp(
                problem,
                np.zeros(2),
                problem.upper_bounds.astype(float),
                max_iterations=0,
            )

    @pytest.mark.parametrize("batched", [False, True])
    def test_sufficient_budget_certifies(self, batched):
        problem = self._problem()
        solution = SOLVERS[batched].simplex_lp(
            problem,
            np.zeros(2),
            problem.upper_bounds.astype(float),
            max_iterations=50,
        )
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(11.0)  # x = (1, 3)

    def test_near_optimal_falls_back_to_greedy(self, monkeypatch):
        # Simulate a degenerate cycling instance: the LP leg blows its pivot
        # budget and solve_near_optimal must return the greedy solution.
        import repro.opt.lp as lp_module

        problem = self._problem()
        expected = solve_greedy(problem)

        def exhausted(*args, **kwargs):
            raise SimplexIterationLimitError("simplex exhausted its pivot budget")

        monkeypatch.setattr(lp_module, "solve_lp_relaxation", exhausted)
        solution = solve_near_optimal(problem)
        assert np.array_equal(solution.values, expected.values)
        assert solution.objective == pytest.approx(expected.objective)

    def test_scheduler_degrades_to_greedy_decision(self, monkeypatch):
        from repro.mac.schedulers import jaba_sd as jaba_module
        from repro.mac.schedulers.jaba_sd import JabaSdScheduler

        problem = self._problem()
        expected = solve_greedy(problem)

        def exhausted(*args, **kwargs):
            raise SimplexIterationLimitError("simplex exhausted its pivot budget")

        monkeypatch.setattr(jaba_module, "solve_near_optimal", exhausted)
        scheduler = JabaSdScheduler("J1", solver="near-optimal")
        solution = scheduler._solve(problem)
        assert np.array_equal(solution.values, expected.values)
        assert solution.objective == pytest.approx(expected.objective)
