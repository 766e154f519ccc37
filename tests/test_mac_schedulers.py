"""Tests for the scheduling policies (JABA-SD and baselines)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MacConfig
from repro.mac.admission import SchedulingInput
from repro.mac.measurement import AdmissibleRegion
from repro.mac.objectives import ThroughputObjective
from repro.mac.requests import BurstRequest, LinkDirection
from repro.mac.schedulers import (
    EqualShareScheduler,
    FcfsScheduler,
    JabaSdScheduler,
    MaxMinFairScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    TemporalExtensionScheduler,
)
from repro.opt import BoundedIntegerProgram
from tests.oracles import opt as oracle


def make_problem(
    costs,
    bounds,
    delta_rho=None,
    upper=16,
    waiting=None,
    arrival_times=None,
    link=LinkDirection.FORWARD,
):
    """Build a SchedulingInput from a cost matrix (cells x requests)."""
    costs = np.asarray(costs, dtype=float)
    num_cells, num_requests = costs.shape
    requests = [
        BurstRequest(
            mobile_index=j,
            link=link,
            size_bits=1e7,
            arrival_time_s=(arrival_times[j] if arrival_times is not None else float(j)),
        )
        for j in range(num_requests)
    ]
    region = AdmissibleRegion(matrix=costs, bounds=np.asarray(bounds, dtype=float), link=link)
    delta_rho = (
        np.asarray(delta_rho, dtype=float)
        if delta_rho is not None
        else np.ones(num_requests)
    )
    upper_bounds = np.full(num_requests, upper, dtype=int)
    waiting = (
        np.asarray(waiting, dtype=float) if waiting is not None else np.zeros(num_requests)
    )
    return SchedulingInput(
        requests=requests,
        region=region,
        delta_rho=delta_rho,
        upper_bounds=upper_bounds,
        waiting_times_s=waiting,
        priorities=np.zeros(num_requests),
        config=MacConfig(),
        now_s=10.0,
    )


ALL_SCHEDULERS = [
    JabaSdScheduler("J1"),
    JabaSdScheduler("J2"),
    JabaSdScheduler("J1", solver="greedy"),
    JabaSdScheduler("J1", solver="optimal"),
    FcfsScheduler(),
    EqualShareScheduler(),
    RoundRobinScheduler(),
    TemporalExtensionScheduler(defer_threshold=2),
    ProportionalFairScheduler(),
    MaxMinFairScheduler(),
]


class TestAllSchedulersContract:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_feasible_and_bounded(self, scheduler):
        problem = make_problem(
            costs=[[1.0, 0.5, 2.0], [0.0, 1.0, 0.5]],
            bounds=[10.0, 8.0],
            delta_rho=[2.0, 1.0, 0.5],
        )
        decision = scheduler.assign(problem)
        assert decision.assignment.shape == (3,)
        assert np.all(decision.assignment >= 0)
        assert np.all(decision.assignment <= problem.upper_bounds)
        assert problem.region.admits(decision.assignment)

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_empty_request_list(self, scheduler):
        problem = make_problem(costs=np.zeros((2, 0)), bounds=[1.0, 1.0],
                               delta_rho=np.zeros(0))
        decision = scheduler.assign(problem)
        assert decision.assignment.shape == (0,)

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
    def test_zero_capacity_grants_nothing(self, scheduler):
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[0.0])
        decision = scheduler.assign(problem)
        assert np.all(decision.assignment == 0)


class TestJabaSd:
    def test_optimal_beats_or_matches_baselines(self):
        rng = np.random.default_rng(0)
        metric = ThroughputObjective()
        for _ in range(10):
            costs = rng.uniform(0.05, 1.0, size=(3, 6))
            costs[rng.random(costs.shape) < 0.5] = 0.0
            costs[0, costs.sum(axis=0) == 0.0] = 0.3  # every request costs something
            problem = make_problem(costs=costs, bounds=[4.0, 4.0, 4.0],
                                   delta_rho=rng.uniform(0.5, 3.0, 6))
            weights = metric.weights(problem.delta_rho, problem.priorities,
                                     problem.waiting_times_s, problem.config)
            optimal = JabaSdScheduler("J1", solver="optimal").assign(problem)
            for baseline in (FcfsScheduler(), EqualShareScheduler(),
                             JabaSdScheduler("J1", solver="greedy")):
                other = baseline.assign(problem)
                assert optimal.assignment @ weights >= other.assignment @ weights - 1e-9

    def test_near_optimal_close_to_optimal(self):
        rng = np.random.default_rng(1)
        metric = ThroughputObjective()
        for _ in range(10):
            costs = rng.uniform(0.05, 1.0, size=(3, 5))
            problem = make_problem(costs=costs, bounds=[5.0, 5.0, 5.0],
                                   delta_rho=rng.uniform(0.5, 3.0, 5))
            weights = metric.weights(problem.delta_rho, problem.priorities,
                                     problem.waiting_times_s, problem.config)
            optimal = JabaSdScheduler("J1", solver="optimal").assign(problem)
            near = JabaSdScheduler("J1", solver="near-optimal").assign(problem)
            assert near.assignment @ weights >= 0.95 * (optimal.assignment @ weights) - 1e-9

    def test_j1_prefers_good_channel_users(self):
        # Two requests with identical cost; one has twice the delta_rho.
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0], delta_rho=[2.0, 1.0])
        decision = JabaSdScheduler("J1", solver="optimal").assign(problem)
        assert decision.assignment[0] == 16
        assert decision.assignment[1] == 0

    def test_j2_boosts_long_waiting_request(self):
        config = MacConfig(delay_penalty_scale=5.0, delay_forgetting_factor=0.5)
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0],
                               delta_rho=[2.0, 1.0], waiting=[0.0, 20.0])
        problem.config = config
        j1 = JabaSdScheduler("J1", solver="optimal").assign(problem)
        j2 = JabaSdScheduler("J2", solver="optimal").assign(problem)
        # Under J1 the better-channel request takes everything; under J2 the
        # stale request wins because of its delay-penalty boost.
        assert j1.assignment[0] == 16 and j1.assignment[1] == 0
        assert j2.assignment[1] == 16 and j2.assignment[0] == 0

    def test_exhaustive_solver_small_instance(self):
        problem = make_problem(costs=[[1.0, 2.0]], bounds=[4.0], upper=3)
        decision = JabaSdScheduler("J1", solver="exhaustive").assign(problem)
        assert problem.region.admits(decision.assignment)
        assert decision.optimal

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            JabaSdScheduler("J3")
        with pytest.raises(ValueError):
            JabaSdScheduler("J1", solver="magic")
        with pytest.raises(ValueError):
            JabaSdScheduler("J1", max_nodes=0)


class TestJabaSdBatchedAndWarmStart:
    """JABA-SD's vectorized solver back-ends against the scalar oracles."""

    def _problem(self, seed=3, num_requests=6):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.05, 1.0, size=(3, num_requests))
        costs[rng.random(costs.shape) < 0.4] = 0.0
        costs[0, costs.sum(axis=0) == 0.0] = 0.3
        return make_problem(
            costs=costs,
            bounds=[5.0, 4.0, 6.0],
            delta_rho=rng.uniform(0.5, 3.0, num_requests),
        )

    @pytest.mark.parametrize("solver", ["greedy", "near-optimal", "optimal", "exhaustive"])
    def test_scalar_oracle_matches_batched_default(self, solver):
        upper = 2 if solver == "exhaustive" else 16
        problem = self._problem()
        problem.upper_bounds = np.full(len(problem.requests), upper, dtype=int)
        scheduler = JabaSdScheduler("J1", solver=solver)
        batched = scheduler.assign(problem)
        ip = BoundedIntegerProgram(
            objective=scheduler.objective.weights(
                problem.delta_rho,
                problem.priorities,
                problem.waiting_times_s,
                problem.config,
            ),
            constraint_matrix=problem.region.matrix,
            constraint_bounds=problem.region.bounds,
            upper_bounds=problem.upper_bounds,
        )
        scalar = {
            "greedy": oracle.solve_greedy,
            "near-optimal": oracle.solve_near_optimal,
            "optimal": lambda program: oracle.solve_branch_and_bound(
                program, max_nodes=scheduler.max_nodes
            ),
            "exhaustive": oracle.solve_exhaustive,
        }[solver](ip)
        assert np.array_equal(batched.assignment, scalar.values)


class TestFcfs:
    def test_serves_in_arrival_order(self):
        # The head-of-line request exhausts the single resource.
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0],
                               arrival_times=[5.0, 1.0])
        decision = FcfsScheduler().assign(problem)
        # Request 1 arrived first and takes everything.
        assert decision.assignment[1] == 16
        assert decision.assignment[0] == 0

    def test_head_of_line_blocking(self):
        """An expensive head-of-line user starves a cheaper later one."""
        problem = make_problem(costs=[[4.0, 0.1]], bounds=[16.0],
                               arrival_times=[0.0, 1.0], upper=16)
        decision = FcfsScheduler().assign(problem)
        assert decision.assignment[0] == 4      # 4 units * cost 4 = 16, all gone
        assert decision.assignment[1] == 0


class TestEqualShare:
    def test_equal_assignment_when_symmetric(self):
        problem = make_problem(costs=[[1.0, 1.0, 1.0, 1.0]], bounds=[8.0], upper=16)
        decision = EqualShareScheduler(redistribute_slack=False).assign(problem)
        assert np.all(decision.assignment == 2)

    def test_slack_redistribution(self):
        problem = make_problem(costs=[[1.0, 1.0, 1.0]], bounds=[8.0], upper=16)
        decision = EqualShareScheduler(redistribute_slack=True).assign(problem)
        assert decision.assignment.sum() == 8
        assert decision.assignment.max() - decision.assignment.min() <= 1

    def test_respects_individual_upper_bounds(self):
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[20.0], upper=16)
        problem.upper_bounds = np.array([2, 16])
        decision = EqualShareScheduler().assign(problem)
        assert decision.assignment[0] <= 2
        assert problem.region.admits(decision.assignment)


class TestRoundRobin:
    def test_rotation_changes_head_of_line(self):
        scheduler = RoundRobinScheduler()
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0])
        first = scheduler.assign(problem)
        second = scheduler.assign(problem)
        assert first.assignment[0] == 16 and first.assignment[1] == 0
        assert second.assignment[1] == 16 and second.assignment[0] == 0


class TestProportionalFair:
    def test_first_frame_prefers_good_channel_users(self):
        # With no service history every average is at the floor, so priority
        # reduces to delta_rho: the better-channel user is served first.
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0], delta_rho=[2.0, 1.0])
        decision = ProportionalFairScheduler().assign(problem)
        assert decision.assignment[0] == 16
        assert decision.assignment[1] == 0

    def test_starved_user_overtakes_after_repeated_service(self):
        # Same instance each frame; the repeatedly-served user's throughput
        # average grows until the starved user's priority overtakes it.
        scheduler = ProportionalFairScheduler(time_constant_frames=2)
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0], delta_rho=[2.0, 1.0])
        winners = []
        for _ in range(6):
            decision = scheduler.assign(problem)
            winners.append(int(np.argmax(decision.assignment)))
        assert winners[0] == 0  # best channel wins the first frame
        assert 1 in winners  # ...but the other user is eventually served

    def test_reset_history_restores_first_frame_behaviour(self):
        scheduler = ProportionalFairScheduler(time_constant_frames=2)
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0], delta_rho=[2.0, 1.0])
        first = scheduler.assign(problem)
        for _ in range(5):
            scheduler.assign(problem)
        scheduler.reset_history()
        again = scheduler.assign(problem)
        assert np.array_equal(first.assignment, again.assignment)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(time_constant_frames=0)


class TestMaxMinFair:
    def test_symmetric_instance_splits_evenly(self):
        problem = make_problem(costs=[[1.0, 1.0, 1.0, 1.0]], bounds=[8.0], upper=16)
        decision = MaxMinFairScheduler().assign(problem)
        assert decision.assignment.sum() == 8
        assert decision.assignment.max() - decision.assignment.min() <= 1

    def test_no_starvation_where_fcfs_starves(self):
        # FCFS gives everything to the head-of-line request; max-min serves
        # both users, lifting the minimum allocation.
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[16.0],
                               arrival_times=[1.0, 5.0])
        fcfs = FcfsScheduler().assign(problem)
        maxmin = MaxMinFairScheduler().assign(problem)
        assert fcfs.assignment.min() == 0
        assert maxmin.assignment.min() > fcfs.assignment.min()

    def test_expensive_user_freezes_cheap_user_keeps_filling(self):
        # User 0 costs 4x as much: it binds early while user 1 keeps growing.
        problem = make_problem(costs=[[4.0, 1.0]], bounds=[16.0], upper=16)
        decision = MaxMinFairScheduler().assign(problem)
        assert problem.region.admits(decision.assignment)
        assert decision.assignment[1] >= decision.assignment[0]
        assert decision.assignment.sum() > 2  # slack reinvested, not wasted

    def test_respects_individual_upper_bounds(self):
        problem = make_problem(costs=[[1.0, 1.0]], bounds=[20.0], upper=16)
        problem.upper_bounds = np.array([2, 16])
        decision = MaxMinFairScheduler().assign(problem)
        assert decision.assignment[0] <= 2
        assert problem.region.admits(decision.assignment)


class TestTemporalExtension:
    def test_small_grants_are_deferred_and_capacity_reinvested(self):
        # Two requests; capacity only allows a small grant for the expensive one.
        base = JabaSdScheduler("J1", solver="optimal")
        scheduler = TemporalExtensionScheduler(base=base, defer_threshold=4)
        problem = make_problem(costs=[[1.0, 3.0]], bounds=[18.0],
                               delta_rho=[1.0, 1.0], upper=16)
        decision = scheduler.assign(problem)
        # The optimal spatial solution is (16, 0 or small); any grant below the
        # threshold must have been zeroed.
        assert np.all((decision.assignment == 0) | (decision.assignment >= 4))
        assert problem.region.admits(decision.assignment)

    def test_deferral_is_bounded(self):
        scheduler = TemporalExtensionScheduler(defer_threshold=100, max_defer_frames=2)
        problem = make_problem(costs=[[1.0]], bounds=[8.0], upper=8)
        # The same request keeps being deferred at most twice.
        first = scheduler.assign(problem)
        second = scheduler.assign(problem)
        third = scheduler.assign(problem)
        assert first.assignment[0] == 0
        assert second.assignment[0] == 0
        assert third.assignment[0] > 0

    def test_zero_threshold_equals_base(self):
        base = JabaSdScheduler("J1", solver="optimal")
        wrapper = TemporalExtensionScheduler(base=JabaSdScheduler("J1", solver="optimal"),
                                             defer_threshold=0)
        problem = make_problem(costs=[[1.0, 0.5]], bounds=[8.0], delta_rho=[1.0, 2.0])
        assert np.array_equal(wrapper.assign(problem).assignment,
                              base.assign(problem).assignment)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TemporalExtensionScheduler(defer_threshold=-1)
        with pytest.raises(ValueError):
            TemporalExtensionScheduler(max_defer_frames=0)


@settings(max_examples=20, deadline=None)
@given(
    num_requests=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_all_schedulers_feasible(num_requests, seed):
    """Every scheduler must always return an admissible assignment."""
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.0, 1.0, size=(3, num_requests))
    bounds = rng.uniform(0.5, 6.0, size=3)
    problem = make_problem(costs=costs, bounds=bounds,
                           delta_rho=rng.uniform(0.1, 3.0, num_requests))
    for scheduler in (JabaSdScheduler("J1"), FcfsScheduler(), EqualShareScheduler(),
                      TemporalExtensionScheduler(), ProportionalFairScheduler(),
                      MaxMinFairScheduler()):
        decision = scheduler.assign(problem)
        assert problem.region.admits(decision.assignment)
        assert np.all(decision.assignment <= problem.upper_bounds)
