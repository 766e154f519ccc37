"""Tests for the burst admission controller (measurement + scheduling + grants)."""

import numpy as np
import pytest

from repro.mac.admission import BurstAdmissionController
from repro.mac.requests import BurstRequest, LinkDirection
from repro.mac.schedulers import FcfsScheduler, JabaSdScheduler
from tests.oracles.measurement import delta_rho, forward_build, reverse_build
from tests.test_cdma_network import build_network


@pytest.fixture(scope="module")
def environment():
    network, config = build_network(num_data=8, num_voice=6, seed=11)
    network.advance(0.5)
    return network, network.snapshot(), config


def forward_requests(count, size_bits=300_000.0, arrival=0.0):
    return [
        BurstRequest(mobile_index=j, link=LinkDirection.FORWARD,
                     size_bits=size_bits, arrival_time_s=arrival)
        for j in range(count)
    ]


class TestBuildInput:
    def test_input_consistency(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        requests = forward_requests(6)
        problem = controller.build_input(snapshot, requests, LinkDirection.FORWARD)
        assert len(problem.requests) == 6
        assert problem.region.num_requests == 6
        assert problem.delta_rho.shape == (6,)
        assert problem.upper_bounds.shape == (6,)
        assert np.all(problem.upper_bounds <= config.mac.max_spreading_gain_ratio)
        assert np.all(problem.delta_rho >= 0.0)
        assert np.all(problem.waiting_times_s >= 0.0)

    def test_waiting_time_includes_setup_penalty(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        stale = [
            BurstRequest(mobile_index=0, link=LinkDirection.FORWARD,
                         size_bits=1e5, arrival_time_s=snapshot.time_s - 10.0)
        ]
        problem = controller.build_input(snapshot, stale, LinkDirection.FORWARD)
        # 10 s of waiting exceeds T3, so D2 is added on top of the raw wait.
        assert problem.waiting_times_s[0] == pytest.approx(10.0 + config.mac.d2_penalty_s)

    def test_wrong_link_rejected(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        with pytest.raises(ValueError):
            controller.build_input(snapshot, forward_requests(2), LinkDirection.REVERSE)

    @pytest.mark.parametrize("link", [LinkDirection.FORWARD, LinkDirection.REVERSE])
    def test_batched_assembly_matches_scalar_oracle(self, environment, link):
        # The queue-wide parts of the scheduling problem — region, delta_rho
        # and the upper bounds derived from it — are bit-identical to the
        # per-request oracles, for a full and for an empty queue.
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        builder, oracle_build = (
            (controller.forward_measurement, forward_build)
            if link is LinkDirection.FORWARD
            else (controller.reverse_measurement, reverse_build)
        )
        requests = [
            BurstRequest(mobile_index=j % snapshot.num_mobiles, link=link,
                         size_bits=250_000.0, arrival_time_s=-0.5 * j)
            for j in range(9)
        ]
        for queue in (requests, []):
            problem = controller.build_input(snapshot, queue, link)
            region = oracle_build(builder, snapshot, queue)
            rho = delta_rho(controller, snapshot, queue)
            assert np.array_equal(problem.region.matrix, region.matrix)
            assert np.array_equal(problem.region.bounds, region.bounds)
            assert problem.delta_rho.dtype == rho.dtype == np.float64
            assert np.array_equal(problem.delta_rho, rho)
            if queue:
                sizes = np.array([r.remaining_bits for r in queue])
                assert np.array_equal(
                    problem.upper_bounds,
                    controller.duration_constraint.upper_bounds(sizes, rho),
                )


class TestDecide:
    @pytest.mark.parametrize("scheduler_factory", [lambda: JabaSdScheduler("J1"),
                                                   FcfsScheduler])
    def test_grants_are_consistent(self, environment, scheduler_factory):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, scheduler_factory())
        requests = forward_requests(6)
        decision, grants = controller.decide(snapshot, requests, LinkDirection.FORWARD)
        granted_ids = {g.request.request_id for g in grants}
        assert len(granted_ids) == len(grants)
        for grant in grants:
            column = requests.index(grant.request)
            assert grant.m == decision.assignment[column]
            assert grant.m >= 1
            # Rate = m * delta_rho * Rf.
            assert grant.rate_bps > 0.0
            # Duration is a positive whole number of frames within the cap.
            frames = grant.duration_s / config.mac.frame_duration_s
            assert frames == pytest.approx(round(frames))
            assert grant.duration_s <= config.mac.max_burst_duration_s + 1e-9
            assert grant.bits_to_serve <= grant.request.remaining_bits + 1e-6
            # Forward grants commit forward power only.
            assert grant.forward_power_w and not grant.reverse_power_w
            assert all(power > 0.0 for power in grant.forward_power_w.values())

    def test_committed_power_matches_region_columns(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        requests = forward_requests(5)
        problem = controller.build_input(snapshot, requests, LinkDirection.FORWARD)
        decision, grants = controller.decide(snapshot, requests, LinkDirection.FORWARD)
        for grant in grants:
            column = requests.index(grant.request)
            expected = problem.region.matrix[:, column] * grant.m
            for cell, power in grant.forward_power_w.items():
                assert power == pytest.approx(expected[cell])

    def test_total_commitment_within_headroom(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        requests = forward_requests(8, size_bits=2e6)
        _, grants = controller.decide(snapshot, requests, LinkDirection.FORWARD)
        committed = np.zeros(snapshot.num_cells)
        for grant in grants:
            for cell, power in grant.forward_power_w.items():
                committed[cell] += power
        headroom = snapshot.forward_load.headroom_w() * config.mac.forward_admission_margin
        assert np.all(committed <= headroom * (1 + 1e-6))

    def test_reverse_link_grants(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        requests = [
            BurstRequest(mobile_index=j, link=LinkDirection.REVERSE, size_bits=4e5)
            for j in range(5)
        ]
        _, grants = controller.decide(snapshot, requests, LinkDirection.REVERSE)
        assert grants, "light reverse load should admit at least one burst"
        committed = np.zeros(snapshot.num_cells)
        for grant in grants:
            assert grant.reverse_power_w and not grant.forward_power_w
            for cell, power in grant.reverse_power_w.items():
                committed[cell] += power
        headroom = snapshot.reverse_load.headroom_w() * config.mac.reverse_admission_margin
        assert np.all(committed <= headroom * (1 + 1e-6))

    def test_small_request_gets_short_burst(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        tiny = [BurstRequest(mobile_index=0, link=LinkDirection.FORWARD, size_bits=5000.0)]
        _, grants = controller.decide(snapshot, tiny, LinkDirection.FORWARD)
        assert len(grants) == 1
        grant = grants[0]
        # Eq. (24) keeps the assigned rate low enough that the burst lasts
        # about the minimum useful duration (and not longer), and the single
        # grant drains the whole packet call.
        assert grant.duration_s <= (
            config.mac.min_burst_duration_s + 2 * config.mac.frame_duration_s + 1e-9
        )
        assert grant.bits_to_serve == pytest.approx(5000.0)

    def test_empty_request_list(self, environment):
        _, snapshot, config = environment
        controller = BurstAdmissionController(config, JabaSdScheduler("J1"))
        decision, grants = controller.decide(snapshot, [], LinkDirection.FORWARD)
        assert grants == []
        assert decision.assignment.shape == (0,)
