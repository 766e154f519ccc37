"""Tests for the measurement sub-layer (admissible regions).

The parity tests compare the queue-wide builders with the per-request
references in :mod:`tests.oracles.measurement`.
"""

import numpy as np
import pytest

from repro.cdma.handoff import ActiveSetState
from repro.cdma.loading import ForwardLinkLoad, ReverseLinkLoad
from repro.cdma.network import NetworkSnapshot
from repro.mac.measurement import (
    AdmissibleRegion,
    ForwardLinkMeasurement,
    ReverseLinkMeasurement,
    relative_path_loss,
)
from repro.mac.requests import BurstRequest, LinkDirection
from tests.oracles.measurement import forward_build, reverse_build
from tests.test_cdma_network import build_network


@pytest.fixture(scope="module")
def snapshot_and_config():
    network, config = build_network(num_data=8, num_voice=6, seed=5)
    network.advance(0.5)
    return network.snapshot(), config


def make_requests(link, mobiles):
    return [
        BurstRequest(mobile_index=j, link=link, size_bits=200_000.0)
        for j in mobiles
    ]


class TestAdmissibleRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissibleRegion(matrix=np.ones(3), bounds=np.ones(3),
                             link=LinkDirection.FORWARD)
        with pytest.raises(ValueError):
            AdmissibleRegion(matrix=np.ones((2, 3)), bounds=np.ones(3),
                             link=LinkDirection.FORWARD)
        with pytest.raises(ValueError):
            AdmissibleRegion(matrix=-np.ones((2, 3)), bounds=np.ones(2),
                             link=LinkDirection.FORWARD)

    def test_negative_bounds_clamped(self):
        region = AdmissibleRegion(matrix=np.ones((1, 2)), bounds=np.array([-1.0]),
                                  link=LinkDirection.FORWARD)
        assert region.bounds[0] == 0.0

    def test_admits_and_usage(self):
        region = AdmissibleRegion(
            matrix=np.array([[1.0, 2.0], [0.5, 0.0]]),
            bounds=np.array([4.0, 1.0]),
            link=LinkDirection.FORWARD,
        )
        assert region.admits(np.array([2, 1]))
        assert not region.admits(np.array([3, 1]))
        assert np.allclose(region.resource_usage(np.array([2, 1])), [4.0, 1.0])
        with pytest.raises(ValueError):
            region.admits(np.array([1, 2, 3]))


class TestRelativePathLoss:
    def test_ratio_of_pilot_strengths(self):
        pilots = np.array([0.05, 0.01, 0.002])
        assert relative_path_loss(pilots, host_cell=0, neighbor_cell=1) == pytest.approx(0.2)
        assert relative_path_loss(pilots, host_cell=0, neighbor_cell=2) == pytest.approx(0.04)

    def test_host_must_be_positive(self):
        with pytest.raises(ValueError):
            relative_path_loss(np.array([0.0, 0.1]), 0, 1)


class TestForwardLinkMeasurement:
    def test_region_shape_and_sign(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        measurement = ForwardLinkMeasurement(config.phy, config.mac)
        requests = make_requests(LinkDirection.FORWARD, range(5))
        region = measurement.build(snapshot, requests)
        assert region.matrix.shape == (snapshot.num_cells, 5)
        assert np.all(region.matrix >= 0.0)
        assert np.all(region.bounds >= 0.0)
        assert region.link is LinkDirection.FORWARD

    def test_costs_only_in_reduced_active_set(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        measurement = ForwardLinkMeasurement(config.phy, config.mac)
        requests = make_requests(LinkDirection.FORWARD, range(5))
        region = measurement.build(snapshot, requests)
        for column, request in enumerate(requests):
            reduced = set(snapshot.handoff_states[request.mobile_index].reduced_active_set)
            nonzero = set(np.nonzero(region.matrix[:, column])[0].tolist())
            assert nonzero.issubset(reduced)
            assert len(nonzero) >= 1

    def test_cost_scales_with_gamma_s(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        requests = make_requests(LinkDirection.FORWARD, range(4))
        base = ForwardLinkMeasurement(config.phy, config.mac).build(snapshot, requests)
        from dataclasses import replace
        doubled_phy = replace(config.phy, gamma_s_forward=2.0 * config.phy.gamma_s_forward)
        doubled = ForwardLinkMeasurement(doubled_phy, config.mac).build(snapshot, requests)
        assert np.allclose(doubled.matrix, 2.0 * base.matrix)

    def test_bounds_follow_admission_margin(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        requests = make_requests(LinkDirection.FORWARD, range(3))
        region = ForwardLinkMeasurement(config.phy, config.mac).build(snapshot, requests)
        expected = snapshot.forward_load.headroom_w() * config.mac.forward_admission_margin
        assert np.allclose(region.bounds, np.maximum(expected, 0.0))

    def test_rejects_wrong_link(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        measurement = ForwardLinkMeasurement(config.phy, config.mac)
        with pytest.raises(ValueError):
            measurement.build(snapshot, make_requests(LinkDirection.REVERSE, [0]))


class TestReverseLinkMeasurement:
    def test_region_shape_and_sign(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        measurement = ReverseLinkMeasurement(config.phy, config.mac)
        requests = make_requests(LinkDirection.REVERSE, range(5))
        region = measurement.build(snapshot, requests)
        assert region.matrix.shape == (snapshot.num_cells, 5)
        assert np.all(region.matrix >= 0.0)
        assert np.all(region.bounds >= 0.0)
        assert region.link is LinkDirection.REVERSE

    def test_host_cell_cost_positive(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        measurement = ReverseLinkMeasurement(config.phy, config.mac)
        requests = make_requests(LinkDirection.REVERSE, range(5))
        region = measurement.build(snapshot, requests)
        for column, request in enumerate(requests):
            host = snapshot.handoff_states[request.mobile_index].serving_cell
            assert region.matrix[host, column] > 0.0

    def test_neighbor_projection_uses_margin(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        requests = make_requests(LinkDirection.REVERSE, range(6))
        from dataclasses import replace
        base_mac = replace(config.mac, neighbor_margin=1.0)
        big_mac = replace(config.mac, neighbor_margin=3.0)
        base = ReverseLinkMeasurement(config.phy, base_mac).build(snapshot, requests)
        inflated = ReverseLinkMeasurement(config.phy, big_mac).build(snapshot, requests)
        # Soft hand-off rows are identical; non-soft-hand-off neighbour rows scale.
        for column, request in enumerate(requests):
            in_handoff = set(snapshot.handoff_states[request.mobile_index].active_set)
            for k in range(snapshot.num_cells):
                if k in in_handoff:
                    assert inflated.matrix[k, column] == pytest.approx(base.matrix[k, column])
                elif base.matrix[k, column] > 0:
                    assert inflated.matrix[k, column] == pytest.approx(
                        3.0 * base.matrix[k, column]
                    )

    def test_scrm_limits_constrained_neighbors(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        requests = make_requests(LinkDirection.REVERSE, range(4))
        tight = ReverseLinkMeasurement(config.phy, config.mac, scrm_max_pilots=1).build(
            snapshot, requests
        )
        loose = ReverseLinkMeasurement(config.phy, config.mac, scrm_max_pilots=8).build(
            snapshot, requests
        )
        # Reporting more pilots can only add constrained cells.
        assert np.count_nonzero(tight.matrix) <= np.count_nonzero(loose.matrix)

    def test_rejects_wrong_link(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        measurement = ReverseLinkMeasurement(config.phy, config.mac)
        with pytest.raises(ValueError):
            measurement.build(snapshot, make_requests(LinkDirection.FORWARD, [0]))

    def test_invalid_scrm_size(self, snapshot_and_config):
        _, config = snapshot_and_config
        with pytest.raises(ValueError):
            ReverseLinkMeasurement(config.phy, config.mac, scrm_max_pilots=0)


# ---------------------------------------------------------------------------
# batched-vs-scalar parity
# ---------------------------------------------------------------------------
def synthetic_snapshot(
    rng,
    num_cells,
    num_mobiles,
    zero_fch_fraction=0.0,
    zero_host_pilot_fraction=0.0,
    pilot_tie_levels=None,
    with_membership_matrices=False,
):
    """A hand-built snapshot with controllable pathologies.

    ``pilot_tie_levels`` quantises the forward pilot strengths to a few
    discrete values, forcing ties at the SCRM top-``scrm_max_pilots``
    selection boundary; ``zero_fch_fraction`` zeroes random FCH legs;
    ``zero_host_pilot_fraction`` zeroes the host-cell forward pilot of random
    mobiles (deep shadowing).
    """
    states = []
    for _ in range(num_mobiles):
        size = int(rng.integers(1, min(num_cells, 4) + 1))
        cells = [int(c) for c in rng.choice(num_cells, size=size, replace=False)]
        states.append(
            ActiveSetState(
                active_set=cells,
                reduced_active_set=cells[:2],
                serving_cell=cells[0],
            )
        )
    serving = np.asarray([s.serving_cell for s in states], dtype=int)

    fch_power = rng.uniform(0.05, 2.0, size=(num_mobiles, num_cells))
    if zero_fch_fraction > 0.0:
        fch_power[rng.random(fch_power.shape) < zero_fch_fraction] = 0.0
    forward_load = ForwardLinkLoad(
        max_traffic_power_w=rng.uniform(10.0, 20.0, size=num_cells),
        current_power_w=rng.uniform(0.0, 15.0, size=num_cells),
        fch_power_w=fch_power,
    )

    if pilot_tie_levels is not None:
        t_fl = rng.choice(pilot_tie_levels, size=(num_mobiles, num_cells))
    else:
        t_fl = rng.uniform(0.0, 0.05, size=(num_mobiles, num_cells))
    if zero_host_pilot_fraction > 0.0:
        shadowed = rng.random(num_mobiles) < zero_host_pilot_fraction
        t_fl[shadowed, serving[shadowed]] = 0.0
    reverse_load = ReverseLinkLoad(
        max_interference_w=rng.uniform(5e-13, 1e-12, size=num_cells),
        current_interference_w=rng.uniform(1e-13, 6e-13, size=num_cells),
        reverse_pilot_strength=rng.uniform(1e-4, 5e-2, size=(num_mobiles, num_cells)),
        forward_pilot_strength=t_fl,
        fch_pilot_power_ratio=rng.uniform(2.0, 6.0, size=num_mobiles),
    )

    snapshot = NetworkSnapshot(
        time_s=0.0,
        gains=np.zeros((num_mobiles, num_cells)),
        forward_load=forward_load,
        reverse_load=reverse_load,
        handoff_states=states,
        serving_cells=serving,
        sch_mean_csi_forward=rng.uniform(0.0, 40.0, size=num_mobiles),
        sch_mean_csi_reverse=rng.uniform(0.0, 40.0, size=num_mobiles),
        forward_pc=None,
        reverse_pc=None,
    )
    if with_membership_matrices:
        snapshot.active_membership()
        snapshot.reduced_membership()
    return snapshot


def random_queue(rng, num_mobiles, link, max_length=40):
    length = int(rng.integers(0, max_length + 1))
    return [
        BurstRequest(mobile_index=int(j), link=link, size_bits=200_000.0)
        for j in rng.integers(0, num_mobiles, size=length)
    ]


def assert_regions_identical(scalar_region, batched_region):
    assert scalar_region.matrix.shape == batched_region.matrix.shape
    assert np.array_equal(scalar_region.matrix, batched_region.matrix)
    assert np.array_equal(scalar_region.bounds, batched_region.bounds)
    assert scalar_region.link is batched_region.link


class TestBatchedScalarParity:
    """Property-style suite: the batched kernels are bit-identical oracles."""

    @pytest.mark.parametrize("seed", range(12))
    def test_randomised_snapshots(self, seed, small_config):
        rng = np.random.default_rng(1000 + seed)
        num_cells = int(rng.integers(3, 20))
        num_mobiles = int(rng.integers(1, 40))
        snapshot = synthetic_snapshot(
            rng,
            num_cells,
            num_mobiles,
            zero_fch_fraction=float(rng.choice([0.0, 0.3])),
            zero_host_pilot_fraction=float(rng.choice([0.0, 0.25])),
            pilot_tie_levels=(
                [0.0, 0.005, 0.01, 0.02] if seed % 2 == 0 else None
            ),
            with_membership_matrices=bool(seed % 3 == 0),
        )
        config = small_config
        scrm = int(rng.integers(1, 9))
        fwd_requests = random_queue(rng, num_mobiles, LinkDirection.FORWARD)
        rev_requests = random_queue(rng, num_mobiles, LinkDirection.REVERSE)

        fwd = ForwardLinkMeasurement(config.phy, config.mac)
        assert_regions_identical(
            forward_build(fwd, snapshot, fwd_requests),
            fwd.build(snapshot, fwd_requests),
        )

        rev = ReverseLinkMeasurement(config.phy, config.mac, scrm_max_pilots=scrm)
        assert_regions_identical(
            reverse_build(rev, snapshot, rev_requests),
            rev.build(snapshot, rev_requests),
        )

    def test_real_network_snapshot(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        rng = np.random.default_rng(99)
        forward = ForwardLinkMeasurement(config.phy, config.mac)
        reverse = ReverseLinkMeasurement(config.phy, config.mac)
        for _ in range(3):
            fwd = random_queue(rng, snapshot.num_mobiles, LinkDirection.FORWARD)
            rev = random_queue(rng, snapshot.num_mobiles, LinkDirection.REVERSE)
            assert_regions_identical(
                forward_build(forward, snapshot, fwd), forward.build(snapshot, fwd)
            )
            assert_regions_identical(
                reverse_build(reverse, snapshot, rev), reverse.build(snapshot, rev)
            )

    def test_empty_queue(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        for cls, oracle_build in (
            (ForwardLinkMeasurement, forward_build),
            (ReverseLinkMeasurement, reverse_build),
        ):
            builder = cls(config.phy, config.mac)
            scalar = oracle_build(builder, snapshot, [])
            batched = builder.build(snapshot, [])
            assert batched.matrix.shape == (snapshot.num_cells, 0)
            assert_regions_identical(scalar, batched)

    def test_batched_rejects_wrong_link(self, snapshot_and_config):
        snapshot, config = snapshot_and_config
        with pytest.raises(ValueError):
            ForwardLinkMeasurement(config.phy, config.mac).build(
                snapshot, make_requests(LinkDirection.REVERSE, [0])
            )
        with pytest.raises(ValueError):
            ReverseLinkMeasurement(config.phy, config.mac).build(
                snapshot, make_requests(LinkDirection.FORWARD, [0])
            )

    def test_membership_matrices_match_states(self, snapshot_and_config):
        # The matrices the network attaches to its snapshots agree with the
        # lazily-materialised fallback used for hand-built snapshots.
        snapshot, _ = snapshot_and_config
        provided_active = snapshot.active_membership()
        provided_reduced = snapshot.reduced_membership()
        fallback = NetworkSnapshot(
            time_s=snapshot.time_s,
            gains=snapshot.gains,
            forward_load=snapshot.forward_load,
            reverse_load=snapshot.reverse_load,
            handoff_states=snapshot.handoff_states,
            serving_cells=snapshot.serving_cells,
            sch_mean_csi_forward=snapshot.sch_mean_csi_forward,
            sch_mean_csi_reverse=snapshot.sch_mean_csi_reverse,
            forward_pc=snapshot.forward_pc,
            reverse_pc=snapshot.reverse_pc,
        )
        assert np.array_equal(provided_active, fallback.active_membership())
        assert np.array_equal(provided_reduced, fallback.reduced_membership())


class TestZeroHostPilotRegression:
    """A deep-shadowed mobile (zero host-cell forward pilot) must not crash."""

    @pytest.fixture()
    def shadowed_snapshot(self):
        rng = np.random.default_rng(7)
        snapshot = synthetic_snapshot(rng, num_cells=7, num_mobiles=6)
        # Mobile 0: zero forward pilot at its own serving cell.
        host = int(snapshot.serving_cells[0])
        snapshot.reverse_load.forward_pilot_strength[0, :] = 0.02
        snapshot.reverse_load.forward_pilot_strength[0, host] = 0.0
        return snapshot, host

    @pytest.mark.parametrize("batched", [False, True])
    def test_build_does_not_raise(self, shadowed_snapshot, small_config, batched):
        # batched=False runs the per-request oracle, True the production kernel.
        snapshot, host = shadowed_snapshot
        requests = make_requests(LinkDirection.REVERSE, [0])
        builder = ReverseLinkMeasurement(small_config.phy, small_config.mac)
        region = (
            builder.build(snapshot, requests)
            if batched
            else reverse_build(builder, snapshot, requests)
        )
        # Soft-hand-off cells are still constrained through the reverse
        # pilot; the projected (non-soft-hand-off) cells stay unconstrained.
        soft = set(snapshot.handoff_states[0].active_set)
        for k in range(snapshot.num_cells):
            if k in soft:
                assert region.matrix[k, 0] > 0.0
            else:
                assert region.matrix[k, 0] == 0.0

    def test_paths_agree(self, shadowed_snapshot, small_config):
        snapshot, _ = shadowed_snapshot
        requests = make_requests(LinkDirection.REVERSE, [0, 1, 2])
        builder = ReverseLinkMeasurement(small_config.phy, small_config.mac)
        assert_regions_identical(
            reverse_build(builder, snapshot, requests),
            builder.build(snapshot, requests),
        )

    def test_relative_path_loss_still_guards(self):
        # The public eq. (14) helper keeps rejecting non-positive hosts; the
        # builders guard before calling it.
        with pytest.raises(ValueError):
            relative_path_loss(np.array([0.0, 0.1]), 0, 1)
