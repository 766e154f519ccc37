"""Tests for the assembled CDMA network substrate."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.cdma.entities import MobileStation, UserClass
from repro.cdma.network import CdmaNetwork
from repro.config import SystemConfig
from repro.experiments.common import paper_scenario
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import FleetMemberMobility, RandomDirectionFleet
from repro.mac.measurement import ForwardLinkMeasurement, ReverseLinkMeasurement
from repro.mac.requests import BurstRequest, LinkDirection
from repro.mac.schedulers import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator
from tests.oracles.mobility import RandomDirectionMobility
from tests.oracles.snapshot import eager_measurements
from tests.test_fleet_parity import fleet_scenario


def build_network(num_data=6, num_voice=6, seed=0, config=None, moving=False):
    """A small network of static mobiles, or of fleet-moved users if ``moving``.

    A moving network is built as :class:`DynamicSystemSimulator` builds its
    own: a :class:`RandomDirectionFleet` owns the positions and the mobiles
    are views of it.
    """
    config = config or SystemConfig.small_test_system()
    layout = HexagonalCellLayout(config.radio.num_rings, config.radio.cell_radius_m)
    rng = np.random.default_rng(seed)
    num = num_data + num_voice
    positions = np.array([layout.random_position(rng) for _ in range(num)]).reshape(num, 2)
    classes = [UserClass.DATA if i < num_data else UserClass.VOICE for i in range(num)]
    if not moving:
        mobiles = [
            MobileStation.static(i, positions[i], user_class=classes[i]) for i in range(num)
        ]
        return CdmaNetwork(config, mobiles, rng, layout), config
    fleet = RandomDirectionFleet(positions, layout.bounding_box(), rng=rng)
    mobiles = [
        MobileStation(index=i, user_class=classes[i], mobility=FleetMemberMobility(fleet, i))
        for i in range(num)
    ]
    return CdmaNetwork(config, mobiles, rng, layout, mobility_fleet=fleet), config


class TestCdmaNetworkBasics:
    def test_dimensions(self):
        network, _ = build_network()
        assert network.num_cells == 7
        assert network.num_mobiles == 12
        assert len(network.data_mobile_indices()) == 6
        assert len(network.voice_mobile_indices()) == 6

    def test_snapshot_shapes(self):
        network, _ = build_network()
        snapshot = network.snapshot()
        assert snapshot.gains.shape == (12, 7)
        assert snapshot.forward_load.fch_power_w.shape == (12, 7)
        assert snapshot.reverse_load.reverse_pilot_strength.shape == (12, 7)
        assert snapshot.sch_mean_csi_forward.shape == (12,)
        assert len(snapshot.handoff_states) == 12
        assert snapshot.num_mobiles == 12
        assert snapshot.num_cells == 7

    def test_step_advances_time(self):
        network, _ = build_network(moving=True)
        assert network.time_s == 0.0
        network.step(0.02)
        assert network.time_s == pytest.approx(0.02)
        network.advance(0.02)
        assert network.time_s == pytest.approx(0.04)

    def test_negative_dt_rejected(self):
        network, _ = build_network(moving=True)
        with pytest.raises(ValueError):
            network.advance(-0.1)

    def test_loading_within_budgets_at_light_load(self):
        network, config = build_network(num_data=4, num_voice=4)
        snapshot = network.snapshot()
        budget = config.radio.bs_max_tx_power_w * (
            1.0 - config.radio.bs_common_channel_fraction
        )
        assert np.all(snapshot.forward_load.current_power_w <= budget + 1e-9)
        assert np.all(snapshot.forward_load.headroom_w() >= 0.0)
        assert np.all(snapshot.reverse_load.current_interference_w > 0.0)

    def test_sch_csi_bounded_by_reference(self):
        network, config = build_network()
        snapshot = network.snapshot()
        reference = config.phy.sch_reference_csi
        assert np.all(snapshot.sch_mean_csi_forward <= reference + 1e-9)
        assert np.all(snapshot.sch_mean_csi_reverse <= reference + 1e-9)
        assert np.all(snapshot.sch_mean_csi_forward >= 0.0)

    def test_serving_cell_is_in_active_set(self):
        network, _ = build_network()
        snapshot = network.snapshot()
        for state in snapshot.handoff_states:
            assert state.serving_cell in state.active_set
            assert set(state.reduced_active_set).issubset(set(state.active_set))


class TestBurstPowerBookkeeping:
    def test_commit_and_release_forward(self):
        network, _ = build_network()
        before = network.snapshot().forward_load.current_power_w[0]
        network.commit_forward_burst_power(0, 2.0)
        during = network.snapshot().forward_load.current_power_w[0]
        assert during >= before + 2.0 - 1e-6
        network.release_forward_burst_power(0, 2.0)
        after = network.snapshot().forward_load.current_power_w[0]
        assert after == pytest.approx(before, rel=0.05)

    def test_commit_and_release_reverse(self):
        network, _ = build_network()
        base = network.snapshot().reverse_load.current_interference_w[0]
        network.commit_reverse_burst_power(0, base)  # double the interference
        during = network.snapshot().reverse_load.current_interference_w[0]
        assert during > base
        network.release_reverse_burst_power(0, base)
        after = network.snapshot().reverse_load.current_interference_w[0]
        assert after == pytest.approx(base, rel=0.1)

    def test_release_never_goes_negative(self):
        # Releasing three grants in another order than they were committed
        # leaves a -5.6e-17 W rounding residue: it becomes exactly 0.0.
        network, _ = build_network()
        for commit, release, committed in (
            (
                network.commit_forward_burst_power,
                network.release_forward_burst_power,
                network.forward_burst_power_w,
            ),
            (
                network.commit_reverse_burst_power,
                network.release_reverse_burst_power,
                network.reverse_burst_power_w,
            ),
        ):
            for power in (0.1, 0.2, 1.1):
                commit(0, power)
            for power in (0.1, 1.1, 0.2):
                release(0, power)
            assert committed[0] == 0.0

    def test_negative_release_rejected(self):
        network, _ = build_network()
        network.commit_forward_burst_power(0, 2.0)
        network.commit_reverse_burst_power(0, 2.0)
        with pytest.raises(ValueError, match="non-negative"):
            network.release_forward_burst_power(0, -1.0)
        with pytest.raises(ValueError, match="non-negative"):
            network.release_reverse_burst_power(0, -1.0)
        assert network.forward_burst_power_w[0] == 2.0
        assert network.reverse_burst_power_w[0] == 2.0

    def test_double_release_raises(self):
        network, _ = build_network()
        network.commit_forward_burst_power(0, 2.0)
        network.release_forward_burst_power(0, 2.0)
        with pytest.raises(ValueError, match="forward-link release"):
            network.release_forward_burst_power(0, 2.0)
        network.commit_reverse_burst_power(1, 2.0)
        network.release_reverse_burst_power(1, 2.0)
        with pytest.raises(ValueError, match="reverse-link release"):
            network.release_reverse_burst_power(1, 2.0)
        # Beyond the float tolerance is an over-release too, however small.
        network.commit_forward_burst_power(2, 1.0)
        with pytest.raises(ValueError, match="exceeds"):
            network.release_forward_burst_power(2, 1.0 + 1e-6)

    def test_negative_commit_rejected(self):
        network, _ = build_network()
        with pytest.raises(ValueError):
            network.commit_forward_burst_power(0, -1.0)
        with pytest.raises(ValueError):
            network.commit_reverse_burst_power(0, -1.0)

    def test_forward_burst_power_raises_interference_and_lowers_quality(self):
        network, config = build_network(num_data=8, num_voice=8)
        clean = network.snapshot()
        # Commit a large burst in every cell and observe the FCH allocations rise.
        for k in range(network.num_cells):
            network.commit_forward_burst_power(k, 6.0)
        loaded = network.snapshot()
        assert loaded.forward_load.current_power_w.sum() > clean.forward_load.current_power_w.sum()
        assert np.nanmean(loaded.forward_pc.achieved_sir) <= np.nanmean(
            clean.forward_pc.achieved_sir
        ) * 1.01


class TestMobility:
    def test_users_move_and_gains_change(self):
        network, _ = build_network(moving=True)
        before = network.snapshot().gains.copy()
        for _ in range(50):
            network.advance(0.1)
        after = network.snapshot().gains
        # The gains are far below allclose's default atol (1e-8): compare
        # relatively only.
        assert not np.allclose(before, after, atol=0.0)

    def test_handoff_events_accumulate(self):
        network, _ = build_network(num_data=10, num_voice=10, seed=3, moving=True)
        for _ in range(200):
            network.advance(0.1)
        assert network.handoff.handoff_events > 0

    def test_network_without_fleet_refuses_a_moving_mobile(self):
        config = SystemConfig.small_test_system()
        layout = HexagonalCellLayout(config.radio.num_rings, config.radio.cell_radius_m)
        rng = np.random.default_rng(2)
        walker = RandomDirectionMobility(np.zeros(2), layout.bounding_box(), rng=rng)
        fleet = RandomDirectionFleet(np.zeros((1, 2)), layout.bounding_box(), rng=rng)
        for model in (walker, FleetMemberMobility(fleet, 0)):
            mobiles = [
                MobileStation.static(0, np.zeros(2)),
                MobileStation(index=1, user_class=UserClass.DATA, mobility=model),
            ]
            with pytest.raises(ValueError, match="static mobiles only"):
                CdmaNetwork(config, mobiles, rng, layout)

    def test_static_network_keeps_positions_shadowing_and_active_sets(self):
        # Without a fleet nobody moves: every frame leaves the positions, the
        # shadowing (which decorrelates with distance travelled) and the
        # active sets bit for bit as they were.
        network, _ = build_network(num_data=10, num_voice=10, seed=3)
        positions = network._positions().tobytes()
        shadowing = network.link_gains.shadowing_db().tobytes()
        active_sets = [list(state.active_set) for state in network.handoff.states]
        for _ in range(20):
            network.advance(0.1)
            assert network._positions().tobytes() == positions
            assert network.link_gains.shadowing_db().tobytes() == shadowing
            assert [list(state.active_set) for state in network.handoff.states] == active_sets
        assert network.time_s == pytest.approx(2.0)


class TestFramePipelineRegressions:
    """Guards for the vectorised structure-of-arrays frame pipeline."""

    def test_one_gain_build_per_step(self):
        # Hand-off update and snapshot share a single local-mean gain build
        # per frame (the 10**(dB/10) matrix used to be computed twice).
        network, _ = build_network(moving=True)
        network.snapshot()
        builds = network.link_gains.local_mean_builds
        network.step(0.02)
        assert network.link_gains.local_mean_builds == builds + 1
        network.step(0.02)
        assert network.link_gains.local_mean_builds == builds + 2

    def test_mobile_index_caches(self):
        network, _ = build_network(num_data=3, num_voice=5)
        first = network.data_mobile_indices()
        assert network.data_mobile_indices() is first  # cached, not rebuilt
        assert list(first) == [0, 1, 2]
        assert list(network.voice_mobile_indices()) == [3, 4, 5, 6, 7]
        with pytest.raises(ValueError):
            first[0] = 99  # read-only view

    def test_fch_state_write_through(self):
        # A network built from static mobiles starts from their FCH fields.
        config = SystemConfig.small_test_system()
        layout = HexagonalCellLayout(config.radio.num_rings, config.radio.cell_radius_m)
        rng = np.random.default_rng(11)
        mobiles = [
            MobileStation.static(
                i, layout.random_position(rng),
                fch_active=i % 3 != 0,
                fch_rate_factor=0.125 if i % 2 else 1.0,
            )
            for i in range(6)
        ]
        network = CdmaNetwork(config, mobiles, rng, layout)
        np.testing.assert_array_equal(
            network._fch_active_mask(), [m.fch_active for m in mobiles]
        )
        np.testing.assert_array_equal(
            network._fch_rate_factors(), [m.fch_rate_factor for m in mobiles]
        )

        # set_fch_state is what the next snapshot sees: an FCH-off mobile
        # has no SIR and no reverse power, and a low-rate control channel
        # needs less power than a full-rate FCH.
        network, _ = build_network()
        network.set_fch_state(np.array([0, 1]), np.array([False, True]),
                              np.array([1.0, 0.125]))
        snapshot = network.snapshot()
        assert np.isnan(snapshot.forward_pc.achieved_sir[0])
        assert snapshot.reverse_pc.tx_power_w[0] == 0.0
        network.set_fch_state(np.array([1]), np.array([True]), np.array([1.0]))
        full = network.snapshot()
        assert snapshot.reverse_pc.tx_power_w[1] < full.reverse_pc.tx_power_w[1]

    def test_positions_array_tracks_mobility(self):
        network, _ = build_network(moving=True)
        network.advance(0.5)
        expected = np.vstack([m.position for m in network.mobiles])
        assert np.array_equal(network._positions(), expected)

    def test_snapshot_gains_stable_across_frames(self):
        # Each frame publishes a fresh gain matrix; earlier snapshots must
        # not be mutated by later frames.
        network, _ = build_network(moving=True)
        first = network.snapshot()
        held = first.gains
        before = held.copy()
        network.step(0.02)
        assert np.array_equal(held, before)


# -- measurements computed on demand ---------------------------------------------------


def on_demand_views(snapshot):
    """Rows accessor and whole matrix of each on-demand measurement.

    The whole matrices are read from shallow copies, so the snapshot the
    admission layer goes on to use keeps computing rows on demand.
    """
    forward, reverse = snapshot.forward_load, snapshot.reverse_load
    return {
        "fch_power_w": (forward.fch_power_rows, copy.copy(forward).fch_power_w),
        "reverse_pilot_strength": (
            reverse.reverse_pilot_rows, copy.copy(reverse).reverse_pilot_strength
        ),
        "forward_pilot_strength": (
            reverse.forward_pilot_rows, copy.copy(reverse).forward_pilot_strength
        ),
        "reduced_membership": (
            snapshot.reduced_membership_rows, copy.copy(snapshot).reduced_membership()
        ),
    }


def assert_not_materialised(snapshot):
    assert snapshot.forward_load._fch_power_w is None
    assert snapshot.reverse_load._reverse_pilot is None
    assert snapshot.reverse_load._forward_pilot is None
    assert snapshot.reduced_active_set_matrix is None


class TestOnDemandMeasurements:
    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(
                lambda: paper_scenario(
                    num_data_users_per_cell=16, duration_s=1.5, warmup_s=0.25, seed=31
                ),
                id="paper-scale",
            ),
            pytest.param(
                lambda: fleet_scenario(
                    system=SystemConfig().with_overrides(
                        radio=replace(SystemConfig().radio, num_rings=2)
                    ),
                    num_data_users_per_cell=53,
                    num_voice_users_per_cell=53,
                    duration_s=0.5,
                    warmup_s=0.0,
                ),
                id="J2e3-K19",
            ),
        ],
    )
    def test_dynamic_run_matches_eager_matrices(self, scenario, monkeypatch):
        # Every frame of a dynamic run: the whole on-demand matrices and random
        # rows of them equal the eager matrices the snapshot used to build,
        # bit for bit, while the snapshot itself never builds them.
        simulator = DynamicSystemSimulator(scenario(), JabaSdScheduler("J1"))
        network = simulator.network
        rng = np.random.default_rng(5)
        original = CdmaNetwork.snapshot
        frames = []

        def checked_snapshot(self):
            snapshot = original(self)
            assert_not_materialised(snapshot)
            eager = eager_measurements(self, snapshot)
            rows = rng.integers(0, snapshot.num_mobiles, size=12)
            for name, (take, whole) in on_demand_views(snapshot).items():
                assert whole.dtype == eager[name].dtype, name
                assert whole.tobytes() == eager[name].tobytes(), name
                assert take(rows).tobytes() == eager[name][rows].tobytes(), name
            assert_not_materialised(snapshot)
            frames.append(snapshot.time_s)
            return snapshot

        monkeypatch.setattr(CdmaNetwork, "snapshot", checked_snapshot)
        simulator.run()
        assert len(frames) >= 25
        assert network.num_mobiles in (16 * 7 + 8 * 7, 2 * 53 * 19)

    def test_snapshot_builds_no_requester_matrix(self):
        # snapshot() keeps the inputs of the per-request measurements; a
        # measurement build reads rows only.  Reading an attribute builds
        # the whole matrix once and caches it.
        network, config = build_network(num_data=20, num_voice=20, seed=3)
        snapshot = network.snapshot()
        assert_not_materialised(snapshot)
        requests = {
            link: [BurstRequest(mobile_index=j, link=link, size_bits=1e5) for j in (0, 3, 3)]
            for link in LinkDirection
        }
        ForwardLinkMeasurement(config.phy, config.mac).build(
            snapshot, requests[LinkDirection.FORWARD]
        )
        ReverseLinkMeasurement(config.phy, config.mac).build(
            snapshot, requests[LinkDirection.REVERSE]
        )
        assert_not_materialised(snapshot)
        full = snapshot.forward_load.fch_power_w
        assert snapshot.forward_load.fch_power_w is full
        assert snapshot.reduced_membership() is snapshot.reduced_membership()
