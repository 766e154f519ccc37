"""Parity of the structure-of-arrays user fleets with the per-user reference models.

The dynamic simulator runs the fleets (:class:`repro.traffic.VoiceFleet`,
:class:`repro.traffic.DataTrafficFleet`, :class:`repro.mac.MacStateFleet`,
:class:`repro.geometry.mobility.RandomDirectionFleet`); the per-user models
(:class:`repro.traffic.OnOffVoiceSource`,
:class:`repro.traffic.PacketCallDataSource`, :class:`repro.mac.MacStateMachine`,
:class:`repro.geometry.mobility.RandomDirectionMobility`) are kept as their
reference.  The fleets own their own random streams, so parity is
*statistical* for everything that draws randomness (activity fractions,
arrival and size distributions, kinematics) and **bit-exact** for the
deterministic MAC state machines driven by identical activity sequences.
"""

import numpy as np
import pytest

from repro.config import MacConfig
from repro.geometry.mobility import RandomDirectionFleet, RandomDirectionMobility
from repro.mac import JabaSdScheduler
from repro.mac.states import MacStateFleet, MacStateMachine
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from repro.traffic.data import DataTrafficFleet, PacketCallDataSource, TruncatedParetoSize
from repro.traffic.voice import OnOffVoiceSource, VoiceFleet


def ks_distance(samples_a, samples_b) -> float:
    """Two-sample Kolmogorov–Smirnov distance (no scipy dependency)."""
    a = np.sort(np.asarray(samples_a))
    b = np.sort(np.asarray(samples_b))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestVoiceFleetParity:
    def test_activity_fraction_matches_scalar_ensemble(self):
        num, frames, dt = 400, 4000, 0.02
        sources = [
            OnOffVoiceSource(mean_talk_s=1.0, mean_silence_s=1.5,
                             rng=np.random.default_rng(1000 + i))
            for i in range(num)
        ]
        fleet = VoiceFleet(num, mean_talk_s=1.0, mean_silence_s=1.5,
                           rng=np.random.default_rng(99))
        scalar_active = fleet_active = 0
        for _ in range(frames):
            scalar_active += sum(s.advance(dt) for s in sources)
            fleet_active += int(fleet.advance(dt).sum())
        total = num * frames
        target = fleet.activity_factor
        assert scalar_active / total == pytest.approx(target, abs=0.02)
        assert fleet_active / total == pytest.approx(target, abs=0.02)
        assert fleet_active / total == pytest.approx(scalar_active / total, abs=0.03)

    def test_exact_multi_transition_handling(self):
        fleet = VoiceFleet(64, mean_talk_s=0.01, mean_silence_s=0.01,
                           rng=np.random.default_rng(0))
        active = fleet.advance(10.0)  # thousands of transitions per source
        assert active.shape == (64,)
        assert np.all(fleet._time_in_state < fleet._state_duration)

    def test_validation(self):
        with pytest.raises(ValueError):
            VoiceFleet(4, mean_talk_s=0.0)
        with pytest.raises(ValueError):
            VoiceFleet(4).advance(-1.0)
        with pytest.raises(ValueError):
            VoiceFleet(-1)

    def test_start_state_override_and_empty_fleet(self):
        fleet = VoiceFleet(8, rng=np.random.default_rng(0), start_active=True)
        assert fleet.active.all()
        empty = VoiceFleet(0, rng=np.random.default_rng(0))
        assert empty.advance(1.0).shape == (0,)


class TestDataFleetParity:
    def _scalar_ensemble_calls(self, num, until_s, traffic_kwargs):
        sizes, gaps = [], []
        for i in range(num):
            source = PacketCallDataSource(
                rng=np.random.default_rng(2000 + i), **traffic_kwargs
            )
            last = None
            for call in source.pull_arrivals(until_s):
                sizes.append(call.size_bits)
                if last is not None:
                    gaps.append(call.arrival_time_s - last)
                last = call.arrival_time_s
        return np.asarray(sizes), np.asarray(gaps)

    def test_arrival_and_size_distributions(self):
        num, until_s = 300, 200.0
        dist = TruncatedParetoSize(shape=1.8, minimum_bits=24_000.0,
                                   maximum_bits=1_200_000.0)
        kwargs = dict(mean_reading_time_s=4.0, size_distribution=dist)
        scalar_sizes, scalar_gaps = self._scalar_ensemble_calls(num, until_s, kwargs)

        fleet = DataTrafficFleet(num, rng=np.random.default_rng(7), **kwargs)
        arrivals = fleet.pull_arrivals(until_s)
        fleet_sizes = arrivals.size_bits
        order = np.lexsort((arrivals.arrival_times_s, arrivals.user_indices))
        per_user_sorted_times = arrivals.arrival_times_s[order]
        per_user = arrivals.user_indices[order]
        same_user = per_user[1:] == per_user[:-1]
        fleet_gaps = np.diff(per_user_sorted_times)[same_user]

        # Arrival counts agree with the renewal rate (and with each other).
        expected = num * until_s / kwargs["mean_reading_time_s"]
        assert len(scalar_sizes) == pytest.approx(expected, rel=0.1)
        assert len(fleet_sizes) == pytest.approx(len(scalar_sizes), rel=0.1)
        # KS-style distance between the empirical distributions.
        assert ks_distance(scalar_sizes, fleet_sizes) < 0.02
        assert ks_distance(scalar_gaps, fleet_gaps) < 0.02
        # Size moments track the closed-form truncated-Pareto mean.
        assert np.mean(fleet_sizes) == pytest.approx(dist.mean(), rel=0.05)

    def test_forward_fraction_draws(self):
        fleet = DataTrafficFleet(500, mean_reading_time_s=1.0,
                                 forward_fraction=0.7,
                                 rng=np.random.default_rng(3))
        arrivals = fleet.pull_arrivals(40.0)
        assert arrivals.is_forward.mean() == pytest.approx(0.7, abs=0.03)

    def test_incremental_pulls_do_not_duplicate(self):
        fleet = DataTrafficFleet(50, mean_reading_time_s=0.5,
                                 rng=np.random.default_rng(4))
        first = fleet.pull_arrivals(5.0)
        second = fleet.pull_arrivals(10.0)
        assert np.all(first.arrival_times_s <= 5.0)
        assert np.all(second.arrival_times_s > 5.0)
        assert np.all(second.arrival_times_s <= 10.0)
        assert np.all(np.diff(first.arrival_times_s) >= 0.0)

    def test_empty_pull(self):
        fleet = DataTrafficFleet(10, mean_reading_time_s=100.0,
                                 rng=np.random.default_rng(5),
                                 initial_delay_s=50.0)
        arrivals = fleet.pull_arrivals(1.0)
        assert len(arrivals) == 0


class TestMacFleetParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trajectories_bit_exact(self, seed):
        """Given the same activity sequence the fleet equals J scalar machines."""
        config = MacConfig()
        num, frames, dt = 60, 600, 0.02
        fleet = MacStateFleet(num, config)
        machines = [MacStateMachine(config=config) for _ in range(num)]
        rng = np.random.default_rng(seed)
        for _ in range(frames):
            active = rng.random(num) < 0.25
            fleet.advance(dt, active)
            for machine, flag in zip(machines, active):
                machine.advance(dt, bool(flag))
            if rng.random() < 0.3:
                touched = np.flatnonzero(rng.random(num) < 0.05)
                fleet.touch(touched)
                for user in touched:
                    machines[user].touch()
        expected_codes = np.asarray(
            [fleet.STATE_OF_CODE.index(m.state) for m in machines], dtype=np.int8
        )
        assert np.array_equal(fleet.state_codes, expected_codes)
        assert np.array_equal(
            fleet.idle_times_s, np.asarray([m.idle_time_s for m in machines])
        )
        assert np.array_equal(
            fleet.setup_penalties_s(),
            np.asarray([m.setup_penalty_s() for m in machines]),
        )
        assert all(
            fleet.setup_penalty_s(i) == machines[i].setup_penalty_s()
            and fleet.state(i) is machines[i].state
            for i in range(num)
        )

    def test_holds_dedicated_channel_mask(self):
        config = MacConfig()
        fleet = MacStateFleet(4, config)
        # Decay the whole fleet deep into Dormant, then touch one user back.
        fleet.advance(10.0 * config.t3_s, np.zeros(4, dtype=bool))
        assert not fleet.holds_dedicated_channel().any()
        fleet.touch(np.array([2]))
        assert fleet.holds_dedicated_channel().tolist() == [False, False, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            MacStateFleet(-1, MacConfig())
        with pytest.raises(ValueError):
            MacStateFleet(2, MacConfig()).advance(-0.1, np.zeros(2, dtype=bool))


class TestMobilityFleetParity:
    BOUNDS = (-500.0, 500.0, -400.0, 400.0)

    def test_positions_stay_in_bounds(self):
        rng = np.random.default_rng(0)
        positions = np.column_stack(
            [rng.uniform(-500, 500, 256), rng.uniform(-400, 400, 256)]
        )
        fleet = RandomDirectionFleet(positions, self.BOUNDS, speed_m_s=(5.0, 30.0),
                                     mean_epoch_s=0.5, rng=rng)
        for _ in range(400):
            fleet.advance(0.05)
            xmin, xmax, ymin, ymax = self.BOUNDS
            assert np.all(fleet.positions[:, 0] >= xmin)
            assert np.all(fleet.positions[:, 0] <= xmax)
            assert np.all(fleet.positions[:, 1] >= ymin)
            assert np.all(fleet.positions[:, 1] <= ymax)

    def test_travelled_distance_matches_scalar_ensemble(self):
        num, frames, dt = 200, 500, 0.02
        speed = (0.83, 13.9)
        rng = np.random.default_rng(1)
        positions = np.column_stack(
            [rng.uniform(-500, 500, num), rng.uniform(-400, 400, num)]
        )
        models = [
            RandomDirectionMobility(positions[i], self.BOUNDS, speed_m_s=speed,
                                    mean_epoch_s=5.0,
                                    rng=np.random.default_rng(3000 + i))
            for i in range(num)
        ]
        fleet = RandomDirectionFleet(positions, self.BOUNDS, speed_m_s=speed,
                                     mean_epoch_s=5.0, rng=np.random.default_rng(2))
        scalar_travel = 0.0
        fleet_travel = 0.0
        moved = np.zeros(num)
        for _ in range(frames):
            scalar_travel += sum(m.advance(dt) for m in models)
            fleet.advance(dt, out_moved=moved)
            fleet_travel += float(moved.sum())
        mean_speed = 0.5 * (speed[0] + speed[1])
        duration = frames * dt
        assert scalar_travel / (num * duration) == pytest.approx(mean_speed, rel=0.05)
        assert fleet_travel / (num * duration) == pytest.approx(mean_speed, rel=0.05)

    def test_speed_redraws_cover_the_range(self):
        rng = np.random.default_rng(3)
        positions = np.zeros((128, 2))
        fleet = RandomDirectionFleet(positions, self.BOUNDS, speed_m_s=(2.0, 10.0),
                                     mean_epoch_s=0.2, rng=rng)
        for _ in range(200):
            fleet.advance(0.05)
        speeds = fleet.speed_m_s
        assert np.all(speeds >= 2.0) and np.all(speeds <= 10.0)
        assert speeds.mean() == pytest.approx(6.0, abs=0.5)

    def test_constant_speed_fleet(self):
        fleet = RandomDirectionFleet(np.zeros((8, 2)), self.BOUNDS, speed_m_s=3.0,
                                     mean_epoch_s=1.0, rng=np.random.default_rng(4))
        moved = fleet.advance(0.5)
        assert np.allclose(moved, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomDirectionFleet(np.zeros((4, 3)), self.BOUNDS)
        with pytest.raises(ValueError):
            RandomDirectionFleet(np.zeros((4, 2)), (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            RandomDirectionFleet(np.zeros((4, 2)), self.BOUNDS, speed_m_s=(5.0, 1.0))
        fleet = RandomDirectionFleet(np.zeros((4, 2)), self.BOUNDS,
                                     rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            fleet.advance(-1.0)
        with pytest.raises(ValueError):
            fleet.advance(1.0, out_moved=np.zeros(3))


def fleet_scenario(**overrides):
    defaults = dict(
        duration_s=2.0,
        warmup_s=0.5,
        traffic=TrafficConfig(
            mean_reading_time_s=1.0,
            packet_call_min_bits=24_000,
            packet_call_max_bits=200_000,
        ),
    )
    defaults.update(overrides)
    return ScenarioConfig.fast_test(**defaults)


class TestFleetSimulatorEndToEnd:
    @pytest.fixture(scope="class")
    def fleet_sim(self):
        return DynamicSystemSimulator(fleet_scenario(), JabaSdScheduler("J1"))

    def test_fleet_run_carries_traffic(self, fleet_sim):
        result = fleet_sim.run()
        assert result.completed_packet_calls > 0
        assert result.carried_throughput_bps > 0.0

    def test_membership_counts_consistent_after_run(self, fleet_sim):
        bursting = {b.grant.request.mobile_index for b in fleet_sim.active_bursts}
        waiting = set()
        for requests in fleet_sim.pending.values():
            waiting.update(r.mobile_index for r in requests)
        count_bursting = set(np.flatnonzero(fleet_sim._bursting_count > 0))
        count_waiting = set(np.flatnonzero(fleet_sim._waiting_count > 0))
        assert count_bursting == bursting
        assert count_waiting == waiting
        assert np.all(fleet_sim._bursting_count >= 0)
        assert np.all(fleet_sim._waiting_count >= 0)

    def test_fleet_positions_are_network_positions(self, fleet_sim):
        assert fleet_sim.network._positions() is fleet_sim.mobility_fleet.positions
        member = fleet_sim.mobiles[0].mobility
        np.testing.assert_array_equal(
            member.position, fleet_sim.mobility_fleet.positions[0]
        )
        with pytest.raises(RuntimeError):
            member.advance(0.02)
