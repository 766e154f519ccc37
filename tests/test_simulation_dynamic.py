"""Integration tests of the dynamic system simulator."""

from dataclasses import replace

import pytest

from repro.config import RadioConfig
from repro.mac import (
    EqualShareScheduler,
    FcfsScheduler,
    JabaSdScheduler,
    TemporalExtensionScheduler,
)
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig


@pytest.fixture(scope="module")
def fast_scenario():
    return ScenarioConfig.fast_test(
        duration_s=4.0,
        warmup_s=0.5,
        num_data_users_per_cell=3,
        num_voice_users_per_cell=3,
        traffic=TrafficConfig(mean_reading_time_s=1.5, packet_call_min_bits=24_000,
                              packet_call_max_bits=400_000),
    )


class TestDynamicSimulator:
    def test_run_produces_sane_summary(self, fast_scenario):
        simulator = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1"))
        result = simulator.run()
        assert result.completed_packet_calls > 0
        assert result.carried_throughput_bps > 0.0
        assert 0.0 < result.mean_packet_delay_s < 20.0
        assert result.mean_granted_m >= 1.0
        assert 0.0 <= result.forward_utilisation <= 1.2
        assert result.num_data_users == fast_scenario.total_data_users

    def test_reproducible_with_same_seed(self, fast_scenario):
        a = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1")).run()
        b = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1")).run()
        assert a.mean_packet_delay_s == pytest.approx(b.mean_packet_delay_s)
        assert a.completed_packet_calls == b.completed_packet_calls
        assert a.carried_throughput_bps == pytest.approx(b.carried_throughput_bps)

    def test_different_seed_differs(self, fast_scenario):
        a = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1")).run()
        b = DynamicSystemSimulator(fast_scenario.with_seed(123),
                                   JabaSdScheduler("J1")).run()
        assert a.completed_packet_calls != b.completed_packet_calls or (
            a.mean_packet_delay_s != pytest.approx(b.mean_packet_delay_s)
        )

    @pytest.mark.parametrize(
        "scheduler_factory",
        [lambda: JabaSdScheduler("J2"), FcfsScheduler, EqualShareScheduler,
         TemporalExtensionScheduler],
        ids=["JABA-J2", "FCFS", "EqualShare", "JABA-TD"],
    )
    def test_all_schedulers_complete(self, fast_scenario, scheduler_factory):
        result = DynamicSystemSimulator(fast_scenario, scheduler_factory()).run()
        assert result.completed_packet_calls > 0

    def test_burst_power_released_at_end(self, fast_scenario):
        simulator = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1"))
        simulator.run()
        # After the run, committed burst power equals the power of the bursts
        # still on air (never negative, never orphaned).
        still_committed_fwd = sum(
            sum(b.grant.forward_power_w.values()) for b in simulator.active_bursts
        )
        assert simulator.network.forward_burst_power_w.sum() == pytest.approx(
            still_committed_fwd, rel=1e-6, abs=1e-9
        )
        still_committed_rev = sum(
            sum(b.grant.reverse_power_w.values()) for b in simulator.active_bursts
        )
        assert simulator.network.reverse_burst_power_w.sum() == pytest.approx(
            still_committed_rev, rel=1e-6, abs=1e-12
        )

    def test_pending_and_bursting_users_hold_channels(self, fast_scenario):
        simulator = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1"))
        simulator.run()
        control = fast_scenario.system.radio.control_channel_rate_fraction
        bursting = {b.grant.request.mobile_index for b in simulator.active_bursts}
        active = simulator.network._fch_active_mask()
        rate = simulator.network._fch_rate_factors()
        for j in simulator.data_user_indices:
            if j in bursting:
                assert active[j] and rate[j] == 1.0
            elif active[j]:
                assert rate[j] in (control, 1.0)

    def test_offered_load_tracks_traffic_config(self, fast_scenario):
        result = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1")).run()
        per_user = (
            fast_scenario.traffic.packet_call_min_bits
        )  # loose lower bound on mean size
        expected_min = (
            fast_scenario.total_data_users * per_user
            / fast_scenario.traffic.mean_reading_time_s
            * 0.2
        )
        assert result.offered_load_bps > expected_min


class TestPowerControlWiring:
    """The radio config's power-control settings reach both solvers."""

    def test_settings_reach_the_network(self):
        base = ScenarioConfig.fast_test()
        system = base.system.with_overrides(
            radio=replace(base.system.radio, reverse_pilot_overhead=0.5,
                          ms_max_tx_power_w=0.1, orthogonality_factor=0.4)
        )
        simulator = DynamicSystemSimulator(
            replace(base, system=system), JabaSdScheduler("J1")
        )
        assert simulator.system is system
        assert simulator.network.reverse_pc.pilot_overhead == 0.5
        assert simulator.network.reverse_pc.max_tx_power_w == 0.1
        assert simulator.network.forward_pc.orthogonality_factor == 0.4

    def test_tolerance_override_validated(self):
        # The Yates stopping rule is gone: its fields are no longer settable.
        with pytest.raises(TypeError, match="power_control_tolerance"):
            RadioConfig(power_control_tolerance=1e-9)
        with pytest.raises(TypeError, match="power_control_iterations"):
            RadioConfig(power_control_iterations=12)
