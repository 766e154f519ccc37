"""Integration tests of the dynamic system simulator."""

from dataclasses import replace

import pytest

from repro.config import MacConfig, RadioConfig, SystemConfig
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

    def test_scalar_admission_path_matches_batched(self, fast_scenario):
        # The batched_admission switch changes the implementation, never the
        # decisions: full runs agree bit for bit.
        batched = DynamicSystemSimulator(
            fast_scenario, JabaSdScheduler("J1")
        ).run()
        scalar = DynamicSystemSimulator(
            replace(fast_scenario, batched_admission=False), JabaSdScheduler("J1")
        ).run()
        assert batched.completed_packet_calls == scalar.completed_packet_calls
        assert batched.mean_packet_delay_s == scalar.mean_packet_delay_s
        assert batched.carried_throughput_bps == scalar.carried_throughput_bps
        assert batched.mean_granted_m == scalar.mean_granted_m
        assert batched.forward_utilisation == scalar.forward_utilisation


class TestPowerControlWiring:
    """ScenarioConfig wiring of warm start and the solver tolerance."""

    SUMMARY_FIELDS = (
        "mean_packet_delay_s",
        "completed_packet_calls",
        "carried_throughput_bps",
        "mean_granted_m",
        "grant_rate",
        "forward_utilisation",
        "reverse_rise_db",
        "fch_outage_fraction",
        "handoff_events",
    )

    @staticmethod
    def _tolerance_scenario(warm_start: bool) -> ScenarioConfig:
        # A tight fixed-point tolerance (with enough iteration headroom) so
        # the warm/cold comparison measures the warm start itself, not the
        # successive-delta truncation error of the default solver settings.
        system = SystemConfig(
            radio=RadioConfig(
                num_rings=1, cell_radius_m=800.0, power_control_iterations=400
            ),
            mac=MacConfig(),
        )
        return ScenarioConfig.fast_test(
            system=system,
            duration_s=1.5,
            warmup_s=0.25,
            traffic=TrafficConfig(
                mean_reading_time_s=1.0,
                packet_call_min_bits=24_000,
                packet_call_max_bits=200_000,
            ),
            warm_start_power_control=warm_start,
            power_control_tolerance=1e-10,
        )

    def test_settings_reach_the_network(self):
        scenario = ScenarioConfig.fast_test(
            warm_start_power_control=True, power_control_tolerance=1e-9
        )
        simulator = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"))
        assert simulator.network.warm_start_power_control is True
        assert simulator.system.radio.power_control_tolerance == 1e-9
        assert simulator.network.reverse_pc.tolerance == 1e-9
        assert simulator.network.forward_pc.tolerance == 1e-9
        # The scenario's own system config is left untouched.
        assert scenario.system.radio.power_control_tolerance != 1e-9

    def test_tolerance_override_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig.fast_test(power_control_tolerance=0.0)

    def test_cold_start_defaults_bit_identical(self, fast_scenario):
        # The new fields default to the pre-wiring behaviour: an untouched
        # scenario and an explicitly-cold scenario produce the same run.
        default = DynamicSystemSimulator(fast_scenario, JabaSdScheduler("J1")).run()
        explicit = DynamicSystemSimulator(
            replace(
                fast_scenario,
                warm_start_power_control=False,
                power_control_tolerance=(
                    fast_scenario.system.radio.power_control_tolerance
                ),
            ),
            JabaSdScheduler("J1"),
        ).run()
        for field in self.SUMMARY_FIELDS:
            assert getattr(default, field) == getattr(explicit, field), field

    def test_warm_start_within_tolerance(self):
        cold = DynamicSystemSimulator(
            self._tolerance_scenario(False), JabaSdScheduler("J1")
        ).run()
        warm = DynamicSystemSimulator(
            self._tolerance_scenario(True), JabaSdScheduler("J1")
        ).run()
        for field in self.SUMMARY_FIELDS:
            a, b = getattr(cold, field), getattr(warm, field)
            if isinstance(a, float):
                assert b == pytest.approx(a, rel=1e-6, abs=1e-9), field
            else:
                assert a == b, field


class TestSolverWarmStartWiring:
    """ScenarioConfig(warm_start_solver=...) reaches the scheduler."""

    def test_flag_defaults_to_cold(self):
        scheduler = JabaSdScheduler("J1", solver="optimal")
        DynamicSystemSimulator(ScenarioConfig.fast_test(), scheduler)
        assert scheduler.warm_start is False

    def test_flag_reaches_scheduler_and_resets_memory(self):
        scheduler = JabaSdScheduler("J1", solver="optimal")
        scheduler._last_assignment["stale"] = {0: 1}
        DynamicSystemSimulator(
            ScenarioConfig.fast_test(warm_start_solver=True), scheduler
        )
        assert scheduler.warm_start is True
        assert scheduler._last_assignment == {}

    def test_reused_scheduler_is_cooled_down_by_cold_scenario(self):
        """A warm run must not leak warm-start state into a later cold run."""
        scheduler = JabaSdScheduler("J1", solver="optimal")
        DynamicSystemSimulator(
            ScenarioConfig.fast_test(warm_start_solver=True), scheduler
        ).run()
        assert scheduler.warm_start is True
        assert scheduler._last_assignment
        DynamicSystemSimulator(ScenarioConfig.fast_test(), scheduler)
        assert scheduler.warm_start is False
        assert scheduler._last_assignment == {}

    def test_baseline_scheduler_ignores_flag(self):
        simulator = DynamicSystemSimulator(
            ScenarioConfig.fast_test(warm_start_solver=True), FcfsScheduler()
        )
        result = simulator.run()
        assert result.completed_packet_calls >= 0

    def test_warm_run_matches_cold_with_optimal_solver(self):
        """Warm starts only seed the incumbent: the proven optima agree."""
        cold = DynamicSystemSimulator(
            ScenarioConfig.fast_test(), JabaSdScheduler("J1", solver="optimal")
        ).run()
        warm_scheduler = JabaSdScheduler("J1", solver="optimal")
        warm = DynamicSystemSimulator(
            ScenarioConfig.fast_test(warm_start_solver=True), warm_scheduler
        ).run()
        assert warm_scheduler._last_assignment  # memory was exercised
        assert warm.completed_packet_calls == cold.completed_packet_calls
        assert warm.carried_throughput_bps == pytest.approx(
            cold.carried_throughput_bps, rel=1e-9
        )
        assert warm.mean_packet_delay_s == pytest.approx(
            cold.mean_packet_delay_s, rel=1e-9
        )
