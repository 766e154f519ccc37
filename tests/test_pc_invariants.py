"""Power-control invariants on every frame of short dynamic runs.

Every power-control solve of three runs is checked as it happens, from the
solver's own inputs:

* the result is the fixed point: one Yates sweep of the reference oracle
  (:mod:`tests.oracles.powercontrol`) maps the solved per-cell totals to
  themselves within ``rtol=1e-12``;
* powers are finite and non-negative;
* a forward cell transmits at most ``P_max`` (common channels plus the
  traffic budget);
* a reverse cell receives at least its noise plus the committed burst power;
* a mobile whose target needs more than its power cap transmits exactly at
  the cap, every other mobile exactly what its target needs.

The runs are the paper's scenario (K=7), the same density on four rings
(K=61) and a K=19 run with J≈2e3 users, past pole capacity on both links.
The last solve of each run and link is matched against the converged Yates
sweeps as in ``tests/test_kernel_parity.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.experiments.common import paper_scenario
from repro.mac.schedulers import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from tests.oracles.powercontrol import forward_solve, reverse_solve
from tests.test_kernel_parity import REFERENCE_TOLERANCE, assert_same_result


def assert_fixed_point(oracle, pc, inputs, result) -> None:
    swept = oracle(pc, **inputs, tolerance=0.0, iterations=1,
                   start_total_power_w=result.total_power_w)
    np.testing.assert_allclose(
        swept.total_power_w, result.total_power_w, rtol=1e-12, atol=0.0
    )


def assert_finite_non_negative(result) -> None:
    for powers in (result.tx_power_w, result.total_power_w):
        assert np.isfinite(powers).all()
        assert (powers >= 0.0).all()


def check_reverse(pc, inputs, result) -> None:
    assert_fixed_point(reverse_solve, pc, inputs, result)
    assert_finite_non_negative(result)
    totals, tx = result.total_power_w, result.tx_power_w
    assert (totals >= inputs["noise_power_w"] + inputs["extra_received_power_w"]).all()
    # What each connectable mobile's target needs, against the solved totals.
    gains, serving = inputs["gains"], inputs["serving_cells"]
    own_gain = gains[np.arange(serving.size), serving]
    rows = np.flatnonzero(inputs["active"] & (own_gain > 0.0))
    q = pc.ebio_target * inputs["rate_factor"][rows] / pc.processing_gain
    need = q / (1.0 + q) * totals[serving[rows]] / own_gain[rows]
    cap = pc.max_tx_power_w / (1.0 + pc.pilot_overhead)
    np.testing.assert_allclose(tx[rows], np.minimum(need, cap), rtol=1e-12, atol=0.0)
    assert (tx[rows[need > cap * (1.0 + 1e-9)]] == cap).all()
    assert np.count_nonzero(tx) == rows.size


def check_forward(pc, inputs, result) -> None:
    assert_fixed_point(forward_solve, pc, inputs, result)
    assert_finite_non_negative(result)
    p_max = inputs["base_power_w"] + inputs["max_traffic_power_w"]
    assert (result.total_power_w <= p_max * (1.0 + 1e-12)).all()
    assert (result.tx_power_w <= inputs["max_link_power_w"]).all()


def run_checked(scenario: ScenarioConfig) -> dict:
    """Run ``scenario``, checking every solve; ``link -> (solves, infeasible)``.

    The last solve of each link is also matched against the oracle's sweeps
    run to convergence, with the parity tests' pre-registered tolerance.
    """
    simulator = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"))
    counts, last = {}, {}
    for link, pc, check in (
        ("reverse", simulator.network.reverse_pc, check_reverse),
        ("forward", simulator.network.forward_pc, check_forward),
    ):
        counts[link] = [0, 0]

        def checked(_solve=pc.solve, _pc=pc, _check=check, _link=link, **inputs):
            result = _solve(**inputs)
            _check(_pc, inputs, result)
            counts[_link][0] += 1
            counts[_link][1] += result.infeasible
            last[_link] = inputs
            return result

        pc.solve = checked
    simulator.run()
    solves = {link: tuple(count) for link, count in counts.items()}
    for link, oracle in (("reverse", reverse_solve), ("forward", forward_solve)):
        pc = getattr(simulator.network, f"{link}_pc")
        inputs = last[link]
        assert_same_result(
            type(pc).solve(pc, **inputs),
            oracle(pc, **inputs, tolerance=REFERENCE_TOLERANCE),
        )
    return solves


def rings(num_rings: int) -> SystemConfig:
    system = SystemConfig()
    return system.with_overrides(radio=replace(system.radio, num_rings=num_rings))


class TestPowerControlInvariants:
    def test_paper_scenario(self):
        counts = run_checked(
            paper_scenario(num_data_users_per_cell=16, duration_s=1.5, warmup_s=0.0)
        )
        for solves, infeasible in counts.values():
            assert solves >= 75 and infeasible == 0

    def test_paper_density_on_four_rings(self):
        counts = run_checked(paper_scenario(
            num_data_users_per_cell=16, duration_s=0.3, warmup_s=0.0, system=rings(4)
        ))
        for solves, infeasible in counts.values():
            assert solves >= 15 and infeasible == 0

    def test_past_pole_capacity(self):
        # 53 voice and 53 data users per cell on 19 cells, most of them
        # talking or bursting: more than either link can carry.
        scenario = ScenarioConfig(
            system=rings(2),
            num_data_users_per_cell=53,
            num_voice_users_per_cell=53,
            duration_s=0.3,
            warmup_s=0.0,
            seed=2001,
            traffic=TrafficConfig(mean_reading_time_s=0.5),
        )
        counts = run_checked(scenario)
        for solves, infeasible in counts.values():
            assert solves >= 15 and infeasible > 0


@pytest.mark.parametrize("link", ["reverse", "forward"])
def test_the_checks_see_a_point_off_the_fixed_point(link):
    # A stopped Yates iteration leaves the totals ~1e-6 away; 1e-9 fails.
    simulator = DynamicSystemSimulator(
        paper_scenario(num_data_users_per_cell=16, duration_s=0.1, warmup_s=0.0),
        JabaSdScheduler("J1"),
    )
    pc = getattr(simulator.network, f"{link}_pc")
    solve, inputs = pc.solve, {}

    def capture(**frame_inputs):
        inputs.update(frame_inputs)
        return solve(**frame_inputs)

    pc.solve = capture
    simulator.run()
    check = check_reverse if link == "reverse" else check_forward
    result = solve(**inputs)
    check(pc, inputs, result)
    result.total_power_w = result.total_power_w * (1.0 + 1e-9)
    with pytest.raises(AssertionError):
        check(pc, inputs, result)
