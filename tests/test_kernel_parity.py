"""Parity of the frame kernels with the implementations they replaced.

* Power control: the solvers take the exact fixed point by a few ``K x K``
  solves over the pieces of the map; their :class:`PowerControlResult` must
  match the full-row Yates sweeps kept in :mod:`tests.oracles.powercontrol`,
  run to ``tolerance=1e-13``, to ``rtol=1e-9`` (``atol=0``) on the powers
  and the finite Eb/Io, with ``nan`` in the same places and equal outage
  flags.  Both tolerances were fixed before the comparison was run.
* Soft hand-off: ranking only the mobiles with two or more eligible cells
  must give the ordered active sets, set sizes and hand-off event count of
  the full-row stable argsort kept in :mod:`tests.oracles.handoff`, bit for
  bit, including exact pilot ties and orphaned rows.
* Geometry: distances taken to the recorded nearest wrap-around images must
  equal the per-position minimum over every image, row by row, however the
  positions move.
* Link gains: the one-state shadowing and the single-``exp`` local-mean gain
  must track the two-state ``10.0 **`` map kept in
  :mod:`tests.oracles.linkgain` from the same seed, frame after frame, to
  ``rtol=1e-12`` on the gains and 1e-12 dB on the shadowing (the two round
  differently: one AR(1) sum instead of two, ``exp`` instead of ``pow``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdma.handoff import SoftHandoffController
from repro.cdma.linkgain import LinkGainMap
from repro.cdma.powercontrol import ForwardLinkPowerControl, ReverseLinkPowerControl
from repro.config import RadioConfig, SystemConfig
from repro.geometry.hexgrid import HexagonalCellLayout, NearestImages
from repro.mac.schedulers import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator
from tests.oracles import handoff as handoff_oracle
from tests.oracles import hexgrid as hexgrid_oracle
from tests.oracles.linkgain import TwoStateLinkGainMap
from tests.oracles.powercontrol import forward_solve, reverse_solve
from tests.test_fleet_parity import fleet_scenario

RESULT_FIELDS = ("tx_power_w", "total_power_w", "achieved_sir")
RADIO = RadioConfig()
#: The pre-registered reference: Yates sweeps run to this tolerance.
REFERENCE_TOLERANCE = 1e-13


def assert_bit_identical(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(new, old, equal_nan=new.dtype.kind == "f")
    assert new.tobytes() == old.tobytes()


def assert_same_result(new, old) -> None:
    """The exact solve lands where the converged Yates sweeps do."""
    assert old.converged
    for name in RESULT_FIELDS:
        np.testing.assert_allclose(
            getattr(new, name), getattr(old, name), rtol=1e-9, atol=0.0
        )
    assert_bit_identical(new.power_limited, old.power_limited)


# -- power control ----------------------------------------------------------------------


def draw_pc_inputs(num_mobiles, num_cells, seed, activity):
    """Local-mean gains of a random drop plus the per-frame solver inputs."""
    rng = np.random.default_rng(seed)
    shape = (num_mobiles, num_cells)
    distance_km = rng.uniform(0.05, 3.0, size=shape)
    loss_db = 128.1 + 37.6 * np.log10(distance_km) + 8.0 * rng.normal(size=shape)
    gains = 10.0 ** (-loss_db / 10.0)
    gains[rng.random(shape) < 0.01] = 0.0
    serving = np.argmax(gains, axis=1)
    lagging = rng.random(num_mobiles) < 0.1  # hand-off has not caught up yet
    serving[lagging] = rng.integers(0, num_cells, size=int(lagging.sum()))
    best = gains[np.arange(num_mobiles), serving][:, np.newaxis]
    active_set = gains >= 0.25 * best
    active_set[np.arange(num_mobiles), serving] = True
    active_set[rng.random(num_mobiles) < 0.01] = False
    if activity == "none":
        active = np.zeros(num_mobiles, dtype=bool)
    elif activity == "all":
        active = np.ones(num_mobiles, dtype=bool)
    else:
        active = rng.random(num_mobiles) < rng.uniform(0.05, 0.6)
    rate = rng.choice([1.0, 0.5, 0.3, 0.125], size=num_mobiles)
    return rng, gains, serving, active_set, active, rate


@st.composite
def pc_cases(draw):
    return dict(
        num_mobiles=draw(st.one_of(st.integers(0, 40), st.integers(41, 3000))),
        num_cells=draw(st.sampled_from([1, 7, 19])),
        seed=draw(st.integers(0, 2**32 - 1)),
        activity=draw(st.sampled_from(["none", "all", "random"])),
        with_rate=draw(st.booleans()),
        with_extra=draw(st.booleans()),
        # Per-link cap as a fraction of the budget; at 0.001 every leg binds.
        link_cap=draw(st.sampled_from([None, 0.001, 0.02, 0.1])),
    )


def pc_problems(case):
    """The reverse and the forward ``(solver, solve arguments)`` of ``case``."""
    num_cells = case["num_cells"]
    rng, gains, serving, active_set, active, rate = draw_pc_inputs(
        case["num_mobiles"], num_cells, case["seed"], case["activity"]
    )
    rate = rate if case["with_rate"] else None
    noise = np.full(num_cells, RADIO.bs_noise_power_w)
    base = np.full(num_cells, RADIO.bs_max_tx_power_w * RADIO.bs_common_channel_fraction)
    budget = np.full(num_cells, RADIO.bs_max_tx_power_w) - base
    reverse_extra = forward_extra = None
    if case["with_extra"]:
        reverse_extra = rng.uniform(0.0, 5.0, size=num_cells) * noise
        forward_extra = rng.uniform(0.0, 0.3, size=num_cells) * budget
    reverse_pc = ReverseLinkPowerControl(
        processing_gain=RADIO.fch_processing_gain,
        ebio_target=RADIO.fch_ebio_target,
        pilot_overhead=RADIO.reverse_pilot_overhead,
        max_tx_power_w=RADIO.ms_max_tx_power_w,
    )
    forward_pc = ForwardLinkPowerControl(
        processing_gain=RADIO.fch_processing_gain,
        ebio_target=RADIO.fch_ebio_target,
        orthogonality_factor=RADIO.orthogonality_factor,
        mobile_noise_power_w=RADIO.mobile_noise_power_w,
    )
    reverse_args = dict(
        gains=gains, serving_cells=serving, active=active, noise_power_w=noise,
        extra_received_power_w=reverse_extra, rate_factor=rate,
    )
    link_cap = case["link_cap"]
    forward_args = dict(
        gains=gains, active_set=active_set, active=active, base_power_w=base,
        max_traffic_power_w=budget, extra_traffic_power_w=forward_extra,
        max_link_power_w=None if link_cap is None else link_cap * budget.min(),
        rate_factor=rate,
    )
    return (reverse_pc, reverse_args), (forward_pc, forward_args)


def solve_both(case):
    """(new, converged oracle) results of the reverse and of the forward solve."""
    (reverse_pc, reverse_args), (forward_pc, forward_args) = pc_problems(case)
    return (
        (reverse_pc.solve(**reverse_args),
         reverse_solve(reverse_pc, **reverse_args, tolerance=REFERENCE_TOLERANCE)),
        (forward_pc.solve(**forward_args),
         forward_solve(forward_pc, **forward_args, tolerance=REFERENCE_TOLERANCE)),
    )


class TestPowerControlParity:
    @settings(max_examples=60, deadline=None)
    @given(case=pc_cases())
    def test_matches_full_row_solve(self, case):
        for new, old in solve_both(case):
            assert_same_result(new, old)

    @pytest.mark.parametrize("iterations", [2, 25])
    def test_capped_heavy_load(self, iterations):
        # Every mobile active on 7 cells: the reverse link is past pole
        # capacity and the forward cells saturate.  Sweeps stopped after
        # ``iterations`` climb towards the exact fixed point from below
        # without reaching it; run to convergence they meet it.
        case = dict(num_mobiles=2500, num_cells=7, seed=11, activity="all",
                    with_rate=True, with_extra=True, link_cap=0.1)
        (reverse_pc, reverse_args), _ = pc_problems(case)
        (reverse, reverse_old), (forward, forward_old) = solve_both(case)
        stopped = reverse_solve(reverse_pc, **reverse_args, tolerance=1e-6,
                                iterations=iterations)
        assert stopped.iterations == iterations and not stopped.converged
        assert np.all(stopped.total_power_w <= reverse.total_power_w * (1.0 + 1e-12))
        assert reverse.infeasible
        assert forward.power_limited.any()
        assert_same_result(reverse, reverse_old)
        assert_same_result(forward, forward_old)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_cell_close_to_full_row_solve(self, seed):
        case = dict(num_mobiles=400, num_cells=1, seed=seed, activity="random",
                    with_rate=True, with_extra=True, link_cap=0.1)
        for new, old in solve_both(case):
            assert_same_result(new, old)


# -- soft hand-off ----------------------------------------------------------------------


@st.composite
def handoff_cases(draw):
    max_size = draw(st.integers(1, 6))
    return dict(
        num_mobiles=draw(st.integers(0, 300)),
        num_cells=draw(st.sampled_from([1, 7, 19])),
        max_size=max_size,
        reduced=draw(st.integers(1, max_size)),
        seed=draw(st.integers(0, 2**32 - 1)),
        frames=draw(st.integers(1, 6)),
    )


def draw_pilots(rng, num_mobiles, num_cells):
    """Pilots around the add/drop thresholds, with exact ties and orphaned rows."""
    pilots = 10.0 ** rng.uniform(-2.5, -0.5, size=(num_mobiles, num_cells))
    # Rows quantised to a few levels tie exactly, also across the thresholds.
    tied = rng.random(num_mobiles) < 0.2
    levels = np.array([0.0, 10.0 ** -1.6, 10.0 ** -1.4, 0.05])
    pilots[tied] = rng.choice(levels, size=(int(tied.sum()), num_cells))
    # Rows far below the drop threshold leave no cell eligible (orphans);
    # some of them are flat or zero, so the strongest cell is itself a tie.
    orphaned = rng.random(num_mobiles) < 0.15
    pilots[orphaned] *= 1e-3
    flat = orphaned & (rng.random(num_mobiles) < 0.3)
    pilots[flat] = rng.choice([0.0, 1e-5])
    return pilots


class TestHandoffParity:
    @settings(max_examples=80, deadline=None)
    @given(case=handoff_cases())
    def test_candidate_rank_matches_full_sort(self, case):
        # Same pilots, frame after frame, into the production update and the
        # full-row stable argsort it replaced: the ordered sets, their sizes
        # and the hand-off event count must agree exactly.
        kwargs = dict(
            num_mobiles=case["num_mobiles"],
            max_active_set_size=case["max_size"],
            reduced_active_set_size=case["reduced"],
        )
        new, old = SoftHandoffController(**kwargs), SoftHandoffController(**kwargs)
        rng = np.random.default_rng(case["seed"])
        for _ in range(case["frames"]):
            pilots = draw_pilots(rng, case["num_mobiles"], case["num_cells"])
            new.update(pilots)
            handoff_oracle.update(old, pilots)
            assert_bit_identical(new._ordered, old._ordered)
            assert_bit_identical(new._count, old._count)
            assert new.handoff_events == old.handoff_events


# -- geometry ---------------------------------------------------------------------------


def per_row_distances(layout: HexagonalCellLayout, positions: np.ndarray) -> np.ndarray:
    rows = [layout.distances_to_all(p) for p in positions]
    return np.vstack(rows) if rows else np.zeros((0, layout.num_cells))


def assert_exact_distances(layout, positions, images) -> np.ndarray:
    got = layout.distances_to_all_batch(positions, images=images)
    assert_bit_identical(got, per_row_distances(layout, positions))
    assert_bit_identical(got, hexgrid_oracle.distances_to_all_batch(layout, positions))
    return got


def bisector_points(layout: HexagonalCellLayout) -> np.ndarray:
    """Points equidistant from the two nearest wrap-around images of a base station.

    The midpoint of two images one shortest lattice vector apart: both sit
    half a period away, every other image farther.
    """
    shifts = layout._shifts
    gaps = np.hypot(*(shifts[:, np.newaxis, :] - shifts[np.newaxis, :, :]).T)
    shortest = gaps[gaps > 0.0].min()
    pairs = np.argwhere(np.triu(np.isclose(gaps, shortest), k=1))
    return np.asarray([
        site + 0.5 * (shifts[a] + shifts[b])
        for site in layout.positions for a, b in pairs
    ])


LAYOUTS = [(0, True), (1, True), (2, True), (3, True), (1, False), (2, False)]


class TestNearestImageParity:
    @pytest.mark.parametrize("rings, wraparound", LAYOUTS)
    def test_walk_matches_per_row_minimum(self, rings, wraparound):
        layout = HexagonalCellLayout(num_rings=rings, cell_radius_m=900.0,
                                     wraparound=wraparound)
        rng = np.random.default_rng(100 + rings)
        span = 3.0 * (rings + 1) * layout.cell_radius_m
        positions = rng.uniform(-span, span, size=(80, 2))
        images = NearestImages(len(positions), layout.num_cells)
        for _ in range(30):
            assert_exact_distances(layout, positions, images)
            positions = positions + rng.normal(0.0, 0.3, size=positions.shape)
            jump = rng.random(len(positions)) < 0.05
            positions[jump] = rng.uniform(-span, span, size=(int(jump.sum()), 2))

    @pytest.mark.parametrize("rings", [1, 2])
    def test_points_on_image_bisectors(self, rings):
        layout = HexagonalCellLayout(num_rings=rings, cell_radius_m=1000.0)
        rng = np.random.default_rng(rings)
        positions = bisector_points(layout)
        images = NearestImages(len(positions), layout.num_cells)
        assert_exact_distances(layout, positions, images)
        # A tie certifies nothing: every bisector point is re-minimised.
        assert np.all(images.slack_m <= 0.0)
        # Walk along and across the bisectors by tiny and sub-metre steps.
        for scale in (1e-9, 1e-6, 1e-3, 0.3):
            for _ in range(3):
                positions = positions + rng.normal(0.0, scale, size=positions.shape)
                assert_exact_distances(layout, positions, images)

    def test_slack_rule(self):
        layout = HexagonalCellLayout(num_rings=2, cell_radius_m=1000.0)
        rng = np.random.default_rng(5)
        positions = rng.uniform(-2000.0, 2000.0, size=(50, 2))
        images = NearestImages(len(positions), layout.num_cells)
        assert_exact_distances(layout, positions, images)
        assert images.refreshes == len(positions)
        slack = images.slack_m.copy()
        assert np.all(slack < 0.5 * layout.inter_site_distance_m)
        heading = rng.normal(size=positions.shape)
        heading /= np.hypot(heading[:, 0], heading[:, 1])[:, np.newaxis]
        # Steps of 0.4 slack: certified twice, re-minimised on the third step
        # (the displacement from the anchor counts, not the step length).
        certified = slack > 0.0
        for step in (1, 2, 3):
            moved = positions + (0.4 * step * np.maximum(slack, 0.0))[:, np.newaxis] * heading
            before = images.refreshes
            assert_exact_distances(layout, moved, images)
            expected = int((~certified).sum()) if step < 3 else len(positions)
            assert images.refreshes - before == expected
        # Jumps far beyond the slack.
        jumped = moved + 5.0 * layout.cell_radius_m * heading
        before = images.refreshes
        assert_exact_distances(layout, jumped, images)
        assert images.refreshes - before == len(positions)

    @pytest.mark.parametrize("rings, wraparound", [(0, True), (2, False)])
    def test_single_image_is_certified_forever(self, rings, wraparound):
        layout = HexagonalCellLayout(num_rings=rings, wraparound=wraparound)
        rng = np.random.default_rng(9)
        positions = rng.uniform(-3000.0, 3000.0, size=(20, 2))
        images = NearestImages(len(positions), layout.num_cells)
        assert_exact_distances(layout, positions, images)
        assert np.all(np.isinf(images.slack_m))
        assert_exact_distances(layout, positions[::-1].copy(), images)
        assert images.refreshes == len(positions)

    def test_empty_population(self):
        layout = HexagonalCellLayout(num_rings=1)
        images = NearestImages(0, layout.num_cells)
        out = layout.distances_to_all_batch(np.zeros((0, 2)), images=images)
        assert out.shape == (0, layout.num_cells)
        assert images.refreshes == 0


class TestLinkGainMapImages:
    def test_direct_set_positions_stay_exact(self):
        layout = HexagonalCellLayout(num_rings=2, cell_radius_m=1000.0)
        rng = np.random.default_rng(21)
        gains = LinkGainMap(layout, 40, rng)
        positions = rng.uniform(-2500.0, 2500.0, size=(40, 2))
        for _ in range(10):
            gains.set_positions(positions)
            assert_bit_identical(gains.distances_m, per_row_distances(layout, positions))
            # Teleport some mobiles without any ``moved_m`` bookkeeping.
            positions = positions + rng.normal(0.0, 0.5, size=positions.shape)
            teleport = rng.random(40) < 0.2
            positions[teleport] = rng.uniform(-2500.0, 2500.0, size=(int(teleport.sum()), 2))

    def test_maps_sharing_a_layout_keep_their_own_images(self):
        layout = HexagonalCellLayout(num_rings=1)
        rng = np.random.default_rng(3)
        first, second = LinkGainMap(layout, 5, rng), LinkGainMap(layout, 7, rng)
        a = rng.uniform(-1500.0, 1500.0, size=(5, 2))
        b = rng.uniform(-1500.0, 1500.0, size=(7, 2))
        for _ in range(3):
            first.set_positions(a)
            second.set_positions(b)
        assert_bit_identical(first.distances_m, per_row_distances(layout, a))
        assert_bit_identical(second.distances_m, per_row_distances(layout, b))
        assert (first.image_refreshes, second.image_refreshes) == (5, 7)

    def test_empty_map(self):
        gains = LinkGainMap(HexagonalCellLayout(num_rings=1), 0, np.random.default_rng(0))
        gains.set_positions(np.zeros((0, 2)))
        assert gains.image_refreshes == 0


class TestLinkGainMapOracle:
    @pytest.mark.parametrize(
        "sigma_db, site_correlation", [(8.0, 0.5), (0.0, 0.5), (8.0, 0.0)]
    )
    def test_tracks_the_two_state_map(self, sigma_db, site_correlation):
        layout = HexagonalCellLayout(num_rings=2, cell_radius_m=1000.0)
        num_mobiles, frames = 500, 300
        kwargs = dict(shadowing_std_db=sigma_db, site_correlation=site_correlation)
        gains = LinkGainMap(layout, num_mobiles, np.random.default_rng(77), **kwargs)
        oracle = TwoStateLinkGainMap(
            layout, num_mobiles, np.random.default_rng(77), **kwargs
        )
        walk = np.random.default_rng(78)
        positions = walk.uniform(-2500.0, 2500.0, size=(num_mobiles, 2))
        gains.set_positions(positions)
        oracle.set_positions(positions)
        for frame in range(frames + 1):
            assert_bit_identical(gains.distances_m, oracle._distances)
            shadow_gap = np.abs(gains.shadowing_db() - oracle.shadowing_db()).max()
            assert shadow_gap <= 1e-12, frame
            np.testing.assert_allclose(
                gains.local_mean_gain(), oracle.local_mean_gain(), rtol=1e-12, atol=0.0
            )
            # About 30 % of the mobiles stand still every frame.
            moved = walk.uniform(0.0, 30.0, size=num_mobiles)
            moved[walk.random(num_mobiles) < 0.3] = 0.0
            heading = walk.uniform(0.0, 2.0 * np.pi, size=num_mobiles)
            positions = positions + moved[:, np.newaxis] * np.column_stack(
                (np.cos(heading), np.sin(heading))
            )
            gains.advance(positions, moved)
            oracle.advance(positions, moved)
        # Both maps drew the same numbers from their streams.
        assert gains._rng.bit_generator.state == oracle._rng.bit_generator.state


def test_fleet_run_refreshes_few_images_per_frame():
    system = SystemConfig()
    system = system.with_overrides(radio=replace(system.radio, num_rings=2))
    duration_s = 1.0
    simulator = DynamicSystemSimulator(
        fleet_scenario(system=system, num_data_users_per_cell=10,
                       num_voice_users_per_cell=10, duration_s=duration_s,
                       warmup_s=0.0),
        JabaSdScheduler("J1"),
    )
    link_gains = simulator.network.link_gains
    num_mobiles = link_gains.num_mobiles
    assert link_gains.image_refreshes == num_mobiles  # the construction pass
    simulator.run()
    frames = math.ceil(duration_s / system.mac.frame_duration_s)
    per_frame = (link_gains.image_refreshes - num_mobiles) / frames
    assert per_frame < 0.02 * num_mobiles
