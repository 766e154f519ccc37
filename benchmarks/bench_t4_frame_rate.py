"""Benchmark T4 — frame rate of the vectorised radio frame pipeline.

Measures ``CdmaNetwork.step`` throughput (frames/sec) at configurable scale
(default J=200 mobiles, K=19 cells) for two pipelines:

* ``seed_baseline`` — a faithful transcription of the seed implementation
  (per-mobile distance loops, per-frame list comprehensions, Python hand-off
  loop, double local-mean gain build, eager measurement matrices)
  monkey-patched onto the current classes.  Where the transcription cannot
  reach, the baseline silently benefits, so the reported speedups are
  *conservative*: it calls the production power-control solvers (their
  arithmetic is checked against the full-row oracle by
  ``tests/test_kernel_parity.py``), and it moves its users with the
  network's :class:`~repro.geometry.mobility.RandomDirectionFleet` kernel
  instead of one scalar model per mobile.  Its channel follows the current
  link-gain formula (path loss in dB, one ``exp``), so that its snapshots
  stay comparable bit for bit.
* ``optimized_cold`` — the vectorised pipeline (power control starts cold
  every frame); snapshot numerics, the on-demand measurement matrices
  included, are bit-identical to the seed transcription.

Emits ``BENCH_frame_rate.json`` (repo root by default) with the per-frame
timing trajectories, the speedups and the parity verdicts.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_t4_frame_rate.py [--smoke]

or under pytest (smoke scale, parity assertions only — timing is reported,
never asserted).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import types
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script invocation without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cdma.entities import MobileStation, UserClass
from repro.cdma.loading import ForwardLinkLoad, ReverseLinkLoad
from repro.cdma.network import CdmaNetwork, NetworkSnapshot
from repro.cdma.pilot import forward_pilot_ec_io, reverse_pilot_ec_io
from repro.config import SystemConfig
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import FleetMemberMobility, RandomDirectionFleet
from repro.utils.hooks import SimHooks

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_frame_rate.json"


# --------------------------------------------------------------------------
# network construction
# --------------------------------------------------------------------------
def build_network(num_mobiles: int, num_rings: int, seed: int) -> CdmaNetwork:
    """Build a reproducible network (half data / half voice users).

    The users move with a :class:`RandomDirectionFleet` passed to the
    network as its ``mobility_fleet``, as the dynamic simulator does.
    """
    config = SystemConfig()
    config = replace(config, radio=replace(config.radio, num_rings=num_rings))
    layout = HexagonalCellLayout(
        num_rings=num_rings,
        cell_radius_m=config.radio.cell_radius_m,
        wraparound=config.radio.wraparound,
    )
    rng = np.random.default_rng(seed)
    positions = np.array(
        [layout.random_position(rng) for _ in range(num_mobiles)]
    ).reshape(num_mobiles, 2)
    fleet = RandomDirectionFleet(positions, layout.bounding_box(), rng=rng)
    mobiles = [
        MobileStation(
            index=i,
            user_class=UserClass.DATA if i % 2 == 0 else UserClass.VOICE,
            mobility=FleetMemberMobility(fleet, i),
        )
        for i in range(num_mobiles)
    ]
    return CdmaNetwork(config, mobiles, rng, layout, mobility_fleet=fleet)


# --------------------------------------------------------------------------
# seed-implementation baseline (transcribed from the v0 seed commit)
# --------------------------------------------------------------------------
class _SeedActiveSetState:
    def __init__(self):
        self.active_set: List[int] = []
        self.reduced_active_set: List[int] = []
        self.serving_cell = 0

    @property
    def in_soft_handoff(self):
        return len(self.active_set) > 1


class _SeedHandoffController:
    """The seed's per-mobile Python-loop soft hand-off controller."""

    def __init__(self, template) -> None:
        self.num_mobiles = template.num_mobiles
        self.add_threshold_db = template.add_threshold_db
        self.drop_threshold_db = template.drop_threshold_db
        self.max_active_set_size = template.max_active_set_size
        self.reduced_active_set_size = template.reduced_active_set_size
        self._states = [_SeedActiveSetState() for _ in range(self.num_mobiles)]
        self.handoff_events = 0

    def update(self, pilot_ec_io: np.ndarray) -> None:
        pilots = np.asarray(pilot_ec_io, dtype=float)
        add_lin = 10.0 ** (self.add_threshold_db / 10.0)
        drop_lin = 10.0 ** (self.drop_threshold_db / 10.0)
        for j in range(self.num_mobiles):
            row = pilots[j]
            state = self._states[j]
            previous = list(state.active_set)
            retained = [k for k in state.active_set if row[k] >= drop_lin]
            order = np.argsort(row)[::-1]
            for k in order:
                k = int(k)
                if row[k] < add_lin:
                    break
                if k not in retained:
                    retained.append(k)
            if not retained:
                retained = [int(order[0])]
            retained.sort(key=lambda cell: -row[cell])
            retained = retained[: self.max_active_set_size]
            state.active_set = retained
            state.reduced_active_set = retained[: self.reduced_active_set_size]
            state.serving_cell = retained[0]
            if retained != previous:
                self.handoff_events += 1

    @property
    def states(self):
        return tuple(self._states)

    def state(self, mobile_index):
        return self._states[mobile_index]

    def active_set_matrix(self, num_cells: int) -> np.ndarray:
        out = np.zeros((self.num_mobiles, num_cells), dtype=bool)
        for j, state in enumerate(self._states):
            out[j, state.active_set] = True
        return out

    def reduced_active_set_matrix(self, num_cells: int) -> np.ndarray:
        out = np.zeros((self.num_mobiles, num_cells), dtype=bool)
        for j, state in enumerate(self._states):
            out[j, state.reduced_active_set] = True
        return out

    def serving_cells(self) -> np.ndarray:
        return np.asarray([s.serving_cell for s in self._states], dtype=int)

    def soft_handoff_fraction(self) -> float:
        if not self._states:
            return 0.0
        return float(np.mean([s.in_soft_handoff for s in self._states]))


def _seed_set_positions(self, positions):
    positions = np.asarray(positions, dtype=float).reshape(self.num_mobiles, 2)
    for j in range(self.num_mobiles):
        self._distances[j, :] = self.layout.distances_to_all(positions[j])
    self._loss_db = np.asarray(self.path_loss.loss_db(self._distances), dtype=float)
    self._local_mean_cache = None


def _seed_local_mean_gain(self):
    return np.exp((self.shadowing_db() - self._loss_db) * (math.log(10.0) / 10.0))


def _seed_positions(self):
    if not self.mobiles:
        return np.zeros((0, 2))
    return np.vstack([m.position for m in self.mobiles])


def _seed_advance(self, dt_s):
    if dt_s < 0.0:
        raise ValueError("dt_s must be non-negative")
    # The seed advanced one scalar model per mobile; the baseline advances
    # the network's fleet, which only flatters it.
    moved = self._mobility_fleet.advance(dt_s)
    positions = _seed_positions(self)
    if self.num_mobiles > 0:
        self.link_gains.advance(positions, moved)
    self._time_s += dt_s
    self._update_handoff()


def _seed_update_handoff(self):
    gains = self.link_gains.local_mean_gain()
    if gains.shape[0] == 0:
        return
    total_power = np.asarray(
        [
            bs.common_channel_power_w + self.forward_burst_power_w[bs.index]
            for bs in self.base_stations
        ]
    )
    pilot_power = np.asarray([bs.pilot_power_w for bs in self.base_stations])
    pilots = forward_pilot_ec_io(
        gains, total_power, pilot_power, self.config.radio.mobile_noise_power_w
    )
    self.handoff.update(pilots)


def _seed_snapshot(self):
    radio = self.config.radio
    phy = self.config.phy
    gains = self.link_gains.local_mean_gain()
    num_mobiles, num_cells = gains.shape if gains.size else (0, self.num_cells)
    active = np.asarray([m.fch_active for m in self.mobiles], dtype=bool)
    rate_factors = np.asarray([m.fch_rate_factor for m in self.mobiles], dtype=float)
    active_set = self.handoff.active_set_matrix(self.num_cells)
    serving = (
        self.handoff.serving_cells() if num_mobiles > 0 else np.zeros(0, dtype=int)
    )

    bs_common = np.asarray([bs.common_channel_power_w for bs in self.base_stations])
    bs_budget = np.asarray([bs.max_traffic_power_w for bs in self.base_stations])
    bs_noise = np.asarray([bs.noise_power_w for bs in self.base_stations])
    bs_pilot = np.asarray([bs.pilot_power_w for bs in self.base_stations])
    max_link_power = radio.fch_max_power_fraction * bs_budget.min()

    reverse_result = self.reverse_pc.solve(
        gains=gains,
        serving_cells=serving,
        active=active,
        noise_power_w=bs_noise,
        extra_received_power_w=self.reverse_burst_power_w,
        rate_factor=rate_factors,
    )
    forward_result = self.forward_pc.solve(
        gains=gains,
        active_set=active_set,
        active=active,
        base_power_w=bs_common,
        max_traffic_power_w=bs_budget,
        extra_traffic_power_w=self.forward_burst_power_w,
        max_link_power_w=max_link_power,
        rate_factor=rate_factors,
    )

    forward_pilots = forward_pilot_ec_io(
        gains, forward_result.total_power_w, bs_pilot, radio.mobile_noise_power_w
    )
    xi = np.asarray([m.fch_pilot_power_ratio for m in self.mobiles], dtype=float)
    fullrate_tx = np.where(
        active, reverse_result.tx_power_w / np.maximum(rate_factors, 1e-12), 0.0
    )
    mobile_pilot_tx = fullrate_tx / np.maximum(xi, 1e-12)
    reverse_pilots = reverse_pilot_ec_io(
        gains, mobile_pilot_tx, reverse_result.total_power_w
    )

    forward_traffic = forward_result.total_power_w - bs_common
    with np.errstate(divide="ignore", invalid="ignore"):
        fullrate_fch = forward_result.tx_power_w / np.maximum(
            rate_factors[:, np.newaxis], 1e-12
        )
    forward_load = ForwardLinkLoad(
        max_traffic_power_w=bs_budget,
        current_power_w=forward_traffic,
        fch_power_w=fullrate_fch,
    )
    l_max = np.asarray([bs.max_reverse_interference_w for bs in self.base_stations])
    reverse_load = ReverseLinkLoad(
        max_interference_w=l_max,
        current_interference_w=reverse_result.total_power_w,
        reverse_pilot_strength=reverse_pilots,
        forward_pilot_strength=forward_pilots,
        fch_pilot_power_ratio=xi,
    )

    target = radio.fch_ebio_target
    with np.errstate(invalid="ignore"):
        fwd_quality = np.clip(
            np.nan_to_num(forward_result.achieved_sir / target, nan=1.0), 0.0, 1.0
        )
        rev_quality = np.clip(
            np.nan_to_num(reverse_result.achieved_sir / target, nan=1.0), 0.0, 1.0
        )
    sch_csi_forward = phy.sch_reference_csi * fwd_quality
    sch_csi_reverse = phy.sch_reference_csi * rev_quality

    return NetworkSnapshot(
        time_s=self._time_s,
        gains=gains,
        forward_load=forward_load,
        reverse_load=reverse_load,
        handoff_states=self.handoff.states,
        serving_cells=serving,
        sch_mean_csi_forward=sch_csi_forward,
        sch_mean_csi_reverse=sch_csi_reverse,
        forward_pc=forward_result,
        reverse_pc=reverse_result,
    )


def make_seed_baseline(net: CdmaNetwork) -> CdmaNetwork:
    """Monkey-patch a network instance back to the seed frame pipeline."""
    net.link_gains.set_positions = types.MethodType(
        _seed_set_positions, net.link_gains
    )
    net.link_gains.local_mean_gain = types.MethodType(
        _seed_local_mean_gain, net.link_gains
    )
    net.advance = types.MethodType(_seed_advance, net)
    net._update_handoff = types.MethodType(_seed_update_handoff, net)
    net.snapshot = types.MethodType(_seed_snapshot, net)
    # Replace the vectorised hand-off controller with the seed's Python-loop
    # one and rebuild its state from the current (t=0) pilots — the resulting
    # active sets are identical, since both derive from the same measurement.
    net.handoff = _SeedHandoffController(net.handoff)
    net._update_handoff()
    return net


# --------------------------------------------------------------------------
# measurement and parity
# --------------------------------------------------------------------------
def measure(net: CdmaNetwork, frames: int, dt_s: float, warmup: int) -> Dict:
    """Time ``net.step`` over ``frames`` frames; returns the trajectory."""
    for _ in range(warmup):
        net.step(dt_s)
    ms_per_frame = _time_frames(net, frames, dt_s)
    return _summarise(ms_per_frame)


def _time_frames(net: CdmaNetwork, frames: int, dt_s: float) -> List[float]:
    ms_per_frame = []
    for _ in range(frames):
        t0 = time.perf_counter()
        net.step(dt_s)
        ms_per_frame.append(1000.0 * (time.perf_counter() - t0))
    return ms_per_frame


def _summarise(ms_per_frame: List[float]) -> Dict:
    total_s = sum(ms_per_frame) / 1000.0
    frames = len(ms_per_frame)
    return {
        "frames": frames,
        "frames_per_s": frames / total_s,
        "mean_ms_per_frame": total_s * 1000.0 / frames,
        "ms_per_frame": [round(v, 4) for v in ms_per_frame],
    }


def measure_interleaved(
    nets: Dict[str, CdmaNetwork],
    frames: int,
    dt_s: float,
    warmup: int,
    chunk: int = 10,
) -> Dict[str, Dict]:
    """Time several pipelines in round-robin chunks.

    Interleaving spreads CPU frequency/thermal drift evenly over the
    contenders instead of penalising whichever happens to run last.
    """
    for net in nets.values():
        for _ in range(warmup):
            net.step(dt_s)
    trajectories: Dict[str, List[float]] = {name: [] for name in nets}
    done = 0
    while done < frames:
        batch = min(chunk, frames - done)
        for name, net in nets.items():
            trajectories[name].extend(_time_frames(net, batch, dt_s))
        done += batch
    return {name: _summarise(ms) for name, ms in trajectories.items()}


class _CountingNoopHooks(SimHooks):
    """No-op hooks that count their own dispatches (deterministic per seed)."""

    def __init__(self):
        self.calls = 0
        self.stage_pairs = 0

    def record(self, kind, time_s=None, **fields):
        self.calls += 1
        if kind == "stage_exit":
            self.stage_pairs += 1


def _noop_call_cost_s(iterations: int = 200_000) -> float:
    """Per-call cost of a no-op hook dispatch, averaged in one timing window."""
    record = SimHooks().record
    t0 = time.perf_counter()
    for _ in range(iterations):
        record("stage_enter", 0.0, stage="mobility")
    return (time.perf_counter() - t0) / iterations


def _perf_counter_cost_s(iterations: int = 200_000) -> float:
    perf_counter = time.perf_counter
    t0 = perf_counter()
    for _ in range(iterations):
        perf_counter()
    return (perf_counter() - t0) / iterations


def measure_noop_hooks_overhead(
    num_mobiles: int,
    num_rings: int,
    frames: int,
    dt_s: float,
    warmup: int,
    seed: int,
) -> Dict:
    """Bound what installing a no-op :class:`~repro.utils.hooks.SimHooks`
    on the network costs per frame, as a fraction of the frame's cost.

    Wall-clock A/B of full pipelines cannot resolve a 2% budget on a
    shared CI core, so the overhead is composed from stable parts: the
    exact hook dispatches per ``step`` (counted by a no-op hook on a real
    run — the mobility stage pair plus its ``perf_counter`` pair), the
    per-dispatch cost averaged over 2·10^5 calls, and the hook-free frame
    cost of the optimized cold pipeline.  ``check_bench_regression.py``
    gates ``overhead_fraction`` at 2%.
    """
    counted = build_network(num_mobiles, num_rings, seed)
    counter = _CountingNoopHooks()
    counted.hooks = counter
    for _ in range(frames):
        counted.step(dt_s)
    calls_per_frame = counter.calls / frames
    stage_pairs_per_frame = counter.stage_pairs / frames

    baseline = build_network(num_mobiles, num_rings, seed)
    for _ in range(warmup):
        baseline.step(dt_s)
    frame_s = min(_time_frames(baseline, frames, dt_s)) / 1000.0

    call_cost_s = _noop_call_cost_s()
    pc_cost_s = _perf_counter_cost_s()
    hook_cost_s = (
        calls_per_frame * call_cost_s + stage_pairs_per_frame * 2.0 * pc_cost_s
    )
    return {
        "frames": frames,
        "hook_calls_per_frame": round(calls_per_frame, 3),
        "stage_pairs_per_frame": round(stage_pairs_per_frame, 3),
        "noop_call_cost_ns": round(1e9 * call_cost_s, 1),
        "perf_counter_cost_ns": round(1e9 * pc_cost_s, 1),
        "frame_ms": round(1000.0 * frame_s, 4),
        "hook_cost_ms_per_frame": round(1000.0 * hook_cost_s, 6),
        "overhead_fraction": round(hook_cost_s / frame_s, 6),
        "max_overhead_fraction": 0.02,
    }


def _snapshot_arrays(snapshot: NetworkSnapshot) -> Dict[str, np.ndarray]:
    pad = max((len(s.active_set) for s in snapshot.handoff_states), default=1)
    active_sets = np.asarray(
        [
            tuple(s.active_set) + (-1,) * (pad - len(s.active_set))
            for s in snapshot.handoff_states
        ]
    )
    return {
        "gains": snapshot.gains,
        "serving_cells": snapshot.serving_cells,
        "active_sets": active_sets,
        "forward_tx": snapshot.forward_pc.tx_power_w,
        "forward_total": snapshot.forward_pc.total_power_w,
        "forward_sir": snapshot.forward_pc.achieved_sir,
        "forward_limited": snapshot.forward_pc.power_limited,
        "reverse_tx": snapshot.reverse_pc.tx_power_w,
        "reverse_total": snapshot.reverse_pc.total_power_w,
        "reverse_sir": snapshot.reverse_pc.achieved_sir,
        "reverse_limited": snapshot.reverse_pc.power_limited,
        "sch_csi_forward": snapshot.sch_mean_csi_forward,
        "sch_csi_reverse": snapshot.sch_mean_csi_reverse,
        "reverse_pilots": snapshot.reverse_load.reverse_pilot_strength,
        "forward_pilots": snapshot.reverse_load.forward_pilot_strength,
        "forward_fch": snapshot.forward_load.fch_power_w,
        "active_membership": snapshot.active_membership(),
        "reduced_membership": snapshot.reduced_membership(),
    }


def check_parity(num_mobiles: int, num_rings: int, frames: int, dt_s: float, seed: int) -> Dict:
    """Verify the acceptance numerics: the optimized pipeline's snapshots are
    bit-identical to the seed transcription's.
    """
    baseline = make_seed_baseline(build_network(num_mobiles, num_rings, seed))
    cold = build_network(num_mobiles, num_rings, seed)
    bit_identical = True
    mismatch = None
    for _ in range(frames):
        a = _snapshot_arrays(baseline.step(dt_s))
        b = _snapshot_arrays(cold.step(dt_s))
        for key in a:
            if not np.array_equal(a[key], b[key], equal_nan=True):
                bit_identical = False
                mismatch = key
                break
        if not bit_identical:
            break
    return {"cold_bit_identical": bit_identical, "first_mismatch": mismatch}


def run_bench(
    num_mobiles: int = 200,
    num_rings: int = 2,
    frames: int = 60,
    parity_frames: int = 10,
    dt_s: float = 0.02,
    warmup: int = 5,
    seed: int = 0,
) -> Dict:
    """Run the full benchmark and return the report dictionary."""
    num_cells = HexagonalCellLayout(num_rings=num_rings).num_cells
    report = {
        "benchmark": "t4_frame_rate",
        "config": {
            "num_mobiles": num_mobiles,
            "num_cells": num_cells,
            "num_rings": num_rings,
            "frames": frames,
            "parity_frames": parity_frames,
            "dt_s": dt_s,
            "warmup_frames": warmup,
            "seed": seed,
        },
        "results": {},
    }

    nets = {
        "seed_baseline": make_seed_baseline(
            build_network(num_mobiles, num_rings, seed)
        ),
        "optimized_cold": build_network(num_mobiles, num_rings, seed),
    }
    report["results"] = measure_interleaved(nets, frames, dt_s, warmup)

    base = report["results"]["seed_baseline"]["frames_per_s"]
    report["speedup"] = {
        "optimized_cold": report["results"]["optimized_cold"]["frames_per_s"] / base
    }
    report["noop_hooks_overhead"] = measure_noop_hooks_overhead(
        num_mobiles, num_rings, frames, dt_s, warmup, seed
    )
    report["parity"] = check_parity(num_mobiles, num_rings, parity_frames, dt_s, seed)
    return report


def format_table(report: Dict) -> str:
    config = report["config"]
    lines = [
        f"T4 frame rate — J={config['num_mobiles']} mobiles, "
        f"K={config['num_cells']} cells, {config['frames']} frames",
        f"{'pipeline':<18} {'frames/s':>10} {'ms/frame':>10} {'speedup':>9}",
    ]
    base = report["results"]["seed_baseline"]["frames_per_s"]
    for name, result in report["results"].items():
        speedup = result["frames_per_s"] / base
        lines.append(
            f"{name:<18} {result['frames_per_s']:>10.1f} "
            f"{result['mean_ms_per_frame']:>10.2f} {speedup:>8.2f}x"
        )
    noop = report.get("noop_hooks_overhead")
    if noop:
        lines.append(
            f"no-op hooks: {noop['hook_calls_per_frame']:.0f} dispatches/frame "
            f"x {noop['noop_call_cost_ns']:.0f} ns = "
            f"{noop['hook_cost_ms_per_frame']:.4f} ms on a "
            f"{noop['frame_ms']:.2f} ms frame "
            f"(+{100.0 * noop['overhead_fraction']:.3f}%, budget "
            f"{100.0 * noop['max_overhead_fraction']:.0f}%)"
        )
    parity = report["parity"]
    lines.append(f"parity: cold bit-identical={parity['cold_bit_identical']}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------
def test_t4_frame_rate(benchmark, show):
    """Smoke-scale run: parity is asserted, timing is reported only."""
    report = benchmark.pedantic(
        lambda: run_bench(num_mobiles=40, num_rings=1, frames=10, parity_frames=5),
        rounds=1,
        iterations=1,
    )
    show(format_table(report))
    assert report["parity"]["cold_bit_identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--mobiles", type=int, default=200, help="J (default 200)")
    parser.add_argument(
        "--rings", type=int, default=2, help="cell rings (2 -> K=19 cells)"
    )
    parser.add_argument("--frames", type=int, default=60)
    parser.add_argument("--parity-frames", type=int, default=10)
    parser.add_argument("--dt", type=float, default=0.02, help="frame duration (s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny run for CI (J=40, K=7, 10 frames)"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)
    if args.mobiles < 0:
        parser.error("--mobiles must be non-negative")
    if args.frames < 1 or args.parity_frames < 1:
        parser.error("--frames and --parity-frames must be at least 1")
    if args.rings < 0:
        parser.error("--rings must be non-negative")
    if args.dt <= 0.0:
        parser.error("--dt must be positive")
    args.output.parent.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        report = run_bench(
            num_mobiles=40, num_rings=1, frames=10, parity_frames=5, seed=args.seed
        )
    else:
        report = run_bench(
            num_mobiles=args.mobiles,
            num_rings=args.rings,
            frames=args.frames,
            parity_frames=args.parity_frames,
            dt_s=args.dt,
            seed=args.seed,
        )
    print(format_table(report))
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 0 if report["parity"]["cold_bit_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
