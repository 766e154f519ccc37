"""Benchmark — the structure-of-arrays user fleets of the dynamic simulator.

Sweeps the population size J (default J ∈ {200, 2000, 20000}) on a K=19
cell system and times the per-frame *per-user simulation layer* of
:class:`repro.simulation.DynamicSystemSimulator` — voice on/off activity,
packet-call arrivals, data-channel activity, MAC state machines and
mobility, run by the fleet kernels (``VoiceFleet``, ``DataTrafficFleet``,
``MacStateFleet``, ``RandomDirectionFleet``).

Every run is the *full* dynamic simulation (admission, power control,
propagation included); only the five per-user stages are timed, via
:class:`repro.utils.hooks.StageTimingHooks`.  The mean reading time scales
with J so the admission queue carries a comparable load at every sweep
point.  The end-to-end speed of the fleet path is measured by the
``fleet-20k`` workload of ``perfbench/run.py``.

The fleets own their own seeded random streams (see the fleet RNG contract
in ``benchmarks/README.md``), so parity with the per-user reference models
(``OnOffVoiceSource``, ``PacketCallDataSource``, ``MacStateMachine`` and
``RandomDirectionMobility`` from ``tests/oracles/mobility.py``) is checked
*statistically* at kernel level —
voice activity fraction, packet-call rate / size distribution (KS
distance), mobility speed — plus a bit-exactness check of the deterministic
MAC fleet.

A J=10⁵ demonstration runs the standalone fleet kernels and (full mode
only) complete dynamic-simulator frames at 100k users.

Emits ``BENCH_fleet.json`` (repo root by default)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--smoke]

or runs under pytest at smoke scale (parity asserted, timing reported).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script invocation without PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))
try:
    import tests.oracles  # noqa: F401
except ImportError:  # pragma: no cover - the repo root is not on sys.path
    sys.path.insert(0, str(ROOT))

from repro.config import MacConfig, SystemConfig
from repro.geometry.mobility import RandomDirectionFleet
from repro.mac import JabaSdScheduler
from repro.mac.states import MacStateFleet, MacStateMachine
from repro.simulation import DynamicSystemSimulator, ScenarioConfig
from repro.simulation.scenario import TrafficConfig
from repro.traffic.data import DataTrafficFleet, PacketCallDataSource, TruncatedParetoSize
from repro.traffic.voice import OnOffVoiceSource, VoiceFleet
from repro.utils.hooks import SimHooks, StageTimingHooks
from tests.oracles.mobility import RandomDirectionMobility

DEFAULT_OUTPUT = ROOT / "BENCH_fleet.json"
DEFAULT_POPULATIONS = (200, 2000, 20000)
STAGES = ("voice", "arrivals", "data_activity", "mac", "mobility")
BASE_READING_TIME_S = 4.0
BASE_POPULATION = 200  # reading time scales as J / BASE_POPULATION


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------
def make_scenario(population: int, num_rings: int, frames: int, seed: int):
    """Scenario with ~``population`` users split evenly over data/voice."""
    system = SystemConfig()
    system = system.with_overrides(radio=replace(system.radio, num_rings=num_rings))
    num_cells = 1 + 3 * num_rings * (num_rings + 1)
    per_cell = max(1, round(population / (2 * num_cells)))
    frame_s = system.mac.frame_duration_s
    actual = 2 * per_cell * num_cells
    scenario = ScenarioConfig(
        system=system,
        num_data_users_per_cell=per_cell,
        num_voice_users_per_cell=per_cell,
        duration_s=frames * frame_s,
        warmup_s=0.0,
        seed=seed,
        traffic=TrafficConfig(
            # Constant aggregate offered load across the sweep: the measured
            # overhead is the per-user bookkeeping, not queueing effects.
            mean_reading_time_s=BASE_READING_TIME_S * max(1.0, actual / BASE_POPULATION),
            packet_call_min_bits=24_000.0,
            packet_call_max_bits=200_000.0,
        ),
    )
    return scenario, actual, frame_s


def time_stages(population: int, num_rings: int, frames: int, seed: int) -> Dict:
    """One full simulator run; returns per-stage and total ms/frame."""
    scenario, actual, _ = make_scenario(population, num_rings, frames, seed)
    timing = StageTimingHooks()
    simulator = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"), hooks=timing)
    t0 = time.perf_counter()
    simulator.run()
    wall_s = time.perf_counter() - t0
    stage_ms = {
        name: 1000.0 * timing.totals.get(name, 0.0) / frames for name in STAGES
    }
    return {
        "population": actual,
        "stage_ms_per_frame": {k: round(v, 4) for k, v in stage_ms.items()},
        "overhead_ms_per_frame": round(sum(stage_ms.values()), 4),
        "wall_s": round(wall_s, 3),
    }


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
        record("stage_enter", 0.0, stage="mac")
    return (time.perf_counter() - t0) / iterations


def _perf_counter_cost_s(iterations: int = 200_000) -> float:
    perf_counter = time.perf_counter
    t0 = perf_counter()
    for _ in range(iterations):
        perf_counter()
    return (perf_counter() - t0) / iterations


def measure_noop_hooks_overhead(
    population: int, num_rings: int, frames: int, seed: int, repeats: int = 3
) -> Dict:
    """Bound what installing a no-op :class:`~repro.utils.hooks.SimHooks`
    costs per dynamic frame, as a fraction of the frame's cost.

    A direct wall-clock A/B of full runs cannot resolve a 2% budget on a
    shared CI core (run-to-run noise is an order of magnitude larger), so
    the overhead is *composed* from quantities that measure stably:

    * the exact number of hook dispatches per frame, counted by a no-op
      hook during a real run (deterministic for a given seed);
    * the per-dispatch cost of a no-op hook call and of the
      ``perf_counter`` pair each instrumented stage adds, each averaged
      over 2·10^5 calls inside one timing window;
    * the hook-free frame cost, the minimum wall time over ``repeats``
      default-path runs.

    The resulting ``overhead_fraction`` is what
    ``check_bench_regression.py`` gates at 2%: it grows if dispatch sites
    multiply, if the no-op dispatch stops being trivial, or if the frame
    itself gets dramatically cheaper relative to the instrumentation.
    """
    scenario, actual, _ = make_scenario(population, num_rings, frames, seed)

    counter = _CountingNoopHooks()
    DynamicSystemSimulator(scenario, JabaSdScheduler("J1"), hooks=counter).run()
    calls_per_frame = counter.calls / frames
    stage_pairs_per_frame = counter.stage_pairs / frames

    def run_once():
        simulator = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"))
        t0 = time.perf_counter()
        simulator.run()
        return time.perf_counter() - t0

    run_once()  # warm caches / allocators before timing
    frame_s = min(run_once() for _ in range(repeats)) / frames

    call_cost_s = _noop_call_cost_s()
    pc_cost_s = _perf_counter_cost_s()
    hook_cost_s = (
        calls_per_frame * call_cost_s + stage_pairs_per_frame * 2.0 * pc_cost_s
    )
    return {
        "population": actual,
        "frames": frames,
        "repeats": repeats,
        "hook_calls_per_frame": round(calls_per_frame, 3),
        "stage_pairs_per_frame": round(stage_pairs_per_frame, 3),
        "noop_call_cost_ns": round(1e9 * call_cost_s, 1),
        "perf_counter_cost_ns": round(1e9 * pc_cost_s, 1),
        "frame_ms": round(1000.0 * frame_s, 4),
        "hook_cost_ms_per_frame": round(1000.0 * hook_cost_s, 6),
        "overhead_fraction": round(hook_cost_s / frame_s, 6),
        "max_overhead_fraction": 0.02,
    }


# --------------------------------------------------------------------------
# statistical parity (fleet RNG contract)
# --------------------------------------------------------------------------
def ks_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    a = np.sort(np.asarray(samples_a))
    b = np.sort(np.asarray(samples_b))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / max(a.size, 1)
    cdf_b = np.searchsorted(b, grid, side="right") / max(b.size, 1)
    return float(np.max(np.abs(cdf_a - cdf_b))) if grid.size else 0.0


def check_parity(num_users: int, seed: int) -> Dict:
    """Kernel-level fleet-vs-reference-model distribution checks."""
    rng = np.random.default_rng(seed)
    verdicts = {}

    # Voice: long-run activity fraction of both implementations.
    frames, dt = 3000, 0.02
    sources = [
        OnOffVoiceSource(rng=np.random.default_rng(rng.integers(2**63)))
        for _ in range(num_users)
    ]
    fleet = VoiceFleet(num_users, rng=np.random.default_rng(rng.integers(2**63)))
    scalar_active = fleet_active = 0
    for _ in range(frames):
        scalar_active += sum(s.advance(dt) for s in sources)
        fleet_active += int(fleet.advance(dt).sum())
    scalar_fraction = scalar_active / (num_users * frames)
    fleet_fraction = fleet_active / (num_users * frames)
    verdicts["voice_activity_close"] = bool(
        abs(fleet_fraction - scalar_fraction) < 0.03
        and abs(fleet_fraction - fleet.activity_factor) < 0.03
    )

    # Data: packet-call count and size distribution over a long window.
    until_s = 400.0
    dist = TruncatedParetoSize(
        shape=1.8, minimum_bits=24_000.0, maximum_bits=1_200_000.0
    )
    scalar_sizes = []
    for _ in range(num_users):
        source = PacketCallDataSource(
            mean_reading_time_s=BASE_READING_TIME_S,
            size_distribution=dist,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        scalar_sizes.extend(call.size_bits for call in source.pull_arrivals(until_s))
    data_fleet = DataTrafficFleet(
        num_users,
        mean_reading_time_s=BASE_READING_TIME_S,
        size_distribution=dist,
        rng=np.random.default_rng(rng.integers(2**63)),
    )
    fleet_sizes = data_fleet.pull_arrivals(until_s).size_bits
    count_ratio = len(fleet_sizes) / max(len(scalar_sizes), 1)
    verdicts["arrival_count_close"] = bool(abs(count_ratio - 1.0) < 0.1)
    verdicts["size_distribution_close"] = bool(
        ks_distance(np.asarray(scalar_sizes), fleet_sizes) < 0.05
    )

    # MAC: deterministic — bit-exact against the reference machines.
    config = MacConfig()
    mac_fleet = MacStateFleet(num_users, config)
    machines = [MacStateMachine(config=config) for _ in range(num_users)]
    mac_rng = np.random.default_rng(seed + 1)
    for _ in range(300):
        active = mac_rng.random(num_users) < 0.25
        mac_fleet.advance(dt, active)
        for machine, flag in zip(machines, active):
            machine.advance(dt, bool(flag))
    verdicts["mac_bit_exact"] = bool(
        np.array_equal(
            mac_fleet.state_codes,
            np.asarray(
                [mac_fleet.STATE_OF_CODE.index(m.state) for m in machines],
                dtype=np.int8,
            ),
        )
        and np.array_equal(
            mac_fleet.idle_times_s, np.asarray([m.idle_time_s for m in machines])
        )
    )

    # Mobility: travelled distance against the reference ensemble mean speed.
    bounds = (-1000.0, 1000.0, -1000.0, 1000.0)
    speed = (0.83, 13.9)
    positions = np.column_stack(
        [rng.uniform(-900, 900, num_users), rng.uniform(-900, 900, num_users)]
    )
    models = [
        RandomDirectionMobility(
            positions[i], bounds, speed_m_s=speed, mean_epoch_s=5.0,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        for i in range(num_users)
    ]
    mob_fleet = RandomDirectionFleet(
        positions, bounds, speed_m_s=speed, mean_epoch_s=5.0,
        rng=np.random.default_rng(rng.integers(2**63)),
    )
    mobility_frames = 500
    scalar_travel = fleet_travel = 0.0
    moved = np.zeros(num_users)
    for _ in range(mobility_frames):
        scalar_travel += sum(m.advance(dt) for m in models)
        mob_fleet.advance(dt, out_moved=moved)
        fleet_travel += float(moved.sum())
    # Both ensembles must track the analytic mean speed; the ensembles are
    # independent, so anchor each to the closed form rather than comparing
    # two noisy sample means against each other.
    expected_travel = num_users * mobility_frames * dt * 0.5 * (speed[0] + speed[1])
    verdicts["mobility_travel_close"] = bool(
        abs(scalar_travel / expected_travel - 1.0) < 0.08
        and abs(fleet_travel / expected_travel - 1.0) < 0.08
    )
    in_bounds = (
        np.all(mob_fleet.positions[:, 0] >= bounds[0])
        and np.all(mob_fleet.positions[:, 0] <= bounds[1])
        and np.all(mob_fleet.positions[:, 1] >= bounds[2])
        and np.all(mob_fleet.positions[:, 1] <= bounds[3])
    )
    verdicts["mobility_in_bounds"] = bool(in_bounds)
    return verdicts


# --------------------------------------------------------------------------
# J = 1e5 demonstration
# --------------------------------------------------------------------------
def demo_standalone_kernels(num_users: int, frames: int, seed: int) -> Dict:
    """Advance the bare fleet kernels at ``num_users`` scale (no entities)."""
    rng = np.random.default_rng(seed)
    num_voice = num_users // 2
    num_data = num_users - num_voice
    voice = VoiceFleet(num_voice, rng=np.random.default_rng(rng.integers(2**63)))
    data = DataTrafficFleet(
        num_data,
        mean_reading_time_s=BASE_READING_TIME_S * num_data / BASE_POPULATION,
        rng=np.random.default_rng(rng.integers(2**63)),
    )
    mac = MacStateFleet(num_data, MacConfig())
    bounds = (-5000.0, 5000.0, -5000.0, 5000.0)
    mobility = RandomDirectionFleet(
        np.column_stack(
            [rng.uniform(-4500, 4500, num_users), rng.uniform(-4500, 4500, num_users)]
        ),
        bounds,
        speed_m_s=(0.83, 13.9),
        mean_epoch_s=20.0,
        rng=np.random.default_rng(rng.integers(2**63)),
    )
    dt = 0.02
    moved = np.zeros(num_users)
    active = np.zeros(num_data, dtype=bool)
    times = {name: 0.0 for name in ("voice", "arrivals", "mac", "mobility")}
    now = 0.0
    arrival_count = 0
    for _ in range(frames):
        now += dt
        t0 = time.perf_counter()
        voice.advance(dt)
        times["voice"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        arrival_count += len(data.pull_arrivals(now))
        times["arrivals"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        mac.advance(dt, active)
        times["mac"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        mobility.advance(dt, out_moved=moved)
        times["mobility"] += time.perf_counter() - t0
    total_ms = 1000.0 * sum(times.values()) / frames
    return {
        "num_users": num_users,
        "frames": frames,
        "packet_calls_generated": arrival_count,
        "kernel_ms_per_frame": {
            name: round(1000.0 * v / frames, 3) for name, v in times.items()
        },
        "total_kernel_ms_per_frame": round(total_ms, 3),
    }


def demo_full_simulator(num_users: int, frames: int, num_rings: int, seed: int) -> Dict:
    """Complete dynamic-simulator frames at ``num_users`` scale."""
    scenario, actual, _ = make_scenario(num_users, num_rings, frames, seed)
    timing = StageTimingHooks()
    t0 = time.perf_counter()
    simulator = DynamicSystemSimulator(scenario, JabaSdScheduler("J1"), hooks=timing)
    construction_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulator.run()
    run_s = time.perf_counter() - t0
    return {
        "num_users": actual,
        "frames": frames,
        "construction_s": round(construction_s, 2),
        "s_per_frame": round(run_s / frames, 3),
        "fleet_overhead_ms_per_frame": round(
            1000.0 * sum(timing.totals.values()) / frames, 3
        ),
    }


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------
def run_bench(
    populations=DEFAULT_POPULATIONS,
    num_rings: int = 2,
    frames: int = 40,
    repeats: int = 3,
    seed: int = 42,
    parity_users: int = 300,
    demo_users: int = 100_000,
    demo_frames: int = 5,
    full_demo: bool = True,
) -> Dict:
    parity = check_parity(parity_users, seed)
    num_cells = 1 + 3 * num_rings * (num_rings + 1)
    report = {
        "benchmark": "fleet",
        "config": {
            "populations": list(populations),
            "num_cells": num_cells,
            "num_rings": num_rings,
            "frames": frames,
            "repeats": repeats,
            "parity_users": parity_users,
            "seed": seed,
        },
        "results": {},
        "parity": parity,
        "parity_all_ok": all(parity.values()),
    }

    for population in populations:
        # Keep the best (least noisy) of the repeated runs.
        runs = [time_stages(population, num_rings, frames, seed) for _ in range(repeats)]
        report["results"][f"J={population}"] = min(
            runs, key=lambda entry: entry["overhead_ms_per_frame"]
        )

    report["noop_hooks_overhead"] = measure_noop_hooks_overhead(
        populations[0], num_rings, frames, seed, repeats=max(repeats, 3)
    )
    report["demo_100k"] = {
        "kernels": demo_standalone_kernels(demo_users, max(demo_frames, 3), seed)
    }
    if full_demo:
        report["demo_100k"]["full_simulator"] = demo_full_simulator(
            demo_users, demo_frames, num_rings, seed
        )
    return report


def format_table(report: Dict) -> str:
    config = report["config"]
    lines = [
        f"User fleets — K={config['num_cells']} cells, {config['frames']} frames, "
        f"best of {config['repeats']} runs "
        f"(per-frame traffic+MAC+mobility overhead)",
        f"{'J':>8} {'fleet ms':>10}",
    ]
    for population in config["populations"]:
        entry = report["results"][f"J={population}"]
        lines.append(
            f"{entry['population']:>8} {entry['overhead_ms_per_frame']:>10.3f}"
        )
    demo = report["demo_100k"]["kernels"]
    lines.append(
        f"J=10^5 demo: fleet kernels {demo['total_kernel_ms_per_frame']:.1f} "
        f"ms/frame over {demo['num_users']} users"
    )
    full = report["demo_100k"].get("full_simulator")
    if full:
        lines.append(
            f"             full dynamic frame {full['s_per_frame']:.2f} s "
            f"(fleet stages {full['fleet_overhead_ms_per_frame']:.1f} ms) "
            f"at J={full['num_users']}"
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
    lines.append(f"parity: {'ok' if report['parity_all_ok'] else 'FAIL'}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------
def test_fleet(benchmark, show):
    """Smoke-scale run: parity is asserted, timing is reported only."""
    report = benchmark.pedantic(
        lambda: run_bench(
            populations=(100, 600),
            num_rings=1,
            frames=15,
            repeats=1,
            parity_users=120,
            demo_users=20_000,
            demo_frames=3,
            full_demo=False,
        ),
        rounds=1,
        iterations=1,
    )
    show(format_table(report))
    assert report["parity_all_ok"], report["parity"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--populations",
        type=int,
        nargs="+",
        default=list(DEFAULT_POPULATIONS),
        help="population sizes J to sweep",
    )
    parser.add_argument(
        "--rings", type=int, default=2, help="cell rings (2 -> K=19 cells)"
    )
    parser.add_argument("--frames", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--parity-users", type=int, default=300)
    parser.add_argument("--demo-users", type=int, default=100_000)
    parser.add_argument("--demo-frames", type=int, default=5)
    parser.add_argument(
        "--no-full-demo",
        action="store_true",
        help="skip the full-simulator J=1e5 demonstration",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny run for CI (J in {100, 600}, K=7)"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)
    if any(p < 1 for p in args.populations):
        parser.error("--populations entries must be positive")
    if args.frames < 1 or args.repeats < 1:
        parser.error("--frames and --repeats must be at least 1")
    args.output.parent.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        report = run_bench(
            populations=(100, 600),
            num_rings=1,
            frames=15,
            repeats=1,
            seed=args.seed,
            parity_users=120,
            demo_users=20_000,
            demo_frames=3,
            full_demo=False,
        )
    else:
        report = run_bench(
            populations=tuple(args.populations),
            num_rings=args.rings,
            frames=args.frames,
            repeats=args.repeats,
            seed=args.seed,
            parity_users=args.parity_users,
            demo_users=args.demo_users,
            demo_frames=args.demo_frames,
            full_demo=not args.no_full_demo,
        )
    print(format_table(report))
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 0 if report["parity_all_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
