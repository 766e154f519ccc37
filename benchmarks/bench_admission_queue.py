"""Benchmark — batched vs scalar burst-admission measurement builders.

Sweeps the pending-queue length Q (default Q ∈ {4, 16, 64, 256}) on a K=19
cell system and times the forward + reverse admissible-region builders
(eqs. (6)–(18)) in two implementations:

* ``scalar`` — the per-request / per-cell oracle loop kept in
  ``tests/oracles/measurement.py`` (the seed implementation's semantics);
* ``batched`` — the queue-wide array kernels (``ForwardLinkMeasurement.build``
  and ``ReverseLinkMeasurement.build``, the production path).

Every timed queue is also checked for **bit-identical** parity
(``np.array_equal`` on the region matrix and bounds) between the two
implementations, so the speedup never comes at the cost of the numerics.

Emits ``BENCH_admission.json`` (repo root by default) with the per-repetition
timing trajectories, the builds/sec throughput and the speedup per queue
length.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_admission_queue.py [--smoke]

or under pytest (smoke scale, parity assertions only — timing is reported,
never asserted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

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

from repro.cdma.entities import MobileStation, UserClass
from repro.cdma.network import CdmaNetwork, NetworkSnapshot
from repro.config import SystemConfig
from repro.geometry.hexgrid import HexagonalCellLayout
from repro.geometry.mobility import RandomDirectionMobility
from repro.mac.measurement import ForwardLinkMeasurement, ReverseLinkMeasurement
from repro.mac.requests import BurstRequest, LinkDirection
from tests.oracles.measurement import forward_build, reverse_build

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_admission.json"
DEFAULT_QUEUES = (4, 16, 64, 256)


# --------------------------------------------------------------------------
# snapshot construction
# --------------------------------------------------------------------------
def build_snapshot(num_mobiles: int, num_rings: int, seed: int):
    """A settled (post-warm-up) network snapshot at the requested scale."""
    from dataclasses import replace

    config = SystemConfig()
    config = replace(config, radio=replace(config.radio, num_rings=num_rings))
    layout = HexagonalCellLayout(
        num_rings=num_rings,
        cell_radius_m=config.radio.cell_radius_m,
        wraparound=config.radio.wraparound,
    )
    rng = np.random.default_rng(seed)
    bounds = layout.bounding_box()
    mobiles = [
        MobileStation(
            index=i,
            user_class=UserClass.DATA if i % 2 == 0 else UserClass.VOICE,
            mobility=RandomDirectionMobility(
                layout.random_position(rng), bounds, rng=rng
            ),
        )
        for i in range(num_mobiles)
    ]
    network = CdmaNetwork(config, mobiles, rng, layout)
    # A few frames of mobility/hand-off so the active sets are heterogeneous.
    for _ in range(5):
        network.advance(0.02)
    return network.snapshot(), config


def make_requests(
    queue_length: int, link: LinkDirection, num_mobiles: int, rng: np.random.Generator
) -> List[BurstRequest]:
    """A pending queue of ``queue_length`` requests over random requesters.

    Mobiles are sampled with replacement: under heavy load one user can have
    several packet calls waiting, exactly as in the dynamic simulation.
    """
    indices = rng.integers(0, num_mobiles, size=queue_length)
    return [
        BurstRequest(
            mobile_index=int(j),
            link=link,
            size_bits=float(rng.integers(24_000, 1_200_000)),
            arrival_time_s=-float(rng.random()),
        )
        for j in indices
    ]


# --------------------------------------------------------------------------
# measurement and parity
# --------------------------------------------------------------------------
def _time_builds(
    forward: Callable,
    reverse: Callable,
    snapshot: NetworkSnapshot,
    fwd_requests: List[BurstRequest],
    rev_requests: List[BurstRequest],
    repeats: int,
) -> List[float]:
    """Milliseconds per (forward + reverse) region build, one entry per rep."""
    ms_per_build = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        forward(snapshot, fwd_requests)
        reverse(snapshot, rev_requests)
        ms_per_build.append(1000.0 * (time.perf_counter() - t0))
    return ms_per_build


def _summarise(ms_per_build: List[float]) -> Dict:
    total_s = sum(ms_per_build) / 1000.0
    builds = len(ms_per_build)
    return {
        "builds": builds,
        "builds_per_s": builds / total_s,
        "mean_ms_per_build": total_s * 1000.0 / builds,
        "ms_per_build": [round(v, 4) for v in ms_per_build],
    }


def check_parity(
    config: SystemConfig,
    snapshot: NetworkSnapshot,
    fwd_requests: List[BurstRequest],
    rev_requests: List[BurstRequest],
    scrm_max_pilots: int,
) -> Dict:
    """Bit-identical comparison of the two implementations on one queue."""
    forward = ForwardLinkMeasurement(config.phy, config.mac)
    reverse = ReverseLinkMeasurement(
        config.phy, config.mac, scrm_max_pilots=scrm_max_pilots
    )
    fa = forward_build(forward, snapshot, fwd_requests)
    fb = forward.build(snapshot, fwd_requests)
    ra = reverse_build(reverse, snapshot, rev_requests)
    rb = reverse.build(snapshot, rev_requests)
    return {
        "forward_matrix_equal": bool(np.array_equal(fa.matrix, fb.matrix)),
        "forward_bounds_equal": bool(np.array_equal(fa.bounds, fb.bounds)),
        "reverse_matrix_equal": bool(np.array_equal(ra.matrix, rb.matrix)),
        "reverse_bounds_equal": bool(np.array_equal(ra.bounds, rb.bounds)),
    }


def run_bench(
    num_mobiles: int = 300,
    num_rings: int = 2,
    queue_lengths=DEFAULT_QUEUES,
    repeats: int = 20,
    scrm_max_pilots: int = 8,
    seed: int = 0,
) -> Dict:
    """Run the full queue-length sweep and return the report dictionary."""
    snapshot, config = build_snapshot(num_mobiles, num_rings, seed)
    request_rng = np.random.default_rng(seed + 1)
    num_cells = snapshot.num_cells

    report = {
        "benchmark": "admission_queue",
        "config": {
            "num_mobiles": num_mobiles,
            "num_cells": num_cells,
            "num_rings": num_rings,
            "queue_lengths": list(queue_lengths),
            "repeats": repeats,
            "scrm_max_pilots": scrm_max_pilots,
            "seed": seed,
        },
        "results": {},
        "speedup_trajectory": {},
        "parity_all_equal": True,
    }

    forward = ForwardLinkMeasurement(config.phy, config.mac)
    reverse = ReverseLinkMeasurement(
        config.phy, config.mac, scrm_max_pilots=scrm_max_pilots
    )
    builders = {
        "scalar": (
            lambda snap, requests: forward_build(forward, snap, requests),
            lambda snap, requests: reverse_build(reverse, snap, requests),
        ),
        "batched": (forward.build, reverse.build),
    }

    for queue_length in queue_lengths:
        fwd_requests = make_requests(
            queue_length, LinkDirection.FORWARD, num_mobiles, request_rng
        )
        rev_requests = make_requests(
            queue_length, LinkDirection.REVERSE, num_mobiles, request_rng
        )
        parity = check_parity(
            config, snapshot, fwd_requests, rev_requests, scrm_max_pilots
        )
        report["parity_all_equal"] &= all(parity.values())

        # Interleave the two implementations in alternating chunks so CPU
        # frequency drift does not bias whichever runs last.
        trajectories = {name: [] for name in builders}
        chunk = max(1, repeats // 4)
        done = 0
        # warm-up (kernel compilation / cache effects), untimed
        for name, (fwd, rev) in builders.items():
            _time_builds(fwd, rev, snapshot, fwd_requests, rev_requests, 1)
        while done < repeats:
            batch = min(chunk, repeats - done)
            for name, (fwd, rev) in builders.items():
                trajectories[name].extend(
                    _time_builds(fwd, rev, snapshot, fwd_requests, rev_requests, batch)
                )
            done += batch

        entry = {name: _summarise(ms) for name, ms in trajectories.items()}
        entry["speedup"] = (
            entry["batched"]["builds_per_s"] / entry["scalar"]["builds_per_s"]
        )
        entry["parity"] = parity
        report["results"][f"Q={queue_length}"] = entry
        report["speedup_trajectory"][str(queue_length)] = entry["speedup"]

    return report


def format_table(report: Dict) -> str:
    config = report["config"]
    lines = [
        f"Admission builders — J={config['num_mobiles']} mobiles, "
        f"K={config['num_cells']} cells, {config['repeats']} builds per point",
        f"{'queue':>6} {'scalar ms':>11} {'batched ms':>11} {'speedup':>9} {'parity':>7}",
    ]
    for queue_length in config["queue_lengths"]:
        entry = report["results"][f"Q={queue_length}"]
        parity_ok = all(entry["parity"].values())
        lines.append(
            f"{queue_length:>6} {entry['scalar']['mean_ms_per_build']:>11.3f} "
            f"{entry['batched']['mean_ms_per_build']:>11.3f} "
            f"{entry['speedup']:>8.1f}x {'ok' if parity_ok else 'FAIL':>7}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------
def test_admission_queue(benchmark, show):
    """Smoke-scale run: parity is asserted, timing is reported only."""
    report = benchmark.pedantic(
        lambda: run_bench(
            num_mobiles=60, num_rings=1, queue_lengths=(4, 32), repeats=5
        ),
        rounds=1,
        iterations=1,
    )
    show(format_table(report))
    assert report["parity_all_equal"]
    largest = f"Q={report['config']['queue_lengths'][-1]}"
    assert report["results"][largest]["speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--mobiles", type=int, default=300, help="J (default 300)")
    parser.add_argument(
        "--rings", type=int, default=2, help="cell rings (2 -> K=19 cells)"
    )
    parser.add_argument(
        "--queues",
        type=int,
        nargs="+",
        default=list(DEFAULT_QUEUES),
        help="queue lengths to sweep",
    )
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--scrm-max-pilots", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny run for CI (J=60, K=7)"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON report path"
    )
    args = parser.parse_args(argv)
    if args.mobiles < 1:
        parser.error("--mobiles must be positive")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.rings < 0:
        parser.error("--rings must be non-negative")
    if any(q < 0 for q in args.queues):
        parser.error("--queues entries must be non-negative")
    args.output.parent.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        report = run_bench(
            num_mobiles=60,
            num_rings=1,
            queue_lengths=(4, 32),
            repeats=5,
            seed=args.seed,
        )
    else:
        report = run_bench(
            num_mobiles=args.mobiles,
            num_rings=args.rings,
            queue_lengths=tuple(args.queues),
            repeats=args.repeats,
            scrm_max_pilots=args.scrm_max_pilots,
            seed=args.seed,
        )
    print(format_table(report))
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 0 if report["parity_all_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
