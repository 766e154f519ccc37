"""CI benchmark regression gate.

Compares the smoke-scale reports of the perf harnesses
(``bench_t4_frame_rate.py``, ``bench_admission_queue.py``,
``bench_solvers.py``, ``bench_fleet.py``, ``bench_campaign.py``) against
committed baselines and fails (non-zero exit) when the optimized paths
regress:

* every parity verdict in the smoke reports must hold (the optimized kernels
  must still produce the guaranteed numerics; the user fleets must still
  match their per-user reference models);
* each gated *speedup* — optimized-over-oracle throughput measured inside
  one process — must stay above ``min_ratio_vs_baseline`` (default 0.7,
  i.e. fail on a >30 % throughput drop) of its baseline value (the fleet
  report has no speedup: the per-user objects it was measured against are
  no longer a simulator path, and ``perfbench``'s ``fleet-20k`` workload
  measures the fleet path end to end);
* the telemetry hook points must stay ~free: what installing a no-op
  ``SimHooks`` adds to a dynamic-simulator frame over the default
  ``hooks=None`` path (``noop_hooks_overhead`` in the fleet report; the
  simulator's frame loop is the one layer that records stages) must not
  exceed its 2% overhead budget.

Two baseline sources are consulted:

* ``benchmarks/bench_baselines.json`` — smoke-scale reference speedups
  recorded with the exact ``--smoke`` configurations CI runs (speedup ratios
  transfer across machines, but not across sweep scales, so same-scale
  references are required);
* ``BENCH_solvers.json`` at the repository root — the solver smoke sweep
  shares its Q=16/Q=64 points and branch-and-bound budget with the committed
  full run, so those entries are additionally gated against the full
  baseline directly.

Baseline speedups below ``noise_floor_speedup`` are not gated: at smoke
scale a ~1x ratio is dominated by measurement noise, and gating it would
only make CI flaky.

Usage (CI runs exactly this)::

    python benchmarks/check_bench_regression.py \
        --frame-rate BENCH_frame_rate.smoke.json \
        --admission BENCH_admission.smoke.json \
        --solvers BENCH_solvers.smoke.json \
        --fleet BENCH_fleet.smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BASELINES = Path(__file__).resolve().parent / "bench_baselines.json"
DEFAULT_FULL_SOLVERS = REPO_ROOT / "BENCH_solvers.json"


def _load(path: Path) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def _gate_noop_hooks_overhead(name: str, report: Dict, failures: List[str]) -> None:
    """Fail when the installed-no-op-hooks A/B exceeds its overhead budget.

    The default ``hooks=None`` path is gated implicitly by the throughput
    baselines; this additionally bounds what merely *installing* a no-op
    observer may cost.
    """
    overhead = report.get("noop_hooks_overhead", {})
    if not overhead:
        failures.append(f"{name}: noop_hooks_overhead section missing from report")
        return
    measured = float(overhead.get("overhead_fraction", 0.0))
    budget = float(overhead.get("max_overhead_fraction", 0.02))
    verdict = "ok" if measured <= budget else "REGRESSION"
    print(
        f"  {name}[noop_hooks_overhead]: {measured * 100:+.2f}% "
        f"(budget {budget * 100:.0f}%) -> {verdict}"
    )
    if measured > budget:
        failures.append(
            f"{name}: no-op hooks overhead {measured * 100:.2f}% exceeds "
            f"the {budget * 100:.0f}% budget"
        )


def _frame_rate_measurements(report: Dict) -> Tuple[Dict[str, float], List[str]]:
    failures = []
    parity = report.get("parity", {})
    if not parity.get("cold_bit_identical", False):
        failures.append("frame_rate: cold pipeline is no longer bit-identical")
    return dict(report.get("speedup", {})), failures


def _admission_measurements(report: Dict) -> Tuple[Dict[str, float], List[str]]:
    failures = []
    if not report.get("parity_all_equal", False):
        failures.append("admission: batched/scalar builders are no longer equal")
    return dict(report.get("speedup_trajectory", {})), failures


def _solvers_measurements(report: Dict) -> Tuple[Dict[str, float], List[str]]:
    failures = []
    if not report.get("parity_all_equal", False):
        failures.append("solvers: batched/scalar back-ends are no longer equal")
    measurements = {}
    for backend, per_queue in report.get("speedup_trajectory", {}).items():
        for queue, speedup in per_queue.items():
            measurements[f"{backend}:{queue}"] = speedup
    return measurements, failures


def _fleet_measurements(report: Dict) -> Tuple[Dict[str, float], List[str]]:
    failures = []
    if not report.get("parity_all_ok", False):
        broken = [
            name
            for name, verdict in report.get("parity", {}).items()
            if not verdict
        ]
        failures.append(
            "fleet: fleet/reference-model statistical parity broke "
            f"({', '.join(broken) or 'unknown check'})"
        )
    _gate_noop_hooks_overhead("fleet", report, failures)
    return {}, failures


def _campaign_measurements(report: Dict) -> Tuple[Dict[str, float], List[str]]:
    failures = []
    scaling = report.get("coverage_scaling", {})
    if not scaling.get("parity_bit_identical", False):
        failures.append(
            "campaign: aggregates are no longer bit-identical across worker counts"
        )
    # Worker-scaling throughput is hardware-bound (CI runners vary in core
    # count), so only the determinism contract is gated, not the speedups.
    # The resilient executor's aggregates must match the pool's bit-for-bit
    # and its no-fault overhead must stay inside the budget the report itself
    # declares.
    overhead = report.get("resilient_overhead", {})
    if overhead:
        if not overhead.get("parity_bit_identical", False):
            failures.append("campaign: resilient executor aggregates diverge from the pool's")
        measured = float(overhead.get("overhead_fraction", 0.0))
        budget = float(overhead.get("max_overhead_fraction", 0.05))
        verdict = "ok" if measured <= budget else "REGRESSION"
        print(
            f"  campaign[resilient_overhead]: {measured * 100:+.2f}% "
            f"(budget {budget * 100:.0f}%) -> {verdict}"
        )
        if measured > budget:
            failures.append(
                "campaign: resilient executor no-fault overhead "
                f"{measured * 100:.2f}% exceeds the {budget * 100:.0f}% budget"
            )
    # Variance reduction: the paired-t interval of a CRN delta must be
    # strictly tighter than the Welch interval on the same samples.  This
    # gates the seed-group pairing contract end-to-end (shared replication
    # streams -> positively correlated samples -> smaller paired variance);
    # it holding at ~1.0 would mean the grid points no longer share streams.
    variance = report.get("variance_reduction", {})
    if not variance:
        failures.append("campaign: variance_reduction section missing from report")
    else:
        ratio = float(variance.get("ci_ratio", float("nan")))
        paired_smaller = bool(variance.get("paired_smaller", False))
        verdict = "ok" if paired_smaller else "REGRESSION"
        print(
            f"  campaign[variance_reduction]: paired/unpaired CI ratio "
            f"{ratio:.3f} -> {verdict}"
        )
        if not paired_smaller:
            failures.append(
                "campaign: paired CRN half-width is no longer strictly "
                "smaller than the unpaired Welch half-width "
                f"(ratio {ratio:.3f}) — the shared-seed-group pairing "
                "contract looks broken"
            )
    return {}, failures


def _gate(
    name: str,
    measurements: Dict[str, float],
    baselines: Dict[str, float],
    min_ratio: float,
    noise_floor: float,
    failures: List[str],
) -> None:
    for key, baseline in sorted(baselines.items()):
        if baseline < noise_floor:
            print(f"  {name}[{key}]: baseline {baseline:.2f}x below noise floor, skipped")
            continue
        measured = measurements.get(key)
        if measured is None:
            failures.append(f"{name}: measurement for '{key}' missing from report")
            continue
        floor = min_ratio * baseline
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  {name}[{key}]: measured {measured:.2f}x vs baseline {baseline:.2f}x "
            f"(floor {floor:.2f}x) -> {verdict}"
        )
        if measured < floor:
            failures.append(
                f"{name}: '{key}' speedup {measured:.2f}x dropped more than "
                f"{100 * (1 - min_ratio):.0f}% below the baseline {baseline:.2f}x"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--frame-rate", type=Path, default=Path("BENCH_frame_rate.smoke.json"))
    parser.add_argument("--admission", type=Path, default=Path("BENCH_admission.smoke.json"))
    parser.add_argument("--solvers", type=Path, default=Path("BENCH_solvers.smoke.json"))
    parser.add_argument("--fleet", type=Path, default=Path("BENCH_fleet.smoke.json"))
    parser.add_argument("--campaign", type=Path, default=Path("BENCH_campaign.smoke.json"))
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES)
    parser.add_argument(
        "--full-solvers-baseline",
        type=Path,
        default=DEFAULT_FULL_SOLVERS,
        help="committed full-scale BENCH_solvers.json (shared Q=16/64 points)",
    )
    args = parser.parse_args(argv)

    spec = _load(args.baselines)
    min_ratio = float(spec.get("min_ratio_vs_baseline", 0.7))
    noise_floor = float(spec.get("noise_floor_speedup", 1.3))
    baseline_speedups = {
        name: entry.get("speedups", {})
        for name, entry in spec.get("benchmarks", {}).items()
    }

    failures: List[str] = []
    reports = {
        "frame_rate": (args.frame_rate, _frame_rate_measurements),
        "admission": (args.admission, _admission_measurements),
        "solvers": (args.solvers, _solvers_measurements),
        "fleet": (args.fleet, _fleet_measurements),
        "campaign": (args.campaign, _campaign_measurements),
    }
    for name, (path, extract) in reports.items():
        if not path.exists():
            failures.append(f"{name}: smoke report {path} not found")
            continue
        measurements, parity_failures = extract(_load(path))
        failures.extend(parity_failures)
        print(f"{name} ({path}):")
        _gate(
            name, measurements, baseline_speedups.get(name, {}),
            min_ratio, noise_floor, failures,
        )

    # The solver smoke sweep shares its sweep points and node budget with the
    # committed full run — gate those directly against BENCH_solvers.json.
    if args.solvers.exists() and args.full_solvers_baseline.exists():
        smoke, _ = _solvers_measurements(_load(args.solvers))
        full, _ = _solvers_measurements(_load(args.full_solvers_baseline))
        shared = {key: value for key, value in full.items() if key in smoke}
        print(f"solvers vs committed {args.full_solvers_baseline.name}:")
        _gate("solvers-full", smoke, shared, min_ratio, noise_floor, failures)

    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
