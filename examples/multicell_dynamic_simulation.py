#!/usr/bin/env python
"""Full multi-cell dynamic simulation (the paper's evaluation methodology).

Runs the complete dynamic system simulation — user mobility, correlated
shadowing, soft hand-off, FCH power control, on/off voice background load
and bursty WWW data traffic — for the JABA-SD scheduler and prints the
delay / throughput / loading summary, plus a per-link breakdown.  Each frame
carries local-mean link gains (the fast fading is averaged analytically by
the VTAOC layer), and power control is solved to its fixed point every
frame.  A progress line is printed every 250 frames, read from the
simulator's ``frame`` events.

Run it with ``python examples/multicell_dynamic_simulation.py [--load N]``.
"""

from __future__ import annotations

import argparse

from repro.experiments.common import paper_scenario
from repro.mac import JabaSdScheduler
from repro.simulation import DynamicSystemSimulator
from repro.utils.hooks import SimHooks
from repro.utils.tables import format_table


class FrameProgress(SimHooks):
    """Print the queue state every ``every`` frames."""

    def __init__(self, every: int) -> None:
        self.every = every

    def record(self, kind, time_s=None, **fields) -> None:
        if kind == "frame" and (fields["frame_index"] + 1) % self.every == 0:
            print(
                f"  t={time_s:7.2f}s  pending={fields['pending_requests']:4d} "
                f"active_bursts={fields['active_bursts']:4d}"
            )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=int, default=16,
                        help="data users per cell (default 16)")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="simulated seconds after warm-up (default 15)")
    parser.add_argument("--objective", choices=["J1", "J2"], default="J1")
    parser.add_argument("--seed", type=int, default=2001)
    args = parser.parse_args(argv)

    scenario = paper_scenario(
        num_data_users_per_cell=args.load,
        duration_s=args.duration,
        seed=args.seed,
    )
    scheduler = JabaSdScheduler(args.objective)
    print(
        f"Running {scenario.total_data_users} data users + "
        f"{scenario.total_voice_users} voice users over "
        f"{scenario.duration_s + scenario.warmup_s:.0f} simulated seconds "
        f"({scheduler.name}) ..."
    )
    simulator = DynamicSystemSimulator(scenario, scheduler, hooks=FrameProgress(250))
    result = simulator.run()

    rows = [
        ["mean packet-call delay (s)", result.mean_packet_delay_s],
        ["90th-percentile delay (s)", result.p90_packet_delay_s],
        ["forward-link delay (s)", result.mean_forward_delay_s],
        ["reverse-link delay (s)", result.mean_reverse_delay_s],
        ["completed packet calls", result.completed_packet_calls],
        ["carried throughput (kbps)", result.carried_throughput_bps / 1e3],
        ["offered load (kbps)", result.offered_load_bps / 1e3],
        ["mean granted m", result.mean_granted_m],
        ["grant rate", result.grant_rate],
        ["mean pending requests", result.mean_queue_length],
        ["forward power utilisation", result.forward_utilisation],
        ["reverse rise over thermal (dB)", result.reverse_rise_db],
        ["FCH outage fraction", result.fch_outage_fraction],
        ["soft hand-off events", result.handoff_events],
    ]
    print()
    print(format_table(["metric", "value"], rows,
                       title=f"Dynamic simulation summary — {scheduler.name}"))


if __name__ == "__main__":
    main()
