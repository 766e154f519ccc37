#!/usr/bin/env python
"""Quickstart: one burst admission decision, end to end.

This example walks through the full pipeline of the reproduction on a single
network snapshot:

1. build a 7-cell wideband CDMA network with voice and data users,
2. run power control / hand-off and take the measurement snapshot,
3. create a handful of pending burst requests,
4. run the JABA-SD scheduler and the two baselines on the *same* snapshot,
5. print who got which spreading-gain ratio and the resulting SCH rates.

Run it with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro.cdma import CdmaNetwork, MobileStation, UserClass
from repro.config import SystemConfig
from repro.geometry import FleetMemberMobility, HexagonalCellLayout, RandomDirectionFleet
from repro.mac import (
    BurstAdmissionController,
    BurstRequest,
    EqualShareScheduler,
    FcfsScheduler,
    JabaSdScheduler,
    LinkDirection,
)
from repro.utils.tables import format_table


def build_network(config: SystemConfig, seed: int = 42) -> CdmaNetwork:
    """A 7-cell network with 14 data users and 14 voice users.

    The users move with a random-direction fleet, which owns their positions
    (as in the dynamic simulator); each mobile's model is a view of it.
    """
    rng = np.random.default_rng(seed)
    layout = HexagonalCellLayout(
        num_rings=config.radio.num_rings, cell_radius_m=config.radio.cell_radius_m
    )
    positions = np.array([layout.random_position(rng) for _ in range(28)])
    fleet = RandomDirectionFleet(positions, layout.bounding_box(), rng=rng)
    mobiles = [
        MobileStation(
            index=index,
            user_class=UserClass.DATA if index < 14 else UserClass.VOICE,
            mobility=FleetMemberMobility(fleet, index),
            fch_pilot_power_ratio=config.radio.fch_pilot_power_ratio,
        )
        for index in range(28)
    ]
    return CdmaNetwork(config, mobiles, rng, layout, mobility_fleet=fleet)


def main() -> None:
    config = SystemConfig()
    network = build_network(config)

    # Let the network settle for one second of mobility / power control.
    for _ in range(50):
        network.advance(0.02)
    snapshot = network.snapshot()

    # Eight of the data users request a forward-link burst of 300 kbit each.
    requests = [
        BurstRequest(
            mobile_index=j,
            link=LinkDirection.FORWARD,
            size_bits=300_000.0,
            arrival_time_s=snapshot.time_s,
        )
        for j in range(8)
    ]

    rows = []
    for scheduler in (JabaSdScheduler("J1"), JabaSdScheduler("J2"),
                      FcfsScheduler(), EqualShareScheduler()):
        controller = BurstAdmissionController(config, scheduler)
        decision, grants = controller.decide(snapshot, requests, LinkDirection.FORWARD)
        total_rate = sum(grant.rate_bps for grant in grants)
        rows.append([
            scheduler.name,
            " ".join(str(int(m)) for m in decision.assignment),
            len(grants),
            total_rate / 1e3,
            decision.objective_value,
        ])

    print(format_table(
        ["scheduler", "granted m per request", "grants", "total SCH rate (kbps)", "objective"],
        rows,
        title="One burst-admission decision on the same snapshot",
    ))
    print()
    print("Cell loading (forward traffic power, W):",
          np.round(snapshot.forward_load.current_power_w, 2))
    print("Forward power headroom per cell (W):   ",
          np.round(snapshot.forward_load.headroom_w(), 2))


if __name__ == "__main__":
    main()
