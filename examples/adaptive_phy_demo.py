#!/usr/bin/env python
"""Adaptive physical layer (VTAOC) demonstration.

Reproduces, in miniature, the motivation of Section 2 of the paper:

* shows the constant-BER adaptation thresholds of the 6-mode VTAOC scheme,
* simulates a mobile crossing a cell while its channel fades (path loss +
  correlated shadowing + Rayleigh fading) and shows how the selected mode and
  the offered throughput track the channel, and
* compares the time-averaged throughput against the best fixed-rate mode
  on the same per-frame channel.

Run it with ``python examples/adaptive_phy_demo.py``.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.channel import LogDistancePathLoss
from repro.phy import FixedRatePhy, VtaocCodec, instantaneous_csi
from repro.utils.tables import format_table
from repro.utils.units import db_to_linear, linear_to_db


def main(seed: int = 3) -> float:
    """Run the demo on the fading track drawn from ``seed``; return the adaptive gain."""
    codec = VtaocCodec(target_ber=1e-3, coding_gain_db=3.0)

    print("Constant-BER adaptation thresholds (mode q is used above zeta_q):")
    rows = [
        [mode.index, mode.bits_per_symbol, float(linear_to_db(threshold))]
        for mode, threshold in zip(codec.mode_table, codec.thresholds)
    ]
    print(format_table(["mode", "bits/symbol", "threshold (dB)"], rows))
    print()

    # --- a mobile driving away from the base station under fading ---------------
    # The channel of eq. (1), X(t) = Xl(t) * Xs(t): a local mean Xl (path loss
    # times log-normal shadowing, an AR(1) process in dB whose correlation
    # decays with the distance travelled) and a unit-mean exponential Rayleigh
    # power Xs.  At a 20 Hz Doppler the fading decorrelates within a 20 ms
    # frame, so each frame draws it afresh.
    rng = np.random.default_rng(seed)
    path_loss = LogDistancePathLoss()
    shadowing_std_db = 8.0
    frame_s = 0.02
    speed_m_s = 13.9  # 50 km/h
    step_m = speed_m_s * frame_s
    rho = np.exp(-step_m / constants.SHADOWING_DECORRELATION_DISTANCE_M)
    shadowing_db = shadowing_std_db * rng.standard_normal()
    distance = 400.0
    # Transmit power chosen so the link has ~20 dB local-mean CSI at 400 m.
    reference_gain = path_loss.gain(400.0)
    tx_scale = db_to_linear(20.0) / reference_gain

    log_rows = []
    throughputs = []
    csis = []
    for step in range(500):
        distance += step_m
        shadowing_db = rho * shadowing_db + shadowing_std_db * np.sqrt(
            1.0 - rho**2
        ) * rng.standard_normal()
        local_mean_gain = path_loss.gain(distance) * db_to_linear(shadowing_db)
        mean_csi = tx_scale * local_mean_gain
        csi = instantaneous_csi(rng.exponential(1.0), mean_csi)
        mode = codec.select_mode(csi)
        throughput = codec.instantaneous_throughput(csi)
        throughputs.append(throughput)
        csis.append(csi)
        if step % 100 == 0:
            log_rows.append([
                round(step * frame_s, 2),
                round(distance),
                round(float(linear_to_db(max(mean_csi, 1e-12))), 1),
                mode,
                throughput,
            ])

    print("Snapshot of the adaptive operation while driving away from the site:")
    print(format_table(
        ["time (s)", "distance (m)", "mean CSI (dB)", "selected mode", "bits/symbol"],
        log_rows,
    ))
    print()

    adaptive_avg = float(np.mean(throughputs))
    # Each fixed mode on the very same per-frame CSIs.  Its outage threshold
    # is the adaptive scheme's threshold for that mode, so the adaptive
    # scheme offers at least as much on every frame.
    fixed_avg, fixed_mode = max(
        (
            float(np.mean(
                FixedRatePhy(mode, target_ber=1e-3, coding_gain_db=3.0)
                .instantaneous_throughput(np.asarray(csis))
            )),
            mode.index,
        )
        for mode in codec.mode_table
    )
    gain = adaptive_avg / max(fixed_avg, 1e-9)
    print(f"Time-averaged adaptive throughput : {adaptive_avg:.3f} bits/symbol")
    print(f"Best fixed-rate mode (mode {fixed_mode}) goodput: {fixed_avg:.3f} bits/symbol")
    print(f"Adaptive gain                      : x{gain:.2f}")
    return gain


if __name__ == "__main__":
    main()
