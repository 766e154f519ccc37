"""repro — reproduction of Kwok & Lau's channel-adaptive multiple-burst admission control.

This package reproduces, in pure Python, the system described in

    Y.-K. Kwok and V. K. N. Lau, "On Channel-Adaptive Multiple Burst
    Admission Control for Mobile Computing Based on Wideband CDMA",
    Proc. International Conference on Parallel Processing Workshops, 2001.

The top-level namespace re-exports the most commonly used entry points; see
the sub-packages for the full API:

* :mod:`repro.phy` — variable-throughput adaptive physical layer (VTAOC).
* :mod:`repro.channel` — path-loss models and scalar single-link fading /
  shadowing / CSI models, which the dynamic simulator does not use.
* :mod:`repro.cdma` — multi-cell wideband CDMA network substrate; its
  :class:`~repro.cdma.linkgain.LinkGainMap` (local-mean path loss ×
  shadowing of every mobile–cell pair) is the dynamic simulator's channel.
* :mod:`repro.mac` — burst admission control (measurement + scheduling),
  including the JABA-SD scheduler and the FCFS / equal-share baselines.
* :mod:`repro.simulation` — dynamic and snapshot system simulators.
* :mod:`repro.experiments` — the paper-style evaluation harness.
"""

from repro.version import __version__, PAPER
from repro.config import SystemConfig, PhyConfig, RadioConfig, MacConfig

__all__ = [
    "__version__",
    "PAPER",
    "SystemConfig",
    "PhyConfig",
    "RadioConfig",
    "MacConfig",
]
